package cfg_test

import (
	"fmt"
	"testing"

	"repro/internal/cc"
	"repro/internal/cfg"
)

// TestFingerprintFreshPrograms fingerprints 10k freshly compiled
// programs, the way a daemon compiles one per request: two compilations
// of the same source hash equal, and programs whose code differs (one
// constant each) hash apart. Fingerprint keeps no per-program state, so
// none of these programs stays reachable after the test drops it.
func TestFingerprintFreshPrograms(t *testing.T) {
	const distinct = 5000
	seen := make(map[uint64]int, distinct)
	for i := 0; i < distinct; i++ {
		src := fmt.Sprintf("int x;\nint main() {\n\tx = %d;\n\treturn x;\n}\n", i)
		a, err := cc.CompileSource("p.c", src)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cc.CompileSource("p.c", src)
		if err != nil {
			t.Fatal(err)
		}
		fa, fb := cfg.Fingerprint(a), cfg.Fingerprint(b)
		if fa != fb {
			t.Fatalf("program %d: two compilations hash %x and %x", i, fa, fb)
		}
		if j, dup := seen[fa]; dup {
			t.Fatalf("programs %d and %d differ in code but share fingerprint %x", j, i, fa)
		}
		seen[fa] = i
	}
}
