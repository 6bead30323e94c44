package matrix

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseSpec feeds arbitrary bytes to the scenario decoder. On any
// input it must not panic, and either reject the input or return a spec
// whose every scenario expands to at least one cell and whose digest is
// a pure function of the bytes. Its seeds are the committed scenario
// files and every spec the package tests inline.
func FuzzParseSpec(f *testing.F) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no committed scenario files (%v)", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add(sampleSpec)
	f.Add(runTestSpec)
	f.Add(objectsSpec)
	for _, tc := range append(specErrorCases, syntaxErrorCases...) {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := ParseSpec(src)
		if err != nil {
			return
		}
		for _, sc := range spec.Scenarios {
			if len(sc.Expand()) == 0 {
				t.Fatalf("scenario %s expands to no cells", sc.Name)
			}
		}
		again, err := ParseSpec(src)
		if err != nil {
			t.Fatalf("second decode of accepted bytes failed: %v", err)
		}
		if a, b := spec.Digest(), again.Digest(); a != b {
			t.Fatalf("same bytes, different digests: %s vs %s", a, b)
		}
	})
}
