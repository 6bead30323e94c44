package workloads_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cc"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/progfuzz"
	"repro/internal/workloads"
)

// kindsOf records one pinball of every kind from prog: the whole
// execution, a region, a slice relogged from the region with a stretch
// of main-thread instructions excluded, and a flight-recorder recording
// whose budget forces evictions.
func kindsOf(t *testing.T, prog *isa.Program, cfg pinplay.LogConfig) map[string]*pinball.Pinball {
	t.Helper()
	whole, err := pinplay.Log(prog, cfg, pinplay.RegionSpec{})
	if err != nil {
		t.Fatalf("log whole: %v", err)
	}
	region, err := pinplay.Log(prog, cfg, pinplay.RegionSpec{SkipMain: 20, LengthMain: 400})
	if err != nil {
		t.Fatalf("log region: %v", err)
	}
	start := region.State.Threads[0].Count
	excl := []pinball.Exclusion{{Tid: 0, FromIdx: start + 5, ToIdx: start + 15}}
	slice, err := pinplay.RelogWith(prog, region, excl, pinplay.ReplayOptions{})
	if err != nil {
		t.Fatalf("relog: %v", err)
	}
	rcfg := cfg
	rcfg.RingBytes, rcfg.JournalEvery = 400, 64
	ring, err := pinplay.Log(prog, rcfg, pinplay.RegionSpec{})
	if err != nil {
		t.Fatalf("log ring: %v", err)
	}
	return map[string]*pinball.Pinball{"whole": whole, "region": region, "slice": slice, "ring": ring}
}

// checkRoundTrip requires every pinball to decode from its encoding to
// the digest it was encoded from.
func checkRoundTrip(t *testing.T, pbs map[string]*pinball.Pinball) {
	t.Helper()
	for kind, pb := range pbs {
		data, err := pb.EncodeBytes()
		if err != nil {
			t.Fatalf("%s: encode: %v", kind, err)
		}
		got, err := pinball.Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", kind, err)
		}
		if got.Digest() != pb.Digest() {
			t.Errorf("%s: decoded digest %#x, encoded %#x", kind, got.Digest(), pb.Digest())
		}
	}
}

// TestEncodeDecodeDigestStable round-trips every pinball kind of every
// registry workload through the on-disk format.
func TestEncodeDecodeDigestStable(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := w.Program()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			cfg := pinplay.LogConfig{
				Seed: 1, MeanQuantum: 50, RandSeed: 1,
				Input:    w.Input(w.DefaultThreads, 12),
				MaxSteps: 50_000_000,
			}
			pbs := kindsOf(t, prog, cfg)
			if !pbs["ring"].Gapped() {
				t.Errorf("ring recording evicted nothing")
			}
			checkRoundTrip(t, pbs)
		})
	}
}

// TestCorpusEncodeDecodeDigestStable does the same for the committed
// progfuzz corpus.
func TestCorpusEncodeDecodeDigestStable(t *testing.T) {
	for _, seed := range progfuzz.CorpusSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(filepath.Join("..", "progfuzz", "corpus", fmt.Sprintf("seed-%d.c", seed)))
			if err != nil {
				t.Fatalf("corpus file: %v", err)
			}
			prog, err := cc.CompileSource(fmt.Sprintf("seed-%d.c", seed), string(src))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			checkRoundTrip(t, kindsOf(t, prog, pinplay.LogConfig{Seed: seed, MeanQuantum: 5}))
		})
	}
}
