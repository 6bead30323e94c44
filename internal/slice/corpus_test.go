package slice_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/cc"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/progfuzz"
	"repro/internal/slice"
	"repro/internal/tracer"
)

// TestCorpusDifferential replays the committed progfuzz corpus
// (internal/progfuzz/corpus/seed-<n>.c) through the full differential
// pipeline: compile the frozen source, record, trace, slice at every
// canonical criterion with both engines, and require bit-identical
// results plus the closure property. Unlike the generator-driven sweep,
// this coverage is pinned to files under version control — a slicer
// regression against these exact shapes reproduces from the committed
// source alone.
func TestCorpusDifferential(t *testing.T) {
	for _, seed := range progfuzz.CorpusSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			prog, pb, tr := corpusProgram(t, seed)

			opts := optionsForSeed(seed)
			seqEng, err := slice.New(prog, tr, opts)
			if err != nil {
				t.Fatalf("sequential slicer: %v", err)
			}
			parEng, err := slice.NewParallel(prog, tr, opts, slice.ParallelOptions{
				Workers:    1 + int(seed%8),
				WindowSize: pinplay.WindowSize(pb),
			})
			if err != nil {
				t.Fatalf("parallel engine: %v", err)
			}
			for ci, crit := range criteriaOf(t, tr) {
				label := fmt.Sprintf("corpus seed %d crit %d", seed, ci)
				seqSl, err := seqEng.Slice(crit)
				if err != nil {
					t.Fatalf("%s: sequential: %v", label, err)
				}
				parSl, err := parEng.Slice(crit)
				if err != nil {
					t.Fatalf("%s: parallel: %v", label, err)
				}
				mustEqualSlices(t, label, seqSl, parSl)
				if err := seqEng.CheckClosure(seqSl); err != nil {
					t.Errorf("%s: %v", label, err)
				}
			}
		})
	}
}

// corpusProgram compiles, records and traces one committed corpus
// program.
func corpusProgram(t *testing.T, seed int64) (*isa.Program, *pinball.Pinball, *tracer.Trace) {
	t.Helper()
	path := fmt.Sprintf("../progfuzz/corpus/seed-%d.c", seed)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("corpus file: %v", err)
	}
	prog, err := cc.CompileSource(fmt.Sprintf("seed-%d.c", seed), string(src))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	pb, err := pinplay.Log(prog, pinplay.LogConfig{Seed: seed, MeanQuantum: 5}, pinplay.RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	m := pinplay.NewReplayMachine(prog, pb, nil)
	col := tracer.NewCollector()
	m.SetTracer(col)
	total := pb.TotalQuantumInstrs()
	for i := int64(0); i < total && m.StepOne(); i++ {
	}
	tr := col.Trace()
	if err := tr.BuildGlobal(); err != nil {
		t.Fatalf("global trace: %v", err)
	}
	return prog, pb, tr
}
