package slice

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/progfuzz"
	"repro/internal/tracer"
	"repro/internal/workloads"
)

// replayTrace replays a recording with a region collector and builds
// its global trace.
func replayTrace(t *testing.T, prog *isa.Program, pb *pinball.Pinball) *tracer.Trace {
	t.Helper()
	m := pinplay.NewReplayMachine(prog, pb, nil)
	col := tracer.NewRegionCollector(pb.Quanta)
	m.SetTracer(col)
	for i, total := int64(0), pb.TotalQuantumInstrs(); i < total && m.StepOne(); i++ {
	}
	tr := col.Trace()
	if err := tr.BuildGlobal(); err != nil {
		t.Fatalf("global trace: %v", err)
	}
	return tr
}

// checkColumnsAgainstOracle builds the parallel engine over tr for
// windows of 1, 7, 64 and defaultWindow entries with 1 and 4 workers,
// and checks every stored link against the per-location definition
// index and every stored parent against the sequential forward pass.
func checkColumnsAgainstOracle(t *testing.T, prog *isa.Program, tr *tracer.Trace, defaultWindow int) {
	t.Helper()
	n := len(tr.Global)
	idx := tracer.BuildDefIndex(tr, tracer.SplitWindows(n, n), 1)
	opts := DefaultOptions()
	fwd, err := runForward(prog, tr, cfg.NewAnalyzer(prog), findSaveRestoreCandidates(prog, opts.MaxSave), true)
	if err != nil {
		t.Fatal(err)
	}
	near := func(l tracer.Loc, g int) int32 {
		if p, ok := idx.NearestDefBefore(l, g); ok {
			return int32(p)
		}
		return -1
	}
	var ubuf, dbuf [8]tracer.Loc
	for _, window := range []int{1, 7, 64, defaultWindow} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("window %d workers %d", window, workers)
			eng, err := NewParallel(prog, tr, opts, ParallelOptions{Workers: workers, WindowSize: window})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if st := eng.Stats(); st.Shards != len(tracer.SplitWindows(n, window)) || st.IndexDefs != idx.DefCount() {
				t.Fatalf("%s: stats %+v, want %d shards and %d defs", label, st, len(tracer.SplitWindows(n, window)), idx.DefCount())
			}
			for g, ref := range tr.Global {
				e := tr.Entry(ref)
				uses, defs := tracer.Uses(e, ubuf[:0]), tracer.Defs(e, dbuf[:0])
				links := eng.cols.links(g)
				if len(links) != len(uses)+len(defs) {
					t.Fatalf("%s: position %d has %d links for %d uses and %d defs", label, g, len(links), len(uses), len(defs))
				}
				for k, l := range uses {
					if want := near(l, g); links[k] != want {
						t.Fatalf("%s: position %d use %v reaching def %d, want %d", label, g, l, links[k], want)
					}
				}
				for k, l := range defs {
					if want := near(l, g); links[len(uses)+k] != want {
						t.Fatalf("%s: position %d def %v previous def %d, want %d", label, g, l, links[len(uses)+k], want)
					}
				}
				want := int32(-1)
				if p, ok := fwd.parentOf(ref); ok {
					if pg, ok := tr.GlobalPosOf(p); ok {
						want = int32(pg)
					}
				}
				if eng.parent[g] != want {
					t.Fatalf("%s: position %d parent %d, want %d", label, g, eng.parent[g], want)
				}
			}
		}
	}
}

// TestColumnsMatchOracleCorpus checks the dependence and parent columns
// over the committed progfuzz corpus (fine-grained schedules).
func TestColumnsMatchOracleCorpus(t *testing.T) {
	for _, seed := range progfuzz.CorpusSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(fmt.Sprintf("../progfuzz/corpus/seed-%d.c", seed))
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
			checkColumnsAgainstOracle(t, prog, replayTrace(t, prog, pb), pinplay.WindowSize(pb))
		})
	}
}

// TestColumnsMatchOracleWorkloads checks the columns over every
// registered workload, recorded whole at its default thread count.
func TestColumnsMatchOracleWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := w.Program()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			pb, err := pinplay.Log(prog, pinplay.LogConfig{
				Seed: 1, MeanQuantum: 50, RandSeed: 1,
				Input:    w.Input(w.DefaultThreads, 12),
				MaxSteps: 50_000_000,
			}, pinplay.RegionSpec{})
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			checkColumnsAgainstOracle(t, prog, replayTrace(t, prog, pb), pinplay.WindowSize(pb))
		})
	}
}
