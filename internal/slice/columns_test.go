package slice

import (
	"fmt"
	"os"
	"slices"
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
func replayTrace(t testing.TB, prog *isa.Program, pb *pinball.Pinball) *tracer.Trace {
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

// defScan is the linear-scan definition oracle: it walks the global
// trace forward and answers, at position g, each location's last
// definition below g. Queries at non-decreasing positions cost one walk
// in total; a query behind the walk restarts it.
type defScan struct {
	tr   *tracer.Trace
	g    int
	last map[tracer.Loc]int32
}

func newDefScan(tr *tracer.Trace) *defScan {
	return &defScan{tr: tr, last: make(map[tracer.Loc]int32)}
}

// before returns the greatest global position below g whose entry
// defines l, or -1 when none does.
func (d *defScan) before(l tracer.Loc, g int) int32 {
	if g < d.g {
		d.g, d.last = 0, make(map[tracer.Loc]int32)
	}
	var buf [8]tracer.Loc
	for ; d.g < g; d.g++ {
		for _, def := range tracer.Defs(d.tr.Entry(d.tr.Global[d.g]), buf[:0]) {
			d.last[def] = int32(d.g)
		}
	}
	if p, ok := d.last[l]; ok {
		return p
	}
	return -1
}

// checkColumnsAgainstOracle builds the parallel engine over tr for
// windows of 1, 7, 64 and defaultWindow entries with 1 and 4 workers,
// and checks every stored link against the linear-scan definition
// oracle and every stored parent against the sequential forward pass.
func checkColumnsAgainstOracle(t *testing.T, prog *isa.Program, tr *tracer.Trace, defaultWindow int) {
	t.Helper()
	n := len(tr.Global)
	opts := DefaultOptions()
	fwd, err := runForward(prog, tr, cfg.NewAnalyzer(prog), findSaveRestoreCandidates(prog, opts.MaxSave), true)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle's links, one list per position: uses then definitions,
	// the column layout.
	var ubuf, dbuf [8]tracer.Loc
	want := make([][]int32, n)
	var defs int64
	scan := newDefScan(tr)
	for g, ref := range tr.Global {
		e := tr.Entry(ref)
		for _, l := range tracer.Uses(e, ubuf[:0]) {
			want[g] = append(want[g], scan.before(l, g))
		}
		for _, l := range tracer.Defs(e, dbuf[:0]) {
			want[g] = append(want[g], scan.before(l, g))
			defs++
		}
	}
	for _, window := range []int{1, 7, 64, defaultWindow} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("window %d workers %d", window, workers)
			eng, err := NewParallel(prog, tr, opts, ParallelOptions{Workers: workers, WindowSize: window})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if st := eng.Stats(); st.Shards != len(tracer.SplitWindows(n, window)) || st.IndexDefs != defs {
				t.Fatalf("%s: stats %+v, want %d shards and %d defs", label, st, len(tracer.SplitWindows(n, window)), defs)
			}
			for g, ref := range tr.Global {
				if links := eng.cols.links(g); !slices.Equal(links, want[g]) {
					t.Fatalf("%s: position %d links %v, want %v (uses then defs)", label, g, links, want[g])
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
