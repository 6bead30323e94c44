package slice_test

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/tracer"
	"repro/internal/workloads"
)

// engineRegion is a traced blackscholes region at its default thread
// count, with its checkpoint-cadence window size.
type engineRegion struct {
	prog   *isa.Program
	tr     *tracer.Trace
	window int
}

var (
	benchRegionOnce sync.Once
	benchRegion     engineRegion
	benchRegionErr  error
)

// recordEngineRegion records and traces lengthMain main-thread
// instructions of blackscholes.
func recordEngineRegion(lengthMain int64) (engineRegion, error) {
	w, err := workloads.ByName("blackscholes")
	if err != nil {
		return engineRegion{}, err
	}
	prog, err := w.Program()
	if err != nil {
		return engineRegion{}, err
	}
	pb, err := pinplay.Log(prog, pinplay.LogConfig{Seed: 1, RandSeed: 1, Input: w.Input(w.DefaultThreads, 1<<40)},
		pinplay.RegionSpec{LengthMain: lengthMain})
	if err != nil {
		return engineRegion{}, err
	}
	tr, err := core.Open(prog, pb).Trace()
	if err != nil {
		return engineRegion{}, err
	}
	return engineRegion{prog: prog, tr: tr, window: pinplay.WindowSize(pb)}, nil
}

// benchEngineRegion is the shared 100k-main-instruction benchmark region.
func benchEngineRegion(b *testing.B) engineRegion {
	b.Helper()
	benchRegionOnce.Do(func() { benchRegion, benchRegionErr = recordEngineRegion(100_000) })
	if benchRegionErr != nil {
		b.Fatal(benchRegionErr)
	}
	return benchRegion
}

// BenchmarkParallelBuild measures the parallel engine's build — forward
// pass, dependence columns, bypass directory — over a traced region.
func BenchmarkParallelBuild(b *testing.B) {
	r := benchEngineRegion(b)
	popts := slice.ParallelOptions{WindowSize: r.window}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := slice.NewParallel(r.prog, r.tr, slice.DefaultOptions(), popts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(r.tr.Global)), "ns/instr")
}

// BenchmarkParallelQuery measures steady-state queries on a built
// engine, cycling through the region's last reads (the paper's slicing
// criteria).
func BenchmarkParallelQuery(b *testing.B) {
	benchQueries(b, func(*slice.Slice) {})
}

// BenchmarkParallelQueryDeps is BenchmarkParallelQuery plus building
// each result's dependence edges (Slice.Deps): the on-demand cost that
// navigation and slice-file export pay.
func BenchmarkParallelQueryDeps(b *testing.B) {
	benchQueries(b, func(sl *slice.Slice) { sl.Deps() })
}

func benchQueries(b *testing.B, use func(*slice.Slice)) {
	r := benchEngineRegion(b)
	eng, err := slice.NewParallel(r.prog, r.tr, slice.DefaultOptions(), slice.ParallelOptions{WindowSize: r.window})
	if err != nil {
		b.Fatal(err)
	}
	crits := slice.LastReadsInRegion(r.tr, 10)
	if len(crits) == 0 {
		b.Fatal("no read in the region")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sl, err := eng.Slice(crits[i%len(crits)])
		if err != nil {
			b.Fatal(err)
		}
		use(sl)
	}
}

// resultBytes bounds what a query may allocate: its Members array and
// its member bitset (one bit per global position up to the criterion),
// each rounded up to an allocator size class, plus a small constant for
// the Slice header.
func resultBytes(tr *tracer.Trace, sl *slice.Slice) uint64 {
	g, _ := tr.GlobalPosOf(sl.Criterion)
	n := uint64(len(sl.Members))*uint64(unsafe.Sizeof(tracer.Ref{})) + uint64(g/64+1)*8
	return n + n/8 + 8192
}

// TestParallelQueryAllocations: once an engine has answered a query, a
// further query allocates little beyond its result — its members and
// member bitset, no dependence-edge list, no buffer sized by an earlier,
// larger query, no rebuilt scratch. Each measured query runs right after
// the largest one, so a result buffer sized from it would show.
func TestParallelQueryAllocations(t *testing.T) {
	r, err := recordEngineRegion(20_000)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := slice.NewParallel(r.prog, r.tr, slice.DefaultOptions(), slice.ParallelOptions{WindowSize: r.window})
	if err != nil {
		t.Fatal(err)
	}
	var big *slice.Slice
	var others []*slice.Slice
	for _, crit := range slice.LastReadsInRegion(r.tr, 10) {
		sl, err := eng.Slice(crit)
		if err != nil {
			t.Fatal(err)
		}
		if big == nil || len(sl.Members) > len(big.Members) {
			big, sl = sl, big
		}
		if sl != nil {
			others = append(others, sl)
		}
	}
	smaller := 0
	for _, sl := range others {
		if 2*len(sl.Members) <= len(big.Members) {
			smaller++
		}
	}
	if big == nil || smaller == 0 {
		t.Fatalf("region has no pair of criteria with clearly different slice sizes")
	}
	const runs = 5
	for _, sl := range others {
		var total uint64
		var before, after runtime.MemStats
		for i := 0; i < runs; i++ {
			if _, err := eng.Slice(big.Criterion); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			if _, err := eng.Slice(sl.Criterion); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
		if got, want := total/runs, resultBytes(r.tr, sl); got > want {
			t.Fatalf("a query of %d members after one of %d allocates %d bytes, want at most %d",
				len(sl.Members), len(big.Members), got, want)
		}
	}
}
