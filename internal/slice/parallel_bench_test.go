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
		if _, err := eng.Slice(crits[i%len(crits)]); err != nil {
			b.Fatal(err)
		}
	}
}

// resultBytes is the size of a slice's Members and Deps arrays.
func resultBytes(sl *slice.Slice) uint64 {
	return uint64(len(sl.Members))*uint64(unsafe.Sizeof(tracer.Ref{})) +
		uint64(len(sl.Deps))*uint64(unsafe.Sizeof(slice.DepEdge{}))
}

// TestParallelQueryAllocations: once an engine has answered a query, a
// further query allocates little beyond its result — no buffer sized by
// an earlier, larger query, no rebuilt scratch. The measured query runs
// right after the largest one, so a result buffer sized from it would
// show.
func TestParallelQueryAllocations(t *testing.T) {
	r, err := recordEngineRegion(20_000)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := slice.NewParallel(r.prog, r.tr, slice.DefaultOptions(), slice.ParallelOptions{WindowSize: r.window})
	if err != nil {
		t.Fatal(err)
	}
	var big, small *slice.Slice
	for _, crit := range slice.LastReadsInRegion(r.tr, 10) {
		sl, err := eng.Slice(crit)
		if err != nil {
			t.Fatal(err)
		}
		if big == nil || len(sl.Deps) > len(big.Deps) {
			big = sl
		}
		if len(sl.Deps) > 0 && (small == nil || len(sl.Deps) < len(small.Deps)) {
			small = sl
		}
	}
	if big == nil || small == nil || 2*len(small.Deps) > len(big.Deps) {
		t.Fatalf("region has no pair of criteria with clearly different slice sizes")
	}
	const runs = 20
	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		if _, err := eng.Slice(big.Criterion); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		if _, err := eng.Slice(small.Criterion); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	if got, want := total/runs, 2*resultBytes(small); got > want {
		t.Fatalf("a query after a larger one allocates %d bytes, want at most %d (2x its result's %d bytes)",
			got, want, resultBytes(small))
	}
}
