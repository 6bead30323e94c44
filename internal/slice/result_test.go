package slice

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/tracer"
)

// TestEngineSliceFoldsEdges: an engine slice answers Summarize,
// Contains and BuildExclusions from its folded digest and member bitset
// without ever building its edge list, and its Summary equals the
// sequential oracle's, which keeps the list. Deps then builds exactly
// the oracle's edges.
func TestEngineSliceFoldsEdges(t *testing.T) {
	eng := workloadEngine(t, "swaptions", 16)
	seq, err := New(eng.Prog, eng.Trace, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := eng.Trace
	edges := int64(0)
	for _, crit := range append(LastReadsInRegion(tr, 4), tr.Global[len(tr.Global)/2], tr.Global[len(tr.Global)/4]) {
		sl, err := eng.Slice(crit)
		if err != nil {
			t.Fatal(err)
		}
		want, err := seq.Slice(crit)
		if err != nil {
			t.Fatal(err)
		}
		got := Summarize(sl)
		if ref := Summarize(want); got != ref {
			t.Fatalf("crit %+v: engine summary %+v, oracle %+v", crit, got, ref)
		}
		edges += got.Deps
		for _, ref := range tr.Global {
			if sl.Contains(ref) != want.Contains(ref) {
				t.Fatalf("crit %+v: Contains(%+v) = %v, oracle %v", crit, ref, sl.Contains(ref), want.Contains(ref))
			}
		}
		BuildExclusions(tr, sl)
		if sl.deps != nil {
			t.Fatalf("crit %+v: Summarize/Contains/BuildExclusions built %d edges", crit, len(sl.deps))
		}
		if !slices.Equal(sl.Deps(), want.Deps()) {
			t.Fatalf("crit %+v: engine Deps differ from the oracle's", crit)
		}
	}
	if edges == 0 {
		t.Fatal("no criterion has a dependence edge")
	}
}

// TestSliceDepsConcurrent: concurrent first calls to Deps on one engine
// slice build the list once and all see it (run under -race).
func TestSliceDepsConcurrent(t *testing.T) {
	eng := workloadEngine(t, "swaptions", 16)
	var sl *Slice
	tr := eng.Trace
	for _, crit := range []tracer.Ref{tr.Global[len(tr.Global)/2], tr.Global[len(tr.Global)/4]} {
		s, err := eng.Slice(crit)
		if err != nil {
			t.Fatal(err)
		}
		if sl == nil || Summarize(s).Deps > Summarize(sl).Deps {
			sl = s
		}
	}
	want, err := eng.Slice(sl.Criterion)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	got := make([][]DepEdge, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = sl.Deps()
		}()
	}
	wg.Wait()
	for i := range got {
		if len(got[i]) == 0 || &got[i][0] != &got[0][0] || !slices.Equal(got[i], want.Deps()) {
			t.Fatalf("goroutine %d saw a different edge list", i)
		}
	}
}
