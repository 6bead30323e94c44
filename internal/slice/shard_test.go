package slice_test

import (
	"bytes"
	"encoding/json"
	"sort"
	"sync"
	"testing"

	"repro/internal/slice"
	"repro/internal/tracer"
)

// The shard harness: chaining SliceShard window ranges — including a
// JSON round-trip of the query state between every hop, exactly what
// the fleet protocol does — must reproduce the monolithic Slice result
// bit for bit, and re-running any hop from the same state must yield a
// byte-identical successor (the idempotency that makes hedged and
// re-dispatched shard requests safe).

// shardEngine builds a parallel engine with a small window size so even
// the short fuzz traces span many windows.
func shardEngine(t *testing.T, seed int64) (*slice.ParallelSlicer, *tracer.Trace) {
	t.Helper()
	prog, _, tr := fuzzProgram(t, seed)
	eng, err := slice.NewParallel(prog, tr, optionsForSeed(seed), slice.ParallelOptions{Workers: 2, WindowSize: 32})
	if err != nil {
		t.Fatalf("seed %d: build: %v", seed, err)
	}
	return eng, tr
}

// roundTrip serialises and reparses a query state, as the wire does.
func roundTrip(t *testing.T, st *slice.QueryState) *slice.QueryState {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal state: %v", err)
	}
	out := &slice.QueryState{}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("unmarshal state: %v", err)
	}
	return out
}

// chainShards drives a query to completion in hops of `windows` shard
// windows, JSON round-tripping the state between hops. Each hop may run
// on a different engine from engines (round-robin), simulating the
// fleet handing the continuation from worker to worker.
func chainShards(t *testing.T, engines []*slice.ParallelSlicer, crit tracer.Ref, windows int) (*slice.QueryState, int) {
	t.Helper()
	bound, err := engines[0].StartBound(crit)
	if err != nil {
		t.Fatalf("start bound: %v", err)
	}
	var st *slice.QueryState
	hops := 0
	for {
		eng := engines[hops%len(engines)]
		lo := eng.NextShardLo(bound, windows)
		next, err := eng.SliceShard(crit, st, lo)
		if err != nil {
			t.Fatalf("shard hop %d (lo=%d): %v", hops, lo, err)
		}
		hops++
		if hops > 10000 {
			t.Fatalf("shard chain did not converge (bound %d)", bound)
		}
		st = roundTrip(t, next)
		if st.Done {
			return st, hops
		}
		if st.Bound >= bound {
			t.Fatalf("hop %d: bound did not advance: %d -> %d", hops, bound, st.Bound)
		}
		bound = st.Bound
	}
}

func TestShardChainMatchesMonolithic(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 11, 17}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		eng, tr := shardEngine(t, seed)
		for ci, crit := range criteriaOf(t, tr) {
			mono, err := eng.Slice(crit)
			if err != nil {
				t.Fatalf("seed %d crit %d: monolithic: %v", seed, ci, err)
			}
			want := slice.Summarize(mono)
			for _, windows := range []int{1, 2, 5} {
				st, hops := chainShards(t, []*slice.ParallelSlicer{eng}, crit, windows)
				got, err := eng.SummarizeState(st)
				if err != nil {
					t.Fatalf("seed %d crit %d w=%d: summarize: %v", seed, ci, windows, err)
				}
				if got != want {
					t.Fatalf("seed %d crit %d w=%d (%d hops): sharded %+v != monolithic %+v",
						seed, ci, windows, hops, got, want)
				}
				if len(st.Members) != len(mono.Members) {
					t.Fatalf("seed %d crit %d w=%d: %d members sharded, %d monolithic",
						seed, ci, windows, len(st.Members), len(mono.Members))
				}
				for i, g := range st.Members {
					if tr.Global[g] != mono.Members[i] {
						t.Fatalf("seed %d crit %d w=%d: member %d: %+v vs %+v",
							seed, ci, windows, i, tr.Global[g], mono.Members[i])
					}
				}
			}
		}
	}
}

// TestShardSingleHop: lo=0 from a fresh state is the whole query in one
// shard and must equal the monolithic result too.
func TestShardSingleHop(t *testing.T) {
	eng, tr := shardEngine(t, 7)
	for ci, crit := range criteriaOf(t, tr) {
		mono, err := eng.Slice(crit)
		if err != nil {
			t.Fatal(err)
		}
		st, err := eng.SliceShard(crit, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Done {
			t.Fatalf("crit %d: single hop not done (bound %d)", ci, st.Bound)
		}
		got, err := eng.SummarizeState(st)
		if err != nil {
			t.Fatal(err)
		}
		if want := slice.Summarize(mono); got != want {
			t.Fatalf("crit %d: %+v != %+v", ci, got, want)
		}
	}
}

// TestShardReexecutionIdempotent re-runs every hop of a chain twice
// from the same serialised state: both executions must produce
// byte-identical successor states. This is the property straggler
// re-dispatch and hedging rely on.
func TestShardReexecutionIdempotent(t *testing.T) {
	eng, tr := shardEngine(t, 4)
	crit := criteriaOf(t, tr)[0]
	bound, err := eng.StartBound(crit)
	if err != nil {
		t.Fatal(err)
	}
	var st *slice.QueryState
	for hop := 0; ; hop++ {
		lo := eng.NextShardLo(bound, 1)
		a, err := eng.SliceShard(crit, st, lo)
		if err != nil {
			t.Fatal(err)
		}
		b, err := eng.SliceShard(crit, st, lo)
		if err != nil {
			t.Fatal(err)
		}
		ab, _ := json.Marshal(a)
		bb, _ := json.Marshal(b)
		if !bytes.Equal(ab, bb) {
			t.Fatalf("hop %d (lo=%d): re-execution diverged:\n%s\n%s", hop, lo, ab, bb)
		}
		st = roundTrip(t, a)
		if st.Done {
			return
		}
		bound = st.Bound
	}
}

// TestShardCrossEngineResume alternates hops between two independently
// built engines over the same trace — the multi-process case, where
// each worker holds its own engine instance.
func TestShardCrossEngineResume(t *testing.T) {
	seed := int64(3)
	prog, _, tr := fuzzProgram(t, seed)
	opts := optionsForSeed(seed)
	engA, err := slice.NewParallel(prog, tr, opts, slice.ParallelOptions{Workers: 1, WindowSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	engB, err := slice.NewParallel(prog, tr, opts, slice.ParallelOptions{Workers: 3, WindowSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	for ci, crit := range criteriaOf(t, tr) {
		mono, err := engA.Slice(crit)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := chainShards(t, []*slice.ParallelSlicer{engA, engB}, crit, 1)
		got, err := engB.SummarizeState(st)
		if err != nil {
			t.Fatal(err)
		}
		if want := slice.Summarize(mono); got != want {
			t.Fatalf("crit %d: cross-engine %+v != monolithic %+v", ci, got, want)
		}
	}
}

// TestShardConcurrentResume resumes suspended queries from several
// goroutines at once on an engine that has not resumed any query yet,
// so they race for its pooled query scratches; every query must still
// finish with the monolithic result.
func TestShardConcurrentResume(t *testing.T) {
	prog, _, tr := fuzzProgram(t, 4)
	opts := optionsForSeed(4)
	build := func() *slice.ParallelSlicer {
		eng, err := slice.NewParallel(prog, tr, opts, slice.ParallelOptions{Workers: 2, WindowSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	first, eng := build(), build()
	crits := criteriaOf(t, tr)
	states := make([]*slice.QueryState, len(crits))
	want := make([]slice.Summary, len(crits))
	for i, crit := range crits {
		mono, err := first.Slice(crit)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = slice.Summarize(mono)
		bound, _ := first.StartBound(crit)
		if states[i], err = first.SliceShard(crit, nil, first.NextShardLo(bound, 1)); err != nil {
			t.Fatal(err)
		}
	}
	suspended := 0
	for _, st := range states {
		if !st.Done {
			suspended++
		}
	}
	if suspended == 0 {
		t.Fatal("no query suspended after its first shard")
	}
	var wg sync.WaitGroup
	for i := range crits {
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, err := eng.SliceShard(crits[i], states[i], 0)
				if err != nil {
					t.Errorf("crit %d: resume: %v", i, err)
					return
				}
				if got, err := eng.SummarizeState(st); err != nil || got != want[i] {
					t.Errorf("crit %d: resumed %+v (%v), monolithic %+v", i, got, err, want[i])
				}
			}()
		}
	}
	wg.Wait()
}

// TestShardStateVersionGuard: a state with a wrong version must be
// rejected, not misinterpreted.
func TestShardStateVersionGuard(t *testing.T) {
	eng, tr := shardEngine(t, 2)
	crit := criteriaOf(t, tr)[0]
	bound, _ := eng.StartBound(crit)
	st, err := eng.SliceShard(crit, nil, eng.NextShardLo(bound, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Done {
		t.Skip("trace too small to suspend")
	}
	st.V = 99
	if _, err := eng.SliceShard(crit, st, 0); err == nil {
		t.Fatal("version-skewed state accepted")
	}
}

// TestShardProvenanceSummary: the member-level breakdown a shard worker
// attaches to a finished query must be nil over a gap-free trace and,
// once a gap overlay is installed, must match both an independent
// recount straight from the overlay and the monolithic
// AnnotateProvenance member counts. Members decide everything here:
// every dependence edge's provenance is the worst of its two member
// endpoints, so agreeing on members means agreeing on Exact()/Degraded().
func TestShardProvenanceSummary(t *testing.T) {
	// Pick a seed+criterion whose slice spans at least two distinct
	// steps, so the overlay below can straddle it.
	var (
		eng   *slice.ParallelSlicer
		tr    *tracer.Trace
		crit  tracer.Ref
		st    *slice.QueryState
		steps []int64
	)
seeds:
	for _, seed := range []int64{4, 5, 8, 12} {
		e, trace := shardEngine(t, seed)
		for _, c := range criteriaOf(t, trace) {
			s, _ := chainShards(t, []*slice.ParallelSlicer{e}, c, 2)

			// Full recording: no gaps, no summary (matching SliceFor).
			if sum := e.SummarizeProvenance(s); sum != nil {
				t.Fatalf("gap-free trace: want nil summary, got %+v", sum)
			}

			var ss []int64
			for _, g := range s.Members {
				if sp := trace.StepOf(trace.Global[g]); sp > 0 {
					ss = append(ss, sp)
				}
			}
			sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })
			if len(ss) >= 2 && ss[0] != ss[len(ss)-1] {
				eng, tr, crit, st, steps = e, trace, c, s, ss
				break seeds
			}
		}
	}
	if st == nil {
		t.Fatal("no seed/criterion produced a slice wide enough to straddle a gap")
	}

	// Build the overlay from actual member steps so it is guaranteed to
	// touch the slice: one bridged span over an early member, one
	// estimated span over a late one (a pinball whose bridge partially
	// failed verification carries exactly this shape).
	a, b := steps[0], steps[len(steps)-1]
	tr.SetGaps([]tracer.GapSpan{
		{From: a - 1, To: a},
		{From: b - 1, To: b, Estimated: true},
	})
	defer tr.SetGaps(nil)

	sum := eng.SummarizeProvenance(st)
	if sum == nil {
		t.Fatal("gapped trace: want a summary, got nil")
	}

	// Independent recount straight from the overlay.
	var exact, bridged, est int
	for _, g := range st.Members {
		switch tr.ProvenanceOf(tr.Global[g]) {
		case tracer.ProvExact:
			exact++
		case tracer.ProvBridged:
			bridged++
		case tracer.ProvEstimated:
			est++
		}
	}
	if bridged == 0 || est == 0 {
		t.Fatalf("overlay missed the members it was built from (bridged=%d est=%d)", bridged, est)
	}
	if sum.ExactMembers != exact || sum.BridgedMembers != bridged || sum.EstimatedMembers != est {
		t.Fatalf("summary %+v != recount exact=%d bridged=%d estimated=%d", sum, exact, bridged, est)
	}
	if got := sum.ExactMembers + sum.BridgedMembers + sum.EstimatedMembers; got != len(st.Members) {
		t.Fatalf("summary covers %d of %d members", got, len(st.Members))
	}
	if !sum.Degraded() {
		t.Fatal("estimated member present but summary not Degraded")
	}
	if sum.MinConfidence != tracer.ProvEstimated.Confidence() {
		t.Fatalf("MinConfidence %v, want %v", sum.MinConfidence, tracer.ProvEstimated.Confidence())
	}

	// The monolithic annotation must tell the same member-level story.
	mono, err := eng.Slice(crit)
	if err != nil {
		t.Fatalf("monolithic: %v", err)
	}
	slice.AnnotateProvenance(tr, mono)
	if mono.Prov == nil {
		t.Fatal("monolithic slice over gapped trace not annotated")
	}
	if mono.Prov.ExactMembers != sum.ExactMembers ||
		mono.Prov.BridgedMembers != sum.BridgedMembers ||
		mono.Prov.EstimatedMembers != sum.EstimatedMembers {
		t.Fatalf("shard summary %+v disagrees with monolithic %+v", sum, mono.Prov)
	}
}
