package slice

import (
	"encoding/json"
	"errors"
	"sort"
	"testing"

	"repro/internal/pinplay"
	"repro/internal/tracer"
	"repro/internal/workloads"
)

// workloadEngine records a registry workload whole and builds a column
// engine over it with the given window size.
func workloadEngine(t testing.TB, name string, window int) *ParallelSlicer {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Program()
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	pb, err := pinplay.Log(prog, pinplay.LogConfig{
		Seed: 1, MeanQuantum: 50, RandSeed: 1,
		Input:    w.Input(w.DefaultThreads, 12),
		MaxSteps: 50_000_000,
	}, pinplay.RegionSpec{})
	if err != nil {
		t.Fatalf("%s: record: %v", name, err)
	}
	eng, err := NewParallel(prog, replayTrace(t, prog, pb), DefaultOptions(), ParallelOptions{Workers: 2, WindowSize: window})
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	return eng
}

// wireState serialises and reparses a query state, as a shard hop does.
func wireState(t *testing.T, st *QueryState) *QueryState {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	out := &QueryState{}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardResumeAfterBypass chains one-window shard hops over
// call-heavy registry workloads, where save/restore bypasses forward
// demands from a register to a stack slot and back, and checks every
// resumed state: each carried candidate is the last definition of its
// location below the bound, by a linear scan of the trace, and each
// chain's summary equals the monolithic one. At least one resumed state
// must follow a bypass.
func TestShardResumeAfterBypass(t *testing.T) {
	afterBypass := 0
	for _, name := range []string{"x264", "swaptions", "mozilla", "ammp"} {
		eng := workloadEngine(t, name, 16)
		tr := eng.Trace
		var resumed []*QueryState
		for _, crit := range LastReadsInRegion(tr, 4) {
			mono, err := eng.Slice(crit)
			if err != nil {
				t.Fatal(err)
			}
			bound, err := eng.StartBound(crit)
			if err != nil {
				t.Fatal(err)
			}
			var st *QueryState
			for {
				next, err := eng.SliceShard(crit, st, eng.NextShardLo(bound, 1))
				if err != nil {
					t.Fatalf("%s crit %+v: resume at bound %d: %v", name, crit, bound, err)
				}
				if st = wireState(t, next); st.Done {
					break
				}
				resumed = append(resumed, st)
				bound = st.Bound
			}
			got, err := eng.SummarizeState(st)
			if err != nil {
				t.Fatal(err)
			}
			if want := Summarize(mono); got != want {
				t.Fatalf("%s crit %+v: sharded %+v, monolithic %+v", name, crit, got, want)
			}
		}
		// Ascending bounds let one forward walk answer every state.
		sort.SliceStable(resumed, func(i, j int) bool { return resumed[i].Bound < resumed[j].Bound })
		scan := newDefScan(tr)
		for _, st := range resumed {
			if st.Pruned > 0 {
				afterBypass++
			}
			for _, w := range st.Wanted {
				if want := scan.before(tracer.Loc(w.Loc), st.Bound); w.Def != want {
					t.Fatalf("%s: state at bound %d (%d bypasses) carries candidate %d for location %d, last definition below the bound is %d",
						name, st.Bound, st.Pruned, w.Def, w.Loc, want)
				}
			}
		}
	}
	if afterBypass == 0 {
		t.Fatal("no resumed state followed a save/restore bypass")
	}
}

// TestShardRejectsMalformedState feeds SliceShard wire states that this
// engine could not have produced. Each must be rejected with
// ErrBadState before any position touches a bitset, not panic.
func TestShardRejectsMalformedState(t *testing.T) {
	eng := workloadEngine(t, "swaptions", 16)
	base, crit, start := suspendedState(t, eng)
	for _, tc := range malformedStates {
		t.Run(tc.name, func(t *testing.T) {
			st := wireState(t, base)
			tc.mutate(st, start)
			_, err := eng.SliceShard(crit, st, 0)
			if tc.wantErr == nil && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// suspendedState runs shard hops of one window over the engine's last
// reads until a query suspends with both a live demand and a pending
// control parent, and returns that state, its criterion and the
// criterion's start bound.
func suspendedState(t testing.TB, eng *ParallelSlicer) (*QueryState, tracer.Ref, int) {
	t.Helper()
	for _, c := range LastReadsInRegion(eng.Trace, 8) {
		start, err := eng.StartBound(c)
		if err != nil {
			t.Fatal(err)
		}
		for st, bound := (*QueryState)(nil), start; ; {
			next, err := eng.SliceShard(c, st, eng.NextShardLo(bound, 1))
			if err != nil {
				t.Fatal(err)
			}
			if next.Done {
				break
			}
			if len(next.Wanted) > 0 && len(next.Events) > 0 {
				return next, c, start
			}
			st, bound = next, next.Bound
		}
	}
	t.Fatal("no query suspended with both demands and events")
	return nil, tracer.Ref{}, 0
}

// malformedStates mutate a well-formed suspended state (captured with
// the given criterion start bound) into each shape of wire state the
// engine must reject with ErrBadState, plus the unmutated control.
var malformedStates = []struct {
	name    string
	mutate  func(st *QueryState, start int)
	wantErr error
}{
	{"as captured", func(*QueryState, int) {}, nil},
	{"version 1", func(st *QueryState, _ int) { st.V = 1 }, ErrBadState},
	{"criterion outside trace", func(st *QueryState, _ int) { st.Crit = tracer.Ref{Tid: 1 << 20} }, ErrBadState},
	{"bound past criterion", func(st *QueryState, start int) { st.Bound = start + 1 }, ErrBadState},
	{"negative bound", func(st *QueryState, _ int) { st.Bound = -1 }, ErrBadState},
	{"event far past trace", func(st *QueryState, _ int) { st.Events = append(st.Events, 1<<30) }, ErrBadState},
	{"negative event", func(st *QueryState, _ int) { st.Events = append(st.Events, -5) }, ErrBadState},
	{"event at bound", func(st *QueryState, _ int) { st.Events = append(st.Events, int32(st.Bound)) }, ErrBadState},
	{"member far past trace", func(st *QueryState, _ int) { st.Members = append(st.Members, 1<<30) }, ErrBadState},
	{"negative member", func(st *QueryState, _ int) { st.Members = append(st.Members, -5) }, ErrBadState},
	{"candidate at bound", func(st *QueryState, _ int) { st.Wanted[0].Def = int32(st.Bound) }, ErrBadState},
	{"candidate below -1", func(st *QueryState, _ int) { st.Wanted[0].Def = -5 }, ErrBadState},
	{"requester thread outside trace", func(st *QueryState, _ int) { st.Wanted[0].Tid = 1 << 20 }, ErrBadState},
	{"requester position outside trace", func(st *QueryState, _ int) { st.Wanted[0].Pos = -5 }, ErrBadState},
	{"done with member far past trace", func(st *QueryState, _ int) {
		st.Done, st.Bound, st.Wanted, st.Events = true, 0, nil, nil
		st.Members = append(st.Members, 1<<30)
	}, ErrBadState},
}
