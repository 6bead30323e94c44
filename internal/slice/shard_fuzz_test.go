package slice

import (
	"encoding/json"
	"errors"
	"testing"
)

// FuzzSliceShardState feeds SliceShard arbitrary wire query states —
// every daemon slice request runs through it. Whatever the bytes, a
// shard hop must not panic, and must either reject the state with
// ErrBadState or answer a successor state that checkState accepts, so
// the next hop can resume it. The seed corpus is every state of real
// shard chains plus each malformed state TestShardRejectsMalformedState
// pins.
func FuzzSliceShardState(f *testing.F) {
	eng := workloadEngine(f, "swaptions", 16)
	add := func(st *QueryState) {
		b, err := json.Marshal(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, crit := range LastReadsInRegion(eng.Trace, 3) {
		bound, err := eng.StartBound(crit)
		if err != nil {
			f.Fatal(err)
		}
		for st := (*QueryState)(nil); st == nil || !st.Done; bound = st.Bound {
			if st, err = eng.SliceShard(crit, st, eng.NextShardLo(bound, 8)); err != nil {
				f.Fatal(err)
			}
			add(st)
		}
	}
	base, _, start := suspendedState(f, eng)
	for _, tc := range malformedStates {
		b, err := json.Marshal(base)
		if err != nil {
			f.Fatal(err)
		}
		st := &QueryState{}
		if err := json.Unmarshal(b, st); err != nil {
			f.Fatal(err)
		}
		tc.mutate(st, start)
		add(st)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		st := &QueryState{}
		if json.Unmarshal(data, st) != nil {
			return
		}
		next, err := eng.SliceShard(st.Crit, st, eng.NextShardLo(st.Bound, 1))
		if err != nil {
			if !errors.Is(err, ErrBadState) {
				t.Fatalf("state %s: untyped rejection: %v", data, err)
			}
			return
		}
		if err := eng.checkState(next); err != nil {
			t.Fatalf("state %s: successor rejected: %v", data, err)
		}
	})
}
