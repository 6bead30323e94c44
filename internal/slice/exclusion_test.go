package slice_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/progfuzz"
	"repro/internal/slice"
	"repro/internal/tracer"
	"repro/internal/workloads"
)

// mapExclusions is the reference BuildExclusions is checked against:
// per-pc instance counts in a map and membership in a set built from
// the slice's Members, the construction the dense one replaced.
func mapExclusions(tr *tracer.Trace, sl *slice.Slice) []pinball.Exclusion {
	members := make(map[tracer.Ref]bool, len(sl.Members))
	for _, m := range sl.Members {
		members[m] = true
	}
	var out []pinball.Exclusion
	tids := make([]int, 0, len(tr.Locals))
	for tid := range tr.Locals {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		local := tr.Locals[tid]
		first := tr.FirstIdx[tid]
		instOf := make(map[int64]int64)
		instances := make([]int64, len(local))
		for pos := range local {
			instOf[local[pos].PC]++
			instances[pos] = instOf[local[pos].PC]
		}
		mustKeep := func(pos int) bool {
			e := &local[pos]
			switch e.Instr.Op {
			case isa.SPAWN, isa.JOIN, isa.WAIT, isa.SIGNAL, isa.HALT:
				return true
			case isa.RET:
				if e.NextPC == -1 {
					return true
				}
			}
			return members[tracer.Ref{Tid: int32(tid), Pos: int32(pos)}]
		}
		start := -1
		flush := func(end int) {
			if start < 0 {
				return
			}
			ex := pinball.Exclusion{
				Tid: tid, FromIdx: first + int64(start), ToIdx: first + int64(end),
				StartPC: local[start].PC, StartInstance: instances[start], EndPC: -1,
			}
			if end < len(local) {
				ex.EndPC, ex.EndInstance = local[end].PC, instances[end]
			}
			out = append(out, ex)
			start = -1
		}
		for pos := range local {
			if mustKeep(pos) {
				flush(pos)
			} else if start < 0 {
				start = pos
			}
		}
		flush(len(local))
	}
	return out
}

// TestExclusionsMatchMapReference: BuildExclusions, with dense per-pc
// instance counts and bitset membership, returns exactly the reference
// exclusion list for every differential criterion over the committed
// progfuzz corpus and all registry workloads.
func TestExclusionsMatchMapReference(t *testing.T) {
	check := func(label string, prog *isa.Program, pb *pinball.Pinball, tr *tracer.Trace) {
		t.Helper()
		eng, err := slice.NewParallel(prog, tr, slice.DefaultOptions(), slice.ParallelOptions{WindowSize: pinplay.WindowSize(pb)})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for ci, crit := range criteriaOf(t, tr) {
			sl, err := eng.Slice(crit)
			if err != nil {
				t.Fatalf("%s crit %d: %v", label, ci, err)
			}
			got, want := slice.BuildExclusions(tr, sl), mapExclusions(tr, sl)
			if !slices.Equal(got, want) {
				t.Fatalf("%s crit %d: exclusions differ from the reference:\ngot  %v\nwant %v", label, ci, got, want)
			}
		}
	}
	for _, seed := range progfuzz.CorpusSeeds {
		prog, pb, tr := corpusProgram(t, seed)
		check(fmt.Sprintf("corpus seed %d", seed), prog, pb, tr)
	}
	for _, w := range workloads.All() {
		prog, err := w.Program()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		pb, err := pinplay.Log(prog, pinplay.LogConfig{Seed: 1, RandSeed: 1, Input: w.Input(w.DefaultThreads, 1<<40)},
			pinplay.RegionSpec{LengthMain: 5000})
		if err != nil {
			t.Fatalf("%s: record: %v", w.Name, err)
		}
		tr, err := core.Open(prog, pb).Trace()
		if err != nil {
			t.Fatalf("%s: trace: %v", w.Name, err)
		}
		check(w.Name, prog, pb, tr)
	}
}
