package tracer

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/isa"
)

// constraint says entry at may not be emitted before entry pred.
type constraint struct {
	at, pred Ref
}

// BuildGlobal combines the per-thread local traces into a single fully
// ordered trace that honours program order and every shared-memory order
// edge (read-after-write, write-after-write, write-after-read), i.e. a
// topological order of the happens-before graph (paper Section 3(ii)).
//
// The construction clusters runs from one thread for as long as its next
// entry's cross-thread predecessors have been emitted, which improves the
// locality of the Limited Preprocessing traversal (the paper's
// "we always try to cluster traces for each thread to the extent
// possible"). Threads are visited lowest tid first, round after round.
//
// The constraints are gathered into per-thread lists sorted by position,
// so each thread keeps a cursor into its list and emits every run of
// unconstrained entries in bulk: O(n + E log E) for n entries and E
// constraints, with no per-entry map probes.
func (t *Trace) BuildGlobal() error {
	locals := t.ThreadLocals()
	n := len(locals)
	total := 0
	for _, l := range locals {
		total += len(l)
	}

	// Cross-thread constraints: the order edges plus thread-lifecycle
	// causality — a spawn precedes every instruction of the thread it
	// created, and a successful join follows the joined thread's last
	// instruction. An edge endpoint outside the traced region imposes no
	// constraint within it.
	cons := make([]constraint, 0, len(t.Edges)+2*len(t.SpawnEvent))
	for _, e := range t.Edges {
		fr, ok1 := t.RefOf(e.FromTid, e.FromIdx)
		to, ok2 := t.RefOf(e.ToTid, e.ToIdx)
		if ok1 && ok2 {
			cons = append(cons, constraint{at: to, pred: fr})
		}
	}
	for child, sp := range t.SpawnEvent {
		if first, ok := t.RefOf(child, t.FirstIdx[child]); ok {
			cons = append(cons, constraint{at: first, pred: sp})
		}
	}
	for tid, l := range locals {
		for pos := range l {
			if l[pos].Instr.Op != isa.JOIN {
				continue
			}
			if child := l[pos].Aux; child >= 0 && child < int64(n) && len(locals[child]) > 0 {
				cons = append(cons, constraint{
					at:   Ref{Tid: int32(tid), Pos: int32(pos)},
					pred: Ref{Tid: int32(child), Pos: int32(len(locals[child]) - 1)},
				})
			}
		}
	}
	slices.SortFunc(cons, func(a, b constraint) int {
		return cmp.Or(cmp.Compare(a.at.Tid, b.at.Tid), cmp.Compare(a.at.Pos, b.at.Pos))
	})
	// Thread tid's constraints are cons[next[tid]:end[tid]], consumed in
	// position order as its cursor passes them.
	next, end := make([]int, n), make([]int, n)
	for _, c := range cons {
		end[c.at.Tid]++
	}
	for tid, k := 0, 0; tid < n; tid++ {
		next[tid] = k
		k += end[tid]
		end[tid] = k
	}

	global := make([]Ref, total)
	gpos := make([][]int32, n)
	for tid, l := range locals {
		gpos[tid] = make([]int32, len(l))
	}
	cursor := make([]int32, n) // next local position to emit, per thread
	g := 0
	for g < total {
		progress := false
		for tid := range locals {
			l, gp := int32(len(locals[tid])), gpos[tid]
			for cursor[tid] < l {
				c := cursor[tid]
				stop := l
				if k := next[tid]; k < end[tid] {
					stop = cons[k].at.Pos
				}
				if stop == c {
					// Constrained entry: emit it once every predecessor is out.
					k := next[tid]
					for k < end[tid] && cons[k].at.Pos == c && cons[k].pred.Pos < cursor[cons[k].pred.Tid] {
						k++
					}
					if k < end[tid] && cons[k].at.Pos == c {
						break
					}
					next[tid], stop = k, c+1
				}
				for pos := c; pos < stop; pos++ {
					gp[pos] = int32(g)
					global[g] = Ref{Tid: int32(tid), Pos: pos}
					g++
				}
				cursor[tid] = stop
				progress = true
			}
		}
		if !progress {
			t.Global = global[:g]
			return fmt.Errorf("tracer: cycle in happens-before constraints (%d of %d emitted)", g, total)
		}
	}
	t.Global, t.globalPos = global, gpos
	return nil
}
