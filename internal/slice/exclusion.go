package slice

import (
	"sort"

	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/tracer"
)

// BuildExclusions converts a slice into the code-exclusion regions that
// drive PinPlay's relogger (paper §4, Figure 6a): for every thread, the
// maximal runs of traced instructions that are not in the slice. Each
// region carries both the paper's [startPc:instance:tid, endPc:instance:tid)
// boundary form and the per-thread dynamic index range used mechanically.
//
// Thread-lifecycle instructions (SPAWN, JOIN, thread-exiting RET) are kept
// out of exclusions even when they are not slice members: skipping them
// would leave the replayed machine without the thread-table and
// synchronisation side effects that register/memory injection cannot
// restore.
func BuildExclusions(tr *tracer.Trace, sl *Slice) []pinball.Exclusion {
	var out []pinball.Exclusion

	tids := make([]int, 0, len(tr.Locals))
	for tid := range tr.Locals {
		tids = append(tids, tid)
	}
	sort.Ints(tids)

	for _, tid := range tids {
		local := tr.Locals[tid]
		first := tr.FirstIdx[tid]

		// instance[pos] = how many times this entry's pc has executed in
		// this thread up to and including this entry (1-based), matching
		// the paper's sinstance/einstance notation.
		instOf := make(map[int64]int64)
		instances := make([]int64, len(local))
		for pos := range local {
			instOf[local[pos].PC]++
			instances[pos] = instOf[local[pos].PC]
		}

		mustKeep := func(pos int) bool {
			e := &local[pos]
			switch e.Instr.Op {
			case isa.SPAWN, isa.JOIN, isa.WAIT, isa.SIGNAL:
				return true
			case isa.RET:
				if e.NextPC == -1 { // thread exit
					return true
				}
			case isa.HALT:
				return true
			}
			return sl.Contains(tracer.Ref{Tid: int32(tid), Pos: int32(pos)})
		}

		start := -1
		flush := func(end int) {
			if start < 0 {
				return
			}
			ex := pinball.Exclusion{
				Tid:           tid,
				FromIdx:       first + int64(start),
				ToIdx:         first + int64(end),
				StartPC:       local[start].PC,
				StartInstance: instances[start],
			}
			if end < len(local) {
				ex.EndPC = local[end].PC
				ex.EndInstance = instances[end]
			} else {
				ex.EndPC = -1
				ex.EndInstance = 0
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
