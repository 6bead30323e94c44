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

	// count[pc] is how many times pc has executed in the current thread
	// so far, so an entry's instance (1-based, the paper's
	// sinstance/einstance notation) is its pc's count once it is counted.
	var count []int32
	for _, tid := range tids {
		local := tr.Locals[tid]
		first := tr.FirstIdx[tid]
		clear(count)

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

		start, startInst := -1, int32(0)
		flush := func(end int, endInst int32) {
			if start < 0 {
				return
			}
			ex := pinball.Exclusion{
				Tid:           tid,
				FromIdx:       first + int64(start),
				ToIdx:         first + int64(end),
				StartPC:       local[start].PC,
				StartInstance: int64(startInst),
				EndPC:         -1,
			}
			if end < len(local) {
				ex.EndPC = local[end].PC
				ex.EndInstance = int64(endInst)
			}
			out = append(out, ex)
			start = -1
		}

		for pos := range local {
			pc := local[pos].PC
			if pc >= int64(len(count)) {
				count = append(count, make([]int32, int(pc)+1-len(count))...)
			}
			count[pc]++
			if mustKeep(pos) {
				flush(pos, count[pc])
			} else if start < 0 {
				start, startInst = pos, count[pc]
			}
		}
		flush(len(local), 0)
	}
	return out
}
