// Package tracer implements the dynamic-information collection the slicer
// needs (paper Section 3): per-thread local execution traces with the
// memory addresses and registers defined and used by each instruction,
// the construction of the combined global trace honouring shared-memory
// access order, and the Limited Preprocessing block summaries of Zhang et
// al. that let the backward traversal skip irrelevant trace blocks.
package tracer

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Entry is one executed instruction in a local trace. It is exactly the
// VM's instruction event, retained.
type Entry = vm.InstrEvent

// Ref identifies one entry in a Trace: thread id and position within that
// thread's local trace (position, not the per-thread dynamic index — a
// local trace starts at the region entry, where threads may already have
// executed instructions).
type Ref struct {
	Tid int32
	Pos int32
}

// Trace is the dynamic information collected from one replay of a region:
// per-thread local traces, the shared-memory order edges, and — after
// BuildGlobal — the combined global trace.
type Trace struct {
	Locals   map[int][]Entry
	Edges    []vm.OrderEdge
	FirstIdx map[int]int64 // per-thread Idx of the first traced entry

	// Global is the combined, fully ordered trace (filled by BuildGlobal).
	Global []Ref
	// globalPos maps tid -> local position -> global position.
	globalPos [][]int32

	// SpawnEvent maps a thread id to the ref of the SPAWN instruction
	// that created it, when that spawn happened inside the traced region.
	SpawnEvent map[int]Ref

	// Steps is the run-length table of global region steps: per thread,
	// one row for every run of consecutive instructions it executed
	// without the replay switching threads (see StepRun). The collector
	// fills it on every replay; StepOf recovers any entry's step from it.
	// Gaps is the flight-recorder gap overlay: spans of the region whose
	// events were re-derived by bridging rather than replayed from
	// recorded streams (see provenance.go). It is empty for ordinary
	// full-trace replays.
	Steps map[int][]StepRun
	Gaps  []GapSpan
}

// StepRun is one row of the run-length step table: the thread's entries
// from local position Pos up to its next row carry the consecutive 1-based
// global region steps Step, Step+1, ...
type StepRun struct {
	Pos  int32
	Step int64
}

// Entry returns the trace entry for a ref.
func (t *Trace) Entry(r Ref) *Entry { return &t.Locals[int(r.Tid)][r.Pos] }

// RefOf translates a (tid, per-thread Idx) pair into a Ref, or false when
// the index is outside the traced region.
func (t *Trace) RefOf(tid int, idx int64) (Ref, bool) {
	first, ok := t.FirstIdx[tid]
	if !ok {
		return Ref{}, false
	}
	pos := idx - first
	if pos < 0 || pos >= int64(len(t.Locals[tid])) {
		return Ref{}, false
	}
	return Ref{Tid: int32(tid), Pos: int32(pos)}, true
}

// GlobalPosOf returns the position of ref in the global trace; BuildGlobal
// must have run.
func (t *Trace) GlobalPosOf(r Ref) (int, bool) {
	if uint(r.Tid) >= uint(len(t.globalPos)) {
		return 0, false
	}
	arr := t.globalPos[r.Tid]
	if uint(r.Pos) >= uint(len(arr)) {
		return 0, false
	}
	return int(arr[r.Pos]), true
}

// GlobalPositions returns thread tid's local-to-global position map:
// element pos is the global position of Ref{tid, pos}. BuildGlobal must
// have run; callers must not modify the slice.
func (t *Trace) GlobalPositions(tid int) []int32 {
	if uint(tid) >= uint(len(t.globalPos)) {
		return nil
	}
	return t.globalPos[tid]
}

// ThreadLocals returns the local traces indexed by thread id, nil for
// ids without one, so hot loops can reach entries without map probes.
func (t *Trace) ThreadLocals() [][]Entry {
	n := 0
	for tid := range t.Locals {
		n = max(n, tid+1)
	}
	locals := make([][]Entry, n)
	for tid, l := range t.Locals {
		locals[tid] = l
	}
	return locals
}

// Len returns the total number of traced instructions.
func (t *Trace) Len() int {
	n := 0
	for _, l := range t.Locals {
		n += len(l)
	}
	return n
}

// Collector is the analysis pintool that gathers the trace during a
// replay: attach it as the machine's tracer. Per-thread state lives in
// tid-indexed slices, so recording an instruction costs one append and no
// map lookups; the Trace maps are built once, by Trace.
type Collector struct {
	vm.NopTracer
	locals [][]Entry
	runs   [][]StepRun
	spawn  map[int]Ref
	edges  []vm.OrderEdge
	step   int64 // global region steps observed so far
	cur    int   // tid of the running thread, -1 before the first step
}

// NewCollector creates a collector with no size hint.
func NewCollector() *Collector {
	return &Collector{spawn: make(map[int]Ref), cur: -1}
}

// maxPresize bounds the entries NewRegionCollector reserves up front. A
// schedule read from a pinball file is untrusted input: a region claiming
// more is collected by plain appends, so a tampered count cannot reserve
// memory that the replay never fills.
const maxPresize = 1 << 22

// NewRegionCollector creates a collector for replaying a region with the
// given recorded schedule: each thread's local trace is presized to the
// instructions its quanta grant, and its step table to its scheduling
// runs, so a full replay never regrows either. The sizes are only
// starting capacities; a replay that runs a thread further still appends.
func NewRegionCollector(quanta []vm.Quantum) *Collector {
	c := NewCollector()
	var instrs, runs []int
	total, prev := int64(0), -1
	for _, q := range quanta {
		if q.Count <= 0 || q.Tid < 0 || q.Tid >= vm.MaxThreads {
			continue
		}
		if total += q.Count; total > maxPresize {
			return c
		}
		for len(instrs) <= q.Tid {
			instrs, runs = append(instrs, 0), append(runs, 0)
		}
		instrs[q.Tid] += int(q.Count)
		if q.Tid != prev {
			runs[q.Tid]++
			prev = q.Tid
		}
	}
	c.locals = make([][]Entry, len(instrs))
	c.runs = make([][]StepRun, len(instrs))
	for tid := range instrs {
		c.locals[tid] = make([]Entry, 0, instrs[tid])
		c.runs[tid] = make([]StepRun, 0, runs[tid])
	}
	return c
}

// Trace returns the trace collected so far.
func (c *Collector) Trace() *Trace {
	t := &Trace{
		Locals:     make(map[int][]Entry, len(c.locals)),
		Edges:      c.edges,
		FirstIdx:   make(map[int]int64, len(c.locals)),
		SpawnEvent: c.spawn,
		Steps:      make(map[int][]StepRun, len(c.locals)),
	}
	for tid, l := range c.locals {
		if len(l) == 0 {
			continue
		}
		t.Locals[tid] = l
		t.FirstIdx[tid] = l[0].Idx
		t.Steps[tid] = c.runs[tid]
	}
	return t
}

// OnInstr implements vm.Tracer.
func (c *Collector) OnInstr(ev *Entry) {
	tid := ev.Tid
	for len(c.locals) <= tid {
		c.locals, c.runs = append(c.locals, nil), append(c.runs, nil)
	}
	l := append(c.locals[tid], *ev)
	c.locals[tid] = l
	pos := int32(len(l) - 1)
	c.step++
	if tid != c.cur {
		c.cur = tid
		c.runs[tid] = append(c.runs[tid], StepRun{Pos: pos, Step: c.step})
	}
	if ev.Instr.Op == isa.SPAWN {
		c.spawn[int(ev.Aux)] = Ref{Tid: int32(tid), Pos: pos}
	}
}

// OnOrderEdge implements vm.Tracer.
func (c *Collector) OnOrderEdge(e vm.OrderEdge) {
	c.edges = append(c.edges, e)
}

// Validate checks internal consistency: entries per thread have
// contiguous, increasing Idx values.
func (t *Trace) Validate() error {
	for tid, l := range t.Locals {
		for i := range l {
			if want := t.FirstIdx[tid] + int64(i); l[i].Idx != want {
				return fmt.Errorf("tracer: thread %d entry %d has idx %d, want %d", tid, i, l[i].Idx, want)
			}
		}
	}
	return nil
}
