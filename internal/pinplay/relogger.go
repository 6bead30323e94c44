package pinplay

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/vm"
)

// Relog replays a region pinball while skipping the given per-thread code
// exclusion regions and produces a slice pinball: the new schedule covers
// only the included instructions, and each skipped region is summarised
// as a side-effect injection (its final register file, continuation pc
// and the values, at the region's end, of the memory cells it modified).
// This is PinPlay's relogger with the side-effects detection it uses
// for system calls, applied to excluded code regions (paper Section 4).
//
// The exclusion list must be sorted by (Tid, FromIdx) and non-overlapping
// per thread; slice.BuildExclusions produces it in that form.
func Relog(prog *isa.Program, pb *pinball.Pinball, exclusions []pinball.Exclusion) (*pinball.Pinball, error) {
	return RelogWith(prog, pb, exclusions, ReplayOptions{})
}

// RelogWith is Relog with checkpoint policy and execution limits applied
// to the underlying region replay. The produced slice pinball carries
// fresh divergence checkpoints (over included instructions only, at the
// source pinball's cadence), so slice replays are verified too.
func RelogWith(prog *isa.Program, pb *pinball.Pinball, exclusions []pinball.Exclusion, opts ReplayOptions) (*pinball.Pinball, error) {
	if pb.Kind == pinball.KindSlice {
		return nil, fmt.Errorf("pinplay: cannot relog a slice pinball")
	}
	var perThread [][]pinball.Exclusion
	for _, e := range exclusions {
		if e.FromIdx >= e.ToIdx {
			return nil, fmt.Errorf("pinplay: empty exclusion %v", e)
		}
		if e.Tid < 0 || e.Tid >= vm.MaxThreads {
			return nil, fmt.Errorf("pinplay: exclusion %v names thread %d outside [0, %d)", e, e.Tid, vm.MaxThreads)
		}
		for len(perThread) <= e.Tid {
			perThread = append(perThread, nil)
		}
		lst := perThread[e.Tid]
		if n := len(lst); n > 0 && lst[n-1].ToIdx > e.FromIdx {
			return nil, fmt.Errorf("pinplay: overlapping/unsorted exclusions for thread %d", e.Tid)
		}
		perThread[e.Tid] = append(lst, e)
	}

	rt := &relogTracer{
		perThread: perThread,
		pos:       make([]int, len(perThread)),
		mem:       make([]map[int64]struct{}, len(perThread)),
	}
	opts.Tracer = rt
	c := NewCursor(prog, pb, opts)
	rt.m = c.Machine()
	if pb.CheckpointEvery > 0 {
		rt.ck = newCheckpointer(rt.m, pb.CheckpointEvery)
	}
	if err := c.Run(); err != nil {
		return nil, err
	}
	if rt.ck != nil {
		rt.ck.seal(-1)
	}

	out := &pinball.Pinball{
		ProgramName:  pb.ProgramName,
		Kind:         pinball.KindSlice,
		State:        pb.State,
		Quanta:       rt.quanta,
		Syscalls:     rt.syscalls,
		RegionInstrs: rt.included,
		MainInstrs:   rt.includedMain,
		SkipMain:     pb.SkipMain,
		EndReason:    pb.EndReason,
		Failure:      pb.Failure,
		Exclusions:   exclusions,
		Injections:   rt.injections,
	}
	if rt.ck != nil {
		out.CheckpointEvery = pb.CheckpointEvery
		out.Checkpoints = rt.ck.cps
	}
	return out, nil
}

// relogTracer watches a region replay, classifying every instruction as
// included or excluded, collecting the new schedule and the side-effect
// injections.
type relogTracer struct {
	vm.NopTracer
	m *vm.Machine
	// perThread, pos and mem are indexed by thread id and cover exactly
	// the threads that have exclusions: a replayed instruction of any
	// other thread is included without a lookup.
	perThread [][]pinball.Exclusion
	pos       []int // per-thread cursor into perThread

	// Side-effect detection for the currently open exclusion per thread:
	// the addresses its excluded instructions wrote.
	mem []map[int64]struct{}

	included     int64
	includedMain int64
	quanta       []vm.Quantum
	syscalls     []vm.SyscallRecord
	injections   []pinball.Injection

	// ck hashes the included instructions into fresh checkpoints for the
	// slice pinball (slice replays see exactly this stream).
	ck *checkpointer

	pendingSys []vm.SyscallRecord
}

// exclusionOf returns the exclusion containing idx for tid, advancing the
// per-thread cursor (event idx values are strictly increasing per thread).
func (r *relogTracer) exclusionOf(tid int, idx int64) *pinball.Exclusion {
	if tid >= len(r.perThread) {
		return nil
	}
	lst := r.perThread[tid]
	p := r.pos[tid]
	for p < len(lst) && idx >= lst[p].ToIdx {
		p++
	}
	r.pos[tid] = p
	if p < len(lst) && idx >= lst[p].FromIdx {
		return &lst[p]
	}
	return nil
}

func (r *relogTracer) OnSyscall(rec vm.SyscallRecord) {
	// Classified when the instruction's OnInstr arrives (immediately
	// after, same instruction).
	r.pendingSys = append(r.pendingSys, rec)
}

func (r *relogTracer) OnInstr(ev *vm.InstrEvent) {
	excl := r.exclusionOf(ev.Tid, ev.Idx)
	if excl == nil {
		// Included instruction: extend the slice schedule.
		r.included++
		if ev.Tid == 0 {
			r.includedMain++
		}
		if r.ck != nil {
			r.ck.observe(ev)
			// Excluded instructions never reach the checkpointer: seal the
			// window before the thread's last exclusion, which may run to
			// its end and leave a state the slice replay never reaches.
			if ev.Tid < len(r.perThread) {
				lst, p := r.perThread[ev.Tid], r.pos[ev.Tid]
				if p == len(lst)-1 && lst[p].FromIdx == ev.Idx+1 {
					r.ck.seal(ev.Tid)
				}
			}
		}
		if n := len(r.quanta); n > 0 && r.quanta[n-1].Tid == ev.Tid {
			r.quanta[n-1].Count++
		} else {
			r.quanta = append(r.quanta, vm.Quantum{Tid: ev.Tid, Count: 1})
		}
		for _, s := range r.pendingSys {
			r.syscalls = append(r.syscalls, s)
		}
		r.pendingSys = r.pendingSys[:0]
		return
	}

	// Excluded instruction: detect side effects.
	r.pendingSys = r.pendingSys[:0] // excluded syscalls are not replayed
	if ev.EffAddr >= 0 && ev.MemIsWrite {
		mw := r.mem[ev.Tid]
		if mw == nil {
			mw = make(map[int64]struct{})
			r.mem[ev.Tid] = mw
		}
		mw[ev.EffAddr] = struct{}{}
	}
	if ev.Idx+1 == excl.ToIdx {
		// Last excluded instruction of the region: summarise it as an
		// injection at the current position in the new schedule. Each
		// written cell is injected with the value it holds now, not with
		// this region's last write to it: another thread may have stored
		// to the cell since, and the injection must not undo that store.
		t := r.m.Threads[ev.Tid]
		inj := pinball.Injection{
			AtStep:   r.included,
			Tid:      ev.Tid,
			NewPC:    ev.NextPC,
			NewCount: ev.Idx + 1,
			Regs:     t.Regs,
		}
		mw := r.mem[ev.Tid]
		addrs := make([]int64, 0, len(mw))
		for a := range mw {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			inj.Mem = append(inj.Mem, pinball.MemWrite{Addr: a, Val: r.m.Mem.Read(a)})
		}
		clear(mw)
		r.injections = append(r.injections, inj)
	}
}
