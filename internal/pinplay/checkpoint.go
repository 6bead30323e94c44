package pinplay

import (
	"fmt"
	"strings"

	"repro/internal/fnv1a"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/vm"
)

// Divergence checkpoints (after rr's early-divergence checks): while
// logging, a rolling hash of each thread's instruction stream — pc,
// per-thread index, effective address, value moved, control target — is
// folded instruction by instruction, and every CheckpointEvery
// instructions — plus once more at region end for the thread's trailing
// partial window — the hash plus the thread's full register file and pc
// are recorded into the pinball. Replay recomputes the identical fold and
// compares at each checkpoint, so a divergent replay is caught inside
// the first bad window of at most CheckpointEvery instructions instead
// of as a terminal instruction-count mismatch (or, worse, a silently
// wrong end state).
//
// The hash is windowed: it restarts from the FNV offset after every
// checkpoint, so each recorded hash covers exactly one window. Windows
// are therefore independent — a divergence (or a tampered checkpoint
// record) is reported once per bad window and cannot cascade into later
// ones, which is what makes degraded log-and-continue mode useful.

// foldEvent extends a thread's rolling hash with one executed
// instruction. The folded fields pin down the thread's control path and
// data movement; the register file itself is compared (not hashed) at
// checkpoint boundaries.
func foldEvent(h uint64, ev *vm.InstrEvent) uint64 {
	h = fnv1a.Fold(h, ev.PC)
	h = fnv1a.Fold(h, ev.Idx)
	h = fnv1a.Fold(h, ev.EffAddr)
	if ev.EffAddr >= 0 {
		h = fnv1a.Fold(h, ev.MemVal)
	}
	h = fnv1a.Fold(h, ev.NextPC)
	return h
}

// threadHash is one thread's rolling state on either side (record or
// validate).
type threadHash struct {
	h    uint64
	n    int64 // region instructions this thread has executed
	left int64 // instructions until the next checkpoint (validator: < 0 = none left)
	pos  int   // validator: cursor into cps
	cps  []pinball.Checkpoint

	lastIdx  int64 // per-thread index after the last good checkpoint
	lastStep int64 // global step of the last good checkpoint

	idx, at int64 // recorder: last observed instruction's Idx and Step
}

// checkpointer records checkpoints during logging (and, for slice
// pinballs, during relogging — where it observes included instructions
// only, so the cadence is in slice instructions).
type checkpointer struct {
	m       *vm.Machine
	every   int64
	step    int64
	threads []*threadHash // indexed by tid; nil until the thread executes
	cps     []pinball.Checkpoint
}

func newCheckpointer(m *vm.Machine, every int64) *checkpointer {
	return &checkpointer{m: m, every: every, threads: make([]*threadHash, vm.MaxThreads)}
}

func (c *checkpointer) observe(ev *vm.InstrEvent) {
	th := c.threads[ev.Tid]
	if th == nil {
		th = &threadHash{h: fnv1a.Offset, left: c.every}
		c.threads[ev.Tid] = th
	}
	th.h = foldEvent(th.h, ev)
	th.n++
	c.step++
	th.idx, th.at = ev.Idx, c.step
	if th.left--; th.left == 0 {
		c.emit(ev.Tid)
	}
}

// emit closes thread tid's window at its last observed instruction with
// the thread's registers and pc as they are now.
func (c *checkpointer) emit(tid int) {
	th, t := c.threads[tid], c.m.Threads[tid]
	c.cps = append(c.cps, pinball.Checkpoint{
		Tid: tid, Seq: th.n, Idx: th.idx, Step: th.at,
		Hash: th.h, PC: t.PC, Regs: t.Regs,
	})
	th.left = c.every
	th.h = fnv1a.Offset // windowed: the next checkpoint hashes afresh
}

// seal emits the open (partial) window of thread tid, or with tid < 0
// of every thread, so a thread's trailing instructions are verified too.
// A thread's registers change only when it runs, so they are read now.
func (c *checkpointer) seal(tid int) {
	for t, th := range c.threads {
		if (tid < 0 || t == tid) && th != nil && th.left != c.every {
			c.emit(t)
		}
	}
}

// RegDiff is one mismatching register at a failed checkpoint.
type RegDiff struct {
	Reg       isa.Reg
	Want, Got int64
}

// Divergence pins a replay divergence down to the first bad window: the
// replayed execution matched the recording at (FromStep, FromIdx) and no
// longer matches at (ToStep, ToIdx), with the register and control
// differences observed at the failed checkpoint. When the registers and
// pc agree but the rolling hash does not, the divergence is in the
// memory/control trace between the two checkpoints (MemTrace).
type Divergence struct {
	Tid      int
	FromStep int64 // last matching checkpoint, global region step (0 = region entry)
	ToStep   int64 // failed checkpoint, global region step
	FromIdx  int64 // last matching checkpoint, per-thread index (−1 = region entry)
	ToIdx    int64 // failed checkpoint, per-thread index

	WantHash, GotHash uint64
	WantPC, GotPC     int64
	RegDiffs          []RegDiff
	MemTrace          bool
}

// Window formats the divergent window in the paper's step notation.
func (d Divergence) Window() string {
	return fmt.Sprintf("thread %d, steps [%d, %d), per-thread instructions (%d, %d]",
		d.Tid, d.FromStep, d.ToStep, d.FromIdx, d.ToIdx)
}

func (d Divergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "first divergent window: %s", d.Window())
	if d.WantPC != d.GotPC {
		fmt.Fprintf(&b, "; pc %d, recorded %d", d.GotPC, d.WantPC)
	}
	for i, rd := range d.RegDiffs {
		if i == 4 {
			fmt.Fprintf(&b, "; … %d more registers differ", len(d.RegDiffs)-i)
			break
		}
		fmt.Fprintf(&b, "; r%d=%d, recorded %d", rd.Reg, rd.Got, rd.Want)
	}
	if d.MemTrace {
		fmt.Fprintf(&b, "; memory/control trace hash %016x, recorded %016x", d.GotHash, d.WantHash)
	}
	return b.String()
}

// DivergenceError is the typed replay-divergence failure; it wraps
// ErrReplay so callers can classify with errors.Is and recover the
// window with errors.As.
type DivergenceError struct {
	Div Divergence
}

func (e *DivergenceError) Error() string {
	return "pinplay: replay diverged: " + e.Div.String()
}

// Is makes errors.Is(err, ErrReplay) match.
func (e *DivergenceError) Is(target error) bool { return target == ErrReplay }

// checkpointValidator replays the rolling-hash fold and compares against
// the pinball's recorded checkpoints. It is attached as a tracer, and
// pauses the machine when it records a fatal divergence so the replay
// stops right after the instruction that closed the bad window.
type checkpointValidator struct {
	vm.NopTracer
	m       *vm.Machine
	pb      *pinball.Pinball
	threads []*threadHash // indexed by tid; nil until needed
	step    int64

	warnOnly bool
	onDiv    func(Divergence)

	divs    []Divergence
	checked int
	fatal   *Divergence
}

// newValidator builds a validator for pb's checkpoints, or returns nil
// when the pinball has none (checkpointing was disabled).
func newValidator(m *vm.Machine, pb *pinball.Pinball, warnOnly bool, onDiv func(Divergence)) *checkpointValidator {
	if len(pb.Checkpoints) == 0 {
		return nil
	}
	v := &checkpointValidator{
		m: m, pb: pb, threads: make([]*threadHash, vm.MaxThreads),
		warnOnly: warnOnly, onDiv: onDiv,
	}
	for _, cp := range pb.Checkpoints {
		th := v.thread(cp.Tid)
		th.cps = append(th.cps, cp)
	}
	for _, th := range v.threads {
		if th != nil {
			th.aim()
		}
	}
	return v
}

// aim points the countdown at the thread's next recorded checkpoint. A
// checkpoint whose Seq the thread has already passed is never reached,
// which the end-of-replay check reports.
func (th *threadHash) aim() {
	th.left = -1
	if th.pos < len(th.cps) {
		th.left = th.cps[th.pos].Seq - th.n
	}
}

// thread returns tid's state, creating it on first use.
func (v *checkpointValidator) thread(tid int) *threadHash {
	th := v.threads[tid]
	if th == nil {
		th = &threadHash{h: fnv1a.Offset, lastIdx: -1}
		v.threads[tid] = th
	}
	return th
}

func (v *checkpointValidator) OnInstr(ev *vm.InstrEvent) {
	th := v.threads[ev.Tid]
	if th == nil {
		th = v.thread(ev.Tid)
	}
	th.h = foldEvent(th.h, ev)
	th.n++
	v.step++
	if th.left--; th.left == 0 {
		v.compare(th, ev)
	}
}

// compare checks the replay against th's next recorded checkpoint, which
// ev has just reached. It is kept out of OnInstr so the per-instruction
// path stays small.
func (v *checkpointValidator) compare(th *threadHash, ev *vm.InstrEvent) {
	cp := &th.cps[th.pos]
	th.pos++
	th.aim()
	v.checked++
	t := v.m.Threads[ev.Tid]
	got := th.h
	th.h = fnv1a.Offset // windowed: the next checkpoint hashes afresh
	if got == cp.Hash && t.PC == cp.PC && t.Regs == cp.Regs && ev.Idx == cp.Idx {
		th.lastIdx, th.lastStep = cp.Idx, cp.Step
		return
	}
	d := Divergence{
		Tid:      ev.Tid,
		FromStep: th.lastStep, ToStep: v.step,
		FromIdx: th.lastIdx, ToIdx: ev.Idx,
		WantHash: cp.Hash, GotHash: got,
		WantPC: cp.PC, GotPC: t.PC,
	}
	for r := 0; r < isa.NumRegs; r++ {
		if t.Regs[r] != cp.Regs[r] {
			d.RegDiffs = append(d.RegDiffs, RegDiff{Reg: isa.Reg(r), Want: cp.Regs[r], Got: t.Regs[r]})
		}
	}
	d.MemTrace = got != cp.Hash && len(d.RegDiffs) == 0 && d.WantPC == d.GotPC
	v.record(d)
	// Resynchronise the window baseline so degraded mode reports each
	// divergent window once instead of cascading.
	th.lastIdx, th.lastStep = cp.Idx, cp.Step
}

// record registers a divergence under the active policy.
func (v *checkpointValidator) record(d Divergence) {
	v.divs = append(v.divs, d)
	if v.onDiv != nil {
		v.onDiv(d)
	}
	if !v.warnOnly && v.fatal == nil {
		v.fatal = &v.divs[len(v.divs)-1]
		v.m.Pause()
	}
}

// failed returns the fatal divergence under the abort policy, else nil.
func (v *checkpointValidator) failed() *Divergence {
	if v == nil {
		return nil
	}
	return v.fatal
}

// finish performs the end-of-replay check: checkpoints that were never
// reached mean the replay fell short of the recorded execution (e.g. a
// tampered, shortened schedule). The lowest such thread is reported.
// earlyFailure indicates the replay legitimately stopped at the recorded
// failure, where trailing checkpoints past the failure point cannot be
// reached.
func (v *checkpointValidator) finish(earlyFailure bool) {
	if v == nil || earlyFailure {
		return
	}
	for tid, th := range v.threads {
		if th != nil && th.pos < len(th.cps) {
			cp := th.cps[th.pos]
			v.record(Divergence{
				Tid:      tid,
				FromStep: th.lastStep, ToStep: cp.Step,
				FromIdx: th.lastIdx, ToIdx: cp.Idx,
				WantHash: cp.Hash, GotHash: th.h,
				WantPC: cp.PC, GotPC: -1,
				MemTrace: false,
			})
			return
		}
	}
}

// report converts the validator state into the replay report fields.
func (v *checkpointValidator) report() (checked int, divs []Divergence) {
	if v == nil {
		return 0, nil
	}
	return v.checked, v.divs
}
