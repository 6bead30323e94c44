package pinplay

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/vm"
)

// Cursor is the one forward replay loop every replay path drives: full
// and slice replays, prefix replays for degraded recovery, gap bridging,
// relogging, slice stepping and reverse debugging. It is built once per
// pinball and owns the replay machine, the checkpoint validator, the
// pending slice injections and, for a flight-recorder pinball with
// evicted windows, the gap bridge.
//
// The position is the number of region instructions executed so far. An
// instruction that executed counts even if it stopped the machine (a
// failing assert is counted in the quanta); a faulting instruction never
// executes, so it never counts.
type Cursor struct {
	pb  *pinball.Pinball
	m   *vm.Machine
	env *vm.ReplayEnv // nil while bridging
	v   *checkpointValidator

	// Gap bridging (pb.Gapped()): the evicted windows' re-derived hashes
	// and the report they settle into at the end of the region.
	gh        *gapHasher
	bridge    *BridgeReport
	estimates bool

	base int64 // machine step count at region entry
	end  int64 // region length
	inj  int   // next pending slice injection

	finished bool
	finErr   error
}

// NewCursor prepares a replay of pb at region entry. A gapped pinball
// replays as a gap bridge: a verified native re-execution from the
// recipe, with the instruction budget clamped to the region length plus
// the trailing-fault step so that a tampered recipe cannot run away. The
// checkpoint validator (unless opts.NoVerify) is chained in front of
// opts.Tracer.
func NewCursor(prog *isa.Program, pb *pinball.Pinball, opts ReplayOptions) *Cursor {
	c := &Cursor{pb: pb, base: pb.State.Steps, end: pb.TotalQuantumInstrs(), estimates: opts.BridgeEstimates}
	var tracers vm.MultiTracer
	if pb.Gapped() {
		c.m = bridgeMachine(prog, pb)
		c.gh = newGapHasher(pb.Evictions)
		c.bridge = &BridgeReport{Windows: len(pb.Evictions), GapInstrs: pb.GapInstrs()}
		c.end = pb.RegionInstrs
		tracers = append(tracers, c.gh)
		if opts.Limits.Steps <= 0 || opts.Limits.Steps > c.end+1 {
			opts.Limits.Steps = c.end + 1
		}
	} else {
		c.env = vm.NewReplayEnv(pb.Syscalls)
		c.m = vm.NewFromState(prog, pb.State, vm.Config{Sched: vm.NewReplayScheduler(pb.Quanta), Env: c.env})
	}
	if !opts.NoVerify {
		c.v = newValidator(c.m, pb, opts.Degraded, opts.OnDivergence)
	}
	if c.v != nil {
		tracers = append(tracers, c.v)
	}
	if opts.Tracer != nil {
		tracers = append(tracers, opts.Tracer)
	} else {
		// Nothing consumes order edges; skip the per-access bookkeeping
		// that only exists to produce them.
		c.m.SetOrderTracking(false)
	}
	switch len(tracers) {
	case 0:
	case 1:
		c.m.SetTracer(tracers[0])
	default:
		c.m.SetTracer(tracers)
	}
	c.m.SetLimits(opts.Limits)
	return c
}

// Machine returns the replay machine, for state examination.
func (c *Cursor) Machine() *vm.Machine { return c.m }

// Pos returns the position: region instructions executed so far.
func (c *Cursor) Pos() int64 { return c.m.Steps() - c.base }

// Total returns the region length.
func (c *Cursor) Total() int64 { return c.end }

// Report returns what the replay has verified so far.
func (c *Cursor) Report() *ReplayReport {
	rep := &ReplayReport{Executed: c.Pos(), Bridge: c.bridge}
	rep.Checked, rep.Divergences = c.v.report()
	return rep
}

// Step executes one instruction and reports whether one executed. At the
// end of the region, or once the machine has stopped, it executes
// nothing, runs the end-of-region checks (see Run) and returns false with
// their outcome.
func (c *Cursor) Step() (bool, error) {
	pos := c.Pos()
	if pos < c.end && c.m.Running() {
		c.advance(pos + 1)
		if d := c.v.failed(); d != nil {
			return false, &DivergenceError{Div: *d}
		}
		if c.Pos() > pos {
			return true, nil
		}
	}
	return false, c.finish()
}

// RunTo replays forward to step with prefix semantics: checkpoints inside
// the prefix are validated, nothing past it is expected to be reached,
// and arriving at the recorded failure early is success.
func (c *Cursor) RunTo(step int64) error {
	if pos := c.Pos(); step < pos || step > c.end {
		return fmt.Errorf("pinplay: run to step %d outside [%d, %d]", step, pos, c.end)
	}
	c.advance(step)
	if d := c.v.failed(); d != nil {
		return &DivergenceError{Div: *d}
	}
	if c.Pos() >= step || c.recordedFailure() {
		return nil
	}
	return c.stopErr(step)
}

// Run replays to the end of the region and runs the end-of-region
// checks: checkpoints left unreached, the instruction count, the gap
// bridge's window settlement, and the one extra step that reproduces a
// trailing machine fault (a faulting instruction is not in the quanta).
func (c *Cursor) Run() error {
	c.advance(c.end)
	return c.finish()
}

// advance executes instructions until the position reaches target, the
// machine stops, or the validator flags a fatal divergence (it pauses
// the machine right after the instruction that closed the diverging
// window). Slice injections are applied just before the instruction at
// their AtStep; between them the machine's run loop runs uninterrupted.
func (c *Cursor) advance(target int64) {
	stop := c.base + target
	inj := c.pb.Injections
	for c.m.Running() && c.m.Steps() < stop && c.v.failed() == nil {
		c.inject()
		next := stop
		if c.inj < len(inj) {
			next = min(next, c.base+inj[c.inj].AtStep)
		}
		c.m.RunTo(next)
	}
}

// inject applies the slice injections due at the current position: the
// side effects of a skipped code region — register file, continuation
// pc and the region's memory writes.
func (c *Cursor) inject() {
	pos := c.Pos()
	for ; c.inj < len(c.pb.Injections) && c.pb.Injections[c.inj].AtStep <= pos; c.inj++ {
		in := &c.pb.Injections[c.inj]
		t := c.m.Threads[in.Tid]
		t.Regs = in.Regs
		t.PC = in.NewPC
		t.Count = in.NewCount
		for _, w := range in.Mem {
			c.m.Mem.Write(w.Addr, w.Val)
		}
	}
}

// recordedFailure reports whether the machine stopped at the failure the
// pinball recorded.
func (c *Cursor) recordedFailure() bool {
	return c.m.Stopped() == vm.StopFailure && c.pb.Failure != nil
}

// stopErr classifies a replay that stopped short of target.
func (c *Cursor) stopErr(target int64) error {
	if c.m.Stopped().LimitStop() {
		return fmt.Errorf("%w: %w: %v after %d of %d instructions", ErrReplay, ErrLimit, c.m.Stopped(), c.Pos(), target)
	}
	return fmt.Errorf("%w: executed %d of %d instructions (stop: %v)", ErrReplay, c.Pos(), target, c.m.Stopped())
}

// finish runs the end-of-region checks once; later calls return the
// same outcome.
func (c *Cursor) finish() error {
	if !c.finished {
		c.finished = true
		c.finErr = c.settle()
	}
	return c.finErr
}

func (c *Cursor) settle() error {
	if d := c.v.failed(); d != nil {
		return &DivergenceError{Div: *d}
	}
	// The region legitimately ends early only at the recorded failure,
	// where trailing checkpoints cannot be reached. Checkpoints unreached
	// because a limit cut the replay short are expected, not divergence.
	early := c.Pos() < c.end && c.recordedFailure()
	if !c.m.Stopped().LimitStop() {
		c.v.finish(early)
	}
	if d := c.v.failed(); d != nil {
		return &DivergenceError{Div: *d}
	}
	if c.Pos() < c.end && !early {
		return c.stopErr(c.end)
	}
	if c.m.Running() {
		c.inject()
	}
	if c.gh != nil {
		for i, e := range c.pb.Evictions {
			switch {
			case c.gh.done[i] && c.gh.got[i] == e.Hash:
				c.bridge.Exact++
			case c.estimates:
				c.bridge.Estimated = append(c.bridge.Estimated, e)
			default:
				return &BridgeError{Ev: e, Want: e.Hash, Got: c.gh.got[i]}
			}
		}
	}
	if c.pb.Failure != nil && c.m.Running() {
		c.m.StepOne()
	}
	return nil
}

// CursorState is a saved replay position: the machine state, the
// syscall-log position, the slice-injection index and the validator's
// progress. The schedule position is implied by the instruction
// position.
type CursorState struct {
	pos   int64
	state *vm.MachineState
	env   *vm.ReplayEnv
	inj   int
	v     *checkpointValidator
}

// Pos returns the saved position.
func (s *CursorState) Pos() int64 { return s.pos }

// Snapshot saves the current position. Gap-bridging replays cannot be
// snapshotted: the native scheduler and environment they resume carry
// state the machine snapshot does not hold. A stopped machine cannot be
// either, since its stop is not part of the saved state.
func (c *Cursor) Snapshot() (*CursorState, error) {
	if c.gh != nil {
		return nil, errors.New("pinplay: a gap-bridging replay cannot be snapshotted")
	}
	if !c.m.Running() {
		return nil, fmt.Errorf("pinplay: cannot snapshot a stopped replay (%v)", c.m.Stopped())
	}
	return &CursorState{pos: c.Pos(), state: c.m.Snapshot(), env: c.env.Clone(), inj: c.inj, v: c.v.clone()}, nil
}

// Restore moves the cursor back (or forward) to a saved position of the
// same pinball. The saved state stays reusable.
func (c *Cursor) Restore(s *CursorState) {
	c.m.Restore(s.state)
	c.env = s.env.Clone()
	c.m.SetEnv(c.env)
	c.m.SetScheduler(vm.NewReplayScheduler(scheduleFrom(c.pb.Quanta, s.pos)))
	c.inj = s.inj
	if c.v != nil {
		// In place: the machine's tracer chain holds this validator.
		*c.v = *s.v.clone()
	}
	c.finished, c.finErr = false, nil
}

// scheduleFrom returns the recorded schedule left after pos executed
// instructions.
func scheduleFrom(quanta []vm.Quantum, pos int64) []vm.Quantum {
	for i, q := range quanta {
		if pos < q.Count {
			return append([]vm.Quantum{{Tid: q.Tid, Count: q.Count - pos}}, quanta[i+1:]...)
		}
		pos -= q.Count
	}
	return nil
}

// clone deep-copies the validator's progress; the recorded checkpoints
// are shared read-only.
func (v *checkpointValidator) clone() *checkpointValidator {
	if v == nil {
		return nil
	}
	out := *v
	out.threads = make([]*threadHash, len(v.threads))
	for tid, th := range v.threads {
		if th != nil {
			cp := *th
			out.threads[tid] = &cp
		}
	}
	out.divs = slices.Clone(v.divs)
	if v.fatal != nil {
		f := *v.fatal
		out.fatal = &f
	}
	return &out
}
