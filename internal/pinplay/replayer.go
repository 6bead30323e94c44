package pinplay

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/vm"
)

// ErrReplay is the sentinel all replay failures wrap: checkpoint
// divergences, terminal instruction-count mismatches and executions cut
// off by a limit. Tools classify "replay went wrong" (versus "pinball
// unreadable", the pinball.Err* family) with errors.Is(err, ErrReplay).
var ErrReplay = errors.New("replay failed")

// ErrLimit marks replays cut off by an execution limit (instruction
// budget, deadline, memory cap or cancellation) rather than by a real
// divergence. Limit errors wrap both ErrReplay and ErrLimit, so
// errors.Is(err, ErrLimit) distinguishes "ran out of budget" from "the
// replay went wrong" — the supervisor fails fast on the former instead
// of retrying a deterministic exhaustion.
var ErrLimit = errors.New("execution limit hit")

// ReplayOptions configures a replay beyond the bare defaults: an
// observing tracer, the divergence-checkpoint policy and execution
// limits so a tampered pinball can never hang the caller.
type ReplayOptions struct {
	// Tracer observes the replayed execution (how analysis pintools such
	// as the slicer attach). Optional.
	Tracer vm.Tracer
	// Degraded switches checkpoint validation from fail-fast to
	// log-and-continue: divergences are recorded in the report (and
	// OnDivergence fires) but the replay runs to the end of the region.
	Degraded bool
	// NoVerify disables checkpoint validation entirely.
	NoVerify bool
	// OnDivergence, if set, is called for every divergent window found.
	OnDivergence func(Divergence)
	// Limits bounds the replay (instruction budget, wall-clock deadline,
	// memory cap, cancellation). The zero value imposes no bounds.
	// Gap-bridging replays additionally clamp the instruction budget to
	// the recorded region length, so a tampered recipe cannot hang them.
	Limits vm.Limits
	// BridgeEstimates switches gap-bridge hash verification from fail-fast
	// (BridgeError) to carry-on: windows whose re-derived hash mismatches
	// are listed as estimated in the bridge report and the replay
	// completes. Checkpoint divergences still follow the Degraded policy.
	BridgeEstimates bool
}

// ReplayReport summarises what a replay verified.
type ReplayReport struct {
	Executed    int64
	Checked     int // checkpoints compared
	Divergences []Divergence
	// Bridge is set when the pinball had evicted windows and the replay
	// ran as a gap bridge.
	Bridge *BridgeReport
}

// NewReplayMachine builds a machine that runs off a pinball: initial
// state restored, schedule and syscall results fed from the capture. The
// optional tracer observes the replayed execution (this is how analysis
// pintools such as the slicer attach).
func NewReplayMachine(prog *isa.Program, pb *pinball.Pinball, tracer vm.Tracer) *vm.Machine {
	m := vm.NewFromState(prog, pb.State, vm.Config{
		Sched:  vm.NewReplayScheduler(pb.Quanta),
		Env:    vm.NewReplayEnv(pb.Syscalls),
		Tracer: tracer,
	})
	return m
}

// newValidatedMachine builds the replay machine with the checkpoint
// validator (when the pinball carries checkpoints and the policy allows)
// chained in front of the caller's tracer, and the limits applied.
func newValidatedMachine(prog *isa.Program, pb *pinball.Pinball, opts ReplayOptions) (*vm.Machine, *checkpointValidator) {
	m := NewReplayMachine(prog, pb, nil)
	var v *checkpointValidator
	if !opts.NoVerify {
		v = newValidator(m, pb, opts.Degraded, opts.OnDivergence)
	}
	switch {
	case v != nil && opts.Tracer != nil:
		m.SetTracer(vm.MultiTracer{v, opts.Tracer})
	case v != nil:
		// The validator consumes no order edges; skip the per-access
		// bookkeeping that only exists to produce them.
		m.SetTracer(v)
		m.SetOrderTracking(false)
	case opts.Tracer != nil:
		m.SetTracer(opts.Tracer)
	}
	m.SetLimits(opts.Limits)
	return m, v
}

// limitErr converts a limit-triggered stop into a typed replay error
// wrapping both ErrReplay and ErrLimit.
func limitErr(m *vm.Machine, executed, total int64) error {
	return fmt.Errorf("%w: %w: %v after %d of %d instructions", ErrReplay, ErrLimit, m.Stopped(), executed, total)
}

// Replay deterministically re-executes the pinball's region to its end
// and returns the machine in its end-of-region state. The replay stops
// exactly after the recorded number of instructions, or earlier if the
// region ends in the recorded failure. Divergence checkpoints recorded
// in the pinball are validated along the way.
func Replay(prog *isa.Program, pb *pinball.Pinball, tracer vm.Tracer) (*vm.Machine, error) {
	m, _, err := ReplayWith(prog, pb, ReplayOptions{Tracer: tracer})
	return m, err
}

// ReplayWith is Replay with full control over validation policy, limits
// and observation, returning the verification report.
func ReplayWith(prog *isa.Program, pb *pinball.Pinball, opts ReplayOptions) (*vm.Machine, *ReplayReport, error) {
	if pb.Kind == pinball.KindSlice {
		return ReplaySliceWith(prog, pb, opts)
	}
	if pb.Gapped() {
		// Flight-recorder pinball: the recorded streams have holes, so the
		// replay runs as a verified native re-execution instead.
		return replayBridged(prog, pb, opts)
	}
	m, v := newValidatedMachine(prog, pb, opts)
	total := pb.TotalQuantumInstrs()
	var executed int64
	rep := &ReplayReport{}
	for executed < total && m.StepOne() {
		executed++
		if d := v.failed(); d != nil {
			rep.Executed = executed
			rep.Checked, rep.Divergences = v.report()
			return m, rep, &DivergenceError{Div: *d}
		}
	}
	earlyFailure := executed < total && m.Stopped() == vm.StopFailure && pb.Failure != nil
	if !m.Stopped().LimitStop() {
		// Checkpoints unreached because a limit cut the replay short are
		// expected, not divergence — skip the end-of-replay check then.
		v.finish(earlyFailure)
	}
	rep.Executed = executed
	rep.Checked, rep.Divergences = v.report()
	if d := v.failed(); d != nil {
		return m, rep, &DivergenceError{Div: *d}
	}
	if executed < total {
		// The region legitimately ends early only at the recorded
		// failure (a failing assert is counted in the quanta).
		if earlyFailure {
			return m, rep, nil
		}
		if m.Stopped().LimitStop() {
			return m, rep, limitErr(m, executed, total)
		}
		return m, rep, fmt.Errorf("%w: executed %d of %d instructions (stop: %v)",
			ErrReplay, executed, total, m.Stopped())
	}
	// A region that ends in a machine fault (bad memory access, divide by
	// zero, ...) does not count the faulting instruction in its quanta;
	// take the one extra deterministic step to reproduce the fault.
	if pb.Failure != nil && m.Running() {
		m.StepOne()
	}
	return m, rep, nil
}

// ReplaySlice re-executes a slice pinball: the recorded quanta only cover
// the instructions inside the execution slice, and each skipped exclusion
// region's side effects are injected at its recorded position.
func ReplaySlice(prog *isa.Program, pb *pinball.Pinball, tracer vm.Tracer) (*vm.Machine, error) {
	m, _, err := ReplaySliceWith(prog, pb, ReplayOptions{Tracer: tracer})
	return m, err
}

// ReplaySliceWith is ReplaySlice with validation policy, limits and the
// verification report.
func ReplaySliceWith(prog *isa.Program, pb *pinball.Pinball, opts ReplayOptions) (*vm.Machine, *ReplayReport, error) {
	r := NewSliceRunnerWith(prog, pb, opts)
	for {
		ok, err := r.Step()
		if err != nil {
			return r.Machine(), r.Report(), err
		}
		if !ok {
			return r.Machine(), r.Report(), nil
		}
	}
}

// SliceRunner replays a slice pinball one instruction at a time, applying
// pending side-effect injections between instructions. The debugger's
// slice-stepping commands drive it directly.
type SliceRunner struct {
	m        *vm.Machine
	pb       *pinball.Pinball
	v        *checkpointValidator
	inj      []pinball.Injection
	executed int64
	total    int64
	finished bool
}

// NewSliceRunner prepares a slice replay with default options.
func NewSliceRunner(prog *isa.Program, pb *pinball.Pinball, tracer vm.Tracer) *SliceRunner {
	return NewSliceRunnerWith(prog, pb, ReplayOptions{Tracer: tracer})
}

// NewSliceRunnerWith prepares a slice replay with validation policy and
// limits.
func NewSliceRunnerWith(prog *isa.Program, pb *pinball.Pinball, opts ReplayOptions) *SliceRunner {
	m, v := newValidatedMachine(prog, pb, opts)
	return &SliceRunner{
		m:     m,
		pb:    pb,
		v:     v,
		inj:   pb.Injections,
		total: pb.TotalQuantumInstrs(),
	}
}

// Machine exposes the machine being driven, for state examination.
func (r *SliceRunner) Machine() *vm.Machine { return r.m }

// Executed returns how many slice instructions have run.
func (r *SliceRunner) Executed() int64 { return r.executed }

// Done reports whether the slice replay has completed.
func (r *SliceRunner) Done() bool {
	return r.executed >= r.total || !r.m.Running()
}

// Report returns what the replay has verified so far.
func (r *SliceRunner) Report() *ReplayReport {
	rep := &ReplayReport{Executed: r.executed}
	rep.Checked, rep.Divergences = r.v.report()
	return rep
}

// Step applies due injections and executes one instruction. It returns
// false when the replay is complete (end of slice, or the recorded
// failure). An unexpected early stop is a divergence error.
func (r *SliceRunner) Step() (bool, error) {
	for len(r.inj) > 0 && r.inj[0].AtStep == r.executed {
		applyInjection(r.m, &r.inj[0])
		r.inj = r.inj[1:]
	}
	if r.executed >= r.total {
		if !r.finished {
			r.finished = true
			r.v.finish(false)
			if d := r.v.failed(); d != nil {
				return false, &DivergenceError{Div: *d}
			}
			// Reproduce a trailing machine fault (not counted in quanta).
			if r.pb.Failure != nil && r.m.Running() && r.executed == r.total {
				r.executed++ // take the extra step exactly once
				r.m.StepOne()
			}
		}
		return false, nil
	}
	if !r.m.StepOne() {
		if r.m.Stopped() == vm.StopFailure && r.pb.Failure != nil {
			r.finished = true
			r.v.finish(true)
			if d := r.v.failed(); d != nil {
				return false, &DivergenceError{Div: *d}
			}
			return false, nil
		}
		if r.m.Stopped().LimitStop() {
			return false, limitErr(r.m, r.executed, r.total)
		}
		return false, fmt.Errorf("%w: slice replay diverged at %d of %d (stop: %v)",
			ErrReplay, r.executed, r.total, r.m.Stopped())
	}
	r.executed++
	if d := r.v.failed(); d != nil {
		return false, &DivergenceError{Div: *d}
	}
	return true, nil
}

// applyInjection restores the side effects of one skipped code region:
// register file, continuation pc and the region's memory writes.
func applyInjection(m *vm.Machine, in *pinball.Injection) {
	t := m.Threads[in.Tid]
	t.Regs = in.Regs
	t.PC = in.NewPC
	t.Count = in.NewCount
	for _, w := range in.Mem {
		m.Mem.Write(w.Addr, w.Val)
	}
}

// CheckReplayDeterminism replays the pinball twice and verifies that both
// replays end in identical memory and output — the repeatability
// guarantee cyclic debugging relies on. It returns an error describing
// the first difference.
func CheckReplayDeterminism(prog *isa.Program, pb *pinball.Pinball) error {
	m1, err := Replay(prog, pb, nil)
	if err != nil {
		return err
	}
	m2, err := Replay(prog, pb, nil)
	if err != nil {
		return err
	}
	if !m1.Snapshot().Mem.Equal(m2.Snapshot().Mem) {
		return fmt.Errorf("pinplay: replays reached different memory states")
	}
	o1, o2 := m1.Output(), m2.Output()
	if len(o1) != len(o2) {
		return fmt.Errorf("pinplay: replays produced different outputs")
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			return fmt.Errorf("pinplay: replay outputs differ at %d", i)
		}
	}
	return nil
}
