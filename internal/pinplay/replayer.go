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
	return vm.NewFromState(prog, pb.State, vm.Config{
		Sched:  vm.NewReplayScheduler(pb.Quanta),
		Env:    vm.NewReplayEnv(pb.Syscalls),
		Tracer: tracer,
	})
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
// and observation, returning the verification report. Slice pinballs
// replay with their side-effect injections; flight-recorder pinballs
// with evicted windows replay as a verified gap bridge.
func ReplayWith(prog *isa.Program, pb *pinball.Pinball, opts ReplayOptions) (*vm.Machine, *ReplayReport, error) {
	c := NewCursor(prog, pb, opts)
	err := c.Run()
	return c.Machine(), c.Report(), err
}

// ReplayToStep replays only the first step instructions of the pinball's
// region and treats arriving there as success: checkpoints inside the
// prefix are still validated, but nothing past the boundary is expected
// to be reached. This is the degraded-recovery primitive — when a full
// replay diverges, the supervisor re-runs the prefix up to the last
// checkpoint that still matched (Divergence.FromStep), handing the
// caller a machine in a known-good state instead of nothing. Slice and
// gapped pinballs replay their prefix the way ReplayWith replays them.
func ReplayToStep(prog *isa.Program, pb *pinball.Pinball, step int64, opts ReplayOptions) (*vm.Machine, *ReplayReport, error) {
	c := NewCursor(prog, pb, opts)
	if step < 0 || step > c.Total() {
		return nil, nil, fmt.Errorf("pinplay: replay-to-step %d outside region of %d instructions", step, c.Total())
	}
	err := c.RunTo(step)
	return c.Machine(), c.Report(), err
}

// ReplaySlice re-executes a slice pinball: the recorded quanta only cover
// the instructions inside the execution slice, and each skipped exclusion
// region's side effects are injected at its recorded position.
func ReplaySlice(prog *isa.Program, pb *pinball.Pinball, tracer vm.Tracer) (*vm.Machine, error) {
	return Replay(prog, pb, tracer)
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
