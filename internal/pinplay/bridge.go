package pinplay

import (
	"errors"
	"fmt"

	"repro/internal/fnv1a"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/tracer"
	"repro/internal/vm"
)

// Gap-bridging replay. A flight-recorder pinball has holes: windows the
// ring evicted, each survived only by its step span and windowed event
// hash. Replaying such a pinball cannot feed the recorded streams back
// (they are gone for the gaps) — instead the bridge re-executes the whole
// region natively from the pinball's initial state with the recipe's
// resumed scheduler and environment, which reproduces the original
// execution deterministically. The re-derivation is then proved, not
// assumed: every divergence checkpoint is validated en route, and each
// evicted window's re-derived event hash is compared against the retained
// one. A mismatch is a typed outcome — BridgeError under the strict
// policy, an "estimated" window under ReplayOptions.BridgeEstimates —
// never a silently wrong answer.

// ErrBridge marks gap-bridge verification failures: the re-derived
// content of an evicted window did not match its retained divergence
// hash. Bridge errors wrap both ErrReplay and ErrBridge.
var ErrBridge = errors.New("gap bridge verification failed")

// BridgeError is the typed verification failure for one evicted window.
type BridgeError struct {
	Ev   pinball.Eviction
	Want uint64
	Got  uint64
}

func (e *BridgeError) Error() string {
	return fmt.Sprintf("pinplay: gap bridge verification failed: %v re-derived with hash %016x", e.Ev, e.Got)
}

// Is makes errors.Is match both ErrReplay and ErrBridge.
func (e *BridgeError) Is(target error) bool { return target == ErrReplay || target == ErrBridge }

// BridgeReport summarises a gap-bridging replay.
type BridgeReport struct {
	Windows   int   // evicted windows bridged
	GapInstrs int64 // instructions re-derived by re-execution
	Exact     int   // windows whose re-derived hash matched the retained one
	// Estimated lists the windows whose verification failed but which the
	// BridgeEstimates policy let the replay carry as estimated content.
	Estimated []pinball.Eviction
}

// Degraded reports whether any bridged window failed verification.
func (b *BridgeReport) Degraded() bool { return b != nil && len(b.Estimated) > 0 }

// GapSpans returns the trace overlay for the gapped pinball pb that this
// report bridged: one span per evicted window, marked estimated when the
// window's verification failed. Slices tag every dependence crossing one.
func (b *BridgeReport) GapSpans(pb *pinball.Pinball) []tracer.GapSpan {
	est := make(map[int64]bool, len(b.Estimated))
	for _, e := range b.Estimated {
		est[e.ID] = true
	}
	gaps := make([]tracer.GapSpan, 0, len(pb.Evictions))
	for _, e := range pb.Evictions {
		gaps = append(gaps, tracer.GapSpan{From: e.FromStep, To: e.ToStep, Estimated: est[e.ID]})
	}
	return gaps
}

// primedScheduler replays the recipe's in-flight quantum first, then
// hands over to the resumed scheduler. A recording region rarely starts
// on a quantum boundary, but a machine rebuilt from a snapshot always
// asks for a fresh scheduling decision — without the priming, the bridge
// would preempt earlier than the original execution did.
type primedScheduler struct {
	first vm.Quantum
	used  bool
	next  vm.Scheduler
}

func (s *primedScheduler) Pick(runnable []int) (int, int64) {
	if !s.used {
		s.used = true
		for _, tid := range runnable {
			if tid == s.first.Tid {
				return s.first.Tid, s.first.Count
			}
		}
	}
	return s.next.Pick(runnable)
}

// gapHasher recomputes, during the bridge run, the windowed FNV-1a event
// hash over each evicted window's step span — the same fold the recorder
// applied when it sealed the window.
type gapHasher struct {
	vm.NopTracer
	evs  []pinball.Eviction
	pos  int
	step int64
	h    uint64
	got  []uint64
	done []bool
}

func newGapHasher(evs []pinball.Eviction) *gapHasher {
	return &gapHasher{evs: evs, h: fnv1a.Offset, got: make([]uint64, len(evs)), done: make([]bool, len(evs))}
}

func (g *gapHasher) OnInstr(ev *vm.InstrEvent) {
	g.step++
	if g.pos >= len(g.evs) {
		return
	}
	e := g.evs[g.pos]
	if g.step <= e.FromStep {
		return
	}
	g.h = foldEvent(g.h, ev)
	if g.step == e.ToStep {
		g.got[g.pos], g.done[g.pos] = g.h, true
		g.h = fnv1a.Offset
		g.pos++
	}
}

// bridgeMachine builds the native re-execution machine for a gapped
// pinball: state restored, scheduler and environment resumed from the
// recipe.
func bridgeMachine(prog *isa.Program, pb *pinball.Pinball) *vm.Machine {
	rc := pb.Recipe
	var sched vm.Scheduler = vm.ResumeRandomScheduler(rc.SchedState, rc.MeanQ)
	if rc.CurLeft > 0 {
		sched = &primedScheduler{first: vm.Quantum{Tid: rc.CurTid, Count: rc.CurLeft}, next: sched}
	}
	env := vm.ResumeNativeEnv(rc.EnvInput, vm.EnvState{
		InputPos: int(rc.EnvPos), RandState: rc.EnvRand, Clock: rc.EnvClock,
	})
	return vm.NewFromState(prog, pb.State, vm.Config{Sched: sched, Env: env})
}

// BridgePinball materialises a gapped pinball into a complete one: the
// bridge run regenerates the full schedule, syscall and order-edge
// streams, which replace the retained fragments. The returned pinball has
// no evictions and replays like any other; the report says which windows
// verified exactly and which are estimated (the BridgeEstimates policy is
// implied — callers that want strict verification use ReplayWith). The
// caller decides what estimated content means for its analysis: the
// session layer maps it to estimated slice provenance.
func BridgePinball(prog *isa.Program, pb *pinball.Pinball, opts ReplayOptions) (*pinball.Pinball, *BridgeReport, error) {
	if !pb.Gapped() {
		return pb, &BridgeReport{}, nil
	}
	rec := &recordTracer{}
	if opts.Tracer != nil {
		opts.Tracer = vm.MultiTracer{rec, opts.Tracer}
	} else {
		opts.Tracer = rec
	}
	opts.BridgeEstimates = true
	c := NewCursor(prog, pb, opts)
	if err := c.Run(); err != nil {
		return nil, c.bridge, err
	}
	out := *pb
	out.Quanta = append([]vm.Quantum(nil), c.Machine().Quanta()...)
	out.Syscalls = rec.syscalls
	out.OrderEdges = rec.edges
	out.Evictions = nil
	out.Recipe = nil
	if err := out.Validate(); err != nil {
		return nil, c.bridge, fmt.Errorf("%w: bridged pinball is inconsistent: %v", ErrReplay, err)
	}
	return &out, c.bridge, nil
}
