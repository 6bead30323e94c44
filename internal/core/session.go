// Package core is DrDebug's façade: it wires the PinPlay-style
// record/replay system, the dynamic slicer and the execution-slice
// machinery into the cyclic-debugging workflow of the paper (Figure 2):
// capture a buggy region into a pinball, replay it deterministically any
// number of times, compute highly precise dynamic slices during replay,
// turn an interesting slice into a slice pinball, and step through the
// execution slice while examining program state.
package core

import (
	"errors"
	"fmt"

	"repro/internal/dualslice"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/races"
	"repro/internal/slice"
	"repro/internal/supervisor"
	"repro/internal/tracer"
	"repro/internal/vm"
)

// Session is one cyclic-debugging session: a program plus the pinball
// capturing the execution (region) under study. The trace and the
// slicing engine are computed lazily and cached — PinPlay's
// repeatability guarantee makes one trace valid for every replay of the
// same pinball.
type Session struct {
	Prog    *isa.Program
	Pinball *pinball.Pinball

	trace    *tracer.Trace
	parallel *slice.ParallelSlicer
	workers  int
	opts     slice.Options
	limits   vm.Limits
	sup      supervisor.Options

	// Flight-recorder support: a gapped pinball is materialised once into
	// eff by gap-bridging re-execution (BridgePinball); bridge is that
	// run's verification report. Every replay-driven operation then works
	// on the complete effective pinball, and traces/slices carry the gap
	// overlay for provenance tagging.
	eff    *pinball.Pinball
	bridge *pinplay.BridgeReport
}

// SetSupervisor configures the retry/watchdog policy ReplaySupervised
// uses. The zero value is the supervisor's default policy.
func (s *Session) SetSupervisor(o supervisor.Options) { s.sup = o }

// SetLimits bounds every replay the session performs (trace collection,
// relogging, Replay): instruction budget, wall-clock deadline, memory
// cap, cancellation. The zero value imposes no bounds. A trace taken
// from the engine cache (see Trace) replays nothing and so consumes
// none of the budget.
func (s *Session) SetLimits(l vm.Limits) { s.limits = l }

// RecordRegion captures an execution region into a pinball (fast-forward
// SkipMain, record LengthMain main-thread instructions) and opens a
// session on it.
func RecordRegion(prog *isa.Program, cfg pinplay.LogConfig, spec pinplay.RegionSpec) (*Session, error) {
	pb, err := pinplay.Log(prog, cfg, spec)
	if err != nil {
		return nil, err
	}
	return Open(prog, pb), nil
}

// RecordFailure captures from skipMain to the program's failure point —
// the "whole program execution region" workflow of Table 3 when skipMain
// is 0 — and opens a session.
func RecordFailure(prog *isa.Program, cfg pinplay.LogConfig, skipMain int64) (*Session, error) {
	pb, err := pinplay.LogUntilFailure(prog, cfg, skipMain)
	if err != nil {
		return nil, err
	}
	return Open(prog, pb), nil
}

// Open starts a session over an existing pinball.
func Open(prog *isa.Program, pb *pinball.Pinball) *Session {
	return &Session{Prog: prog, Pinball: pb, opts: slice.DefaultOptions()}
}

// LoadSession opens a session from a pinball file.
func LoadSession(prog *isa.Program, pinballPath string) (*Session, error) {
	pb, err := pinball.Load(pinballPath)
	if err != nil {
		return nil, err
	}
	if pb.ProgramName != prog.Name {
		return nil, fmt.Errorf("core: pinball was recorded from %q, not %q", pb.ProgramName, prog.Name)
	}
	return Open(prog, pb), nil
}

// SetSliceOptions configures the engine used by subsequent slice
// requests, invalidating the session's engine.
func (s *Session) SetSliceOptions(opts slice.Options) {
	s.opts = opts
	s.parallel = nil
}

// SetParallelWorkers sets how many workers build the session's engine
// when it is not already cached; <= 0 means GOMAXPROCS. Slice results
// do not depend on it, only the build cost does.
func (s *Session) SetParallelWorkers(n int) { s.workers = n }

// effective returns the pinball replays should run against: the
// session's own pinball, or — for a flight-recorder pinball with
// evicted windows — the complete pinball materialised by gap bridging.
// Materialisation happens once; hash-verification failures degrade to
// estimated windows (reported by GapReport) rather than failing, while
// checkpoint divergence (a corrupted recipe) is a hard typed error.
func (s *Session) effective() (*pinball.Pinball, error) {
	if !s.Pinball.Gapped() {
		return s.Pinball, nil
	}
	if s.eff != nil {
		return s.eff, nil
	}
	eff, brep, err := pinplay.BridgePinball(s.Prog, s.Pinball, pinplay.ReplayOptions{Limits: s.limits})
	if err != nil {
		return nil, fmt.Errorf("core: bridging flight-recorder gaps: %w", err)
	}
	s.eff, s.bridge = eff, brep
	return eff, nil
}

// Bridge forces materialisation of a flight-recorder pinball and
// returns the gap report (nil for ordinary pinballs).
func (s *Session) Bridge() (*pinplay.BridgeReport, error) {
	if _, err := s.effective(); err != nil {
		return nil, err
	}
	return s.bridge, nil
}

// GapReport returns the gap-bridging report when the session has
// materialised a flight-recorder pinball, nil otherwise.
func (s *Session) GapReport() *pinplay.BridgeReport { return s.bridge }

// Replay deterministically re-executes the session's pinball, with an
// optional observer, and returns the machine at the end of the region.
// Divergence checkpoints recorded in the pinball are verified.
func (s *Session) Replay(t vm.Tracer) (*vm.Machine, error) {
	pb, err := s.effective()
	if err != nil {
		return nil, err
	}
	m, _, err := pinplay.ReplayWith(s.Prog, pb, pinplay.ReplayOptions{Tracer: t, Limits: s.limits})
	return m, err
}

// ReplaySupervised replays the session's pinball under the self-healing
// supervisor: panics are isolated, retryable failures retried with
// backoff, and a replay that keeps diverging falls back to a
// checkpoint-anchored partial replay (result.Degraded). The result's
// Report is non-nil in every outcome.
func (s *Session) ReplaySupervised(t vm.Tracer) (*supervisor.ReplayResult, error) {
	pb, err := s.effective()
	if err != nil {
		return nil, err
	}
	return supervisor.Replay(s.Prog, pb, s.sup,
		pinplay.ReplayOptions{Tracer: t, Limits: s.limits})
}

// LoadSessionSalvage opens a session from a pinball file, salvaging the
// file when it does not load cleanly. The report is nil when the file
// was intact and non-nil when salvage ran (successfully or not).
func LoadSessionSalvage(prog *isa.Program, pinballPath string) (*Session, *pinball.SalvageReport, error) {
	s, err := LoadSession(prog, pinballPath)
	if err == nil {
		return s, nil, nil
	}
	pb, rep, serr := pinball.Salvage(pinballPath)
	if serr != nil {
		return nil, rep, fmt.Errorf("core: %w (salvage also failed: %v)", err, serr)
	}
	if pb.ProgramName != prog.Name {
		return nil, rep, fmt.Errorf("core: pinball was recorded from %q, not %q", pb.ProgramName, prog.Name)
	}
	return Open(prog, pb), rep, nil
}

// Trace returns the session's dynamic-information trace (def/use events,
// shared-memory order, global trace): the trace of the session's
// slicing engine (see ParallelSlicer). Every replay of one recording
// yields the same trace, so when the engine is resident in the
// process-lifetime cache the session adopts the engine's trace (gap
// overlay included) and replays nothing — and consumes none of its
// vm.Limits budget. A flight-recorder pinball is still bridged first,
// for its GapReport.
func (s *Session) Trace() (*tracer.Trace, error) {
	if _, err := s.ParallelSlicer(); err != nil {
		return nil, err
	}
	return s.trace, nil
}

// replayTrace is the engine loader: it returns the session's trace,
// replaying the region with the tracing pintool attached to collect it
// unless the session already holds one.
func (s *Session) replayTrace() (*tracer.Trace, error) {
	if s.trace != nil {
		return s.trace, nil
	}
	pb, err := s.effective()
	if err != nil {
		return nil, err
	}
	tr, err := pinplay.CollectTrace(s.Prog, pb, s.limits)
	if err != nil {
		return nil, fmt.Errorf("core: trace collection: %w", err)
	}
	// Flight-recorder pinball: overlay the gap spans so slices can tag
	// every dependence that crosses an evicted window.
	if s.Pinball.Gapped() {
		tr.SetGaps(s.bridge.GapSpans(s.Pinball))
	}
	s.trace = tr
	return tr, nil
}

// ParallelSlicer returns the engine answering the session's slice
// requests: the sharded column engine, fetched from the process-lifetime
// engine cache, keyed by the recording's full content and the program's
// code (slice.KeyOf), or on a miss built over the session's trace,
// replaying the region to collect it first if need be. A session
// without a trace of its own adopts the engine's.
func (s *Session) ParallelSlicer() (*slice.ParallelSlicer, error) {
	if s.parallel != nil {
		return s.parallel, nil
	}
	pb, err := s.effective()
	if err != nil {
		return nil, err
	}
	eng, err := slice.CachedParallel(slice.KeyOf(s.Prog, s.Pinball), s.Prog, s.replayTrace, s.opts, slice.ParallelOptions{
		Workers:    s.workers,
		WindowSize: pinplay.WindowSize(pb),
		Ctx:        s.limits.Ctx,
	})
	if err != nil {
		return nil, err
	}
	if s.trace == nil {
		s.trace = eng.Trace
	}
	s.parallel = eng
	return eng, nil
}

// SliceAtFailure computes the backward slice of the failure point (the
// failing thread's last instruction, e.g. the assert).
func (s *Session) SliceAtFailure() (*slice.Slice, error) {
	crit, err := s.ResolveCriterion("", 0, 0, 0)
	if err != nil {
		return nil, err
	}
	return s.SliceFor(crit)
}

// ErrBadCriterion reports a slice criterion that does not resolve in the
// session's recording: an unknown variable, a line instance or a read
// that never executed, or a failure the pinball did not capture. It is
// the request's fault, so retrying cannot help.
var ErrBadCriterion = errors.New("core: bad slice criterion")

// ResolveCriterion maps a request-level criterion spec — a global
// variable name, a dynamic source-line instance, or (neither given) the
// recorded failure point — onto its trace reference, without slicing.
// An unknown variable or a pinball without a failure is rejected before
// the trace is built, so a bad request costs no replay. The daemon
// resolves once per query; the fleet then carries the reference inside
// the query state from worker to worker. Every rejection wraps
// ErrBadCriterion.
func (s *Session) ResolveCriterion(varName string, tid int, line int32, nth int) (tracer.Ref, error) {
	var addr int64
	switch {
	case varName != "":
		sym := s.Prog.SymbolByName(varName)
		if sym == nil {
			return tracer.Ref{}, fmt.Errorf("%w: no global variable %q", ErrBadCriterion, varName)
		}
		addr = sym.Addr
	case line > 0:
	case s.Pinball.Failure == nil:
		return tracer.Ref{}, fmt.Errorf("%w: the pinball captured no failure", ErrBadCriterion)
	}
	tr, err := s.Trace()
	if err != nil {
		return tracer.Ref{}, err
	}
	var crit tracer.Ref
	switch {
	case varName != "":
		crit, err = slice.LastReadOf(tr, addr)
	case line > 0:
		crit, err = slice.EventAtLine(tr, s.Prog, tid, line, max(nth, 1))
	default:
		crit, err = slice.LastEventOf(tr, s.Pinball.Failure.Tid)
	}
	if err != nil {
		return tracer.Ref{}, fmt.Errorf("%w: %v", ErrBadCriterion, err)
	}
	return crit, nil
}

// SliceFor computes the backward slice for an arbitrary criterion. For
// flight-recorder sessions the result is provenance-annotated: every
// member and edge that touches a bridged or estimated window is tagged,
// and the slice carries a provenance summary.
func (s *Session) SliceFor(crit tracer.Ref) (*slice.Slice, error) {
	eng, err := s.ParallelSlicer()
	if err != nil {
		return nil, err
	}
	sl, err := eng.Slice(crit)
	if err != nil {
		return nil, err
	}
	if s.trace != nil && len(s.trace.Gaps) > 0 {
		slice.AnnotateProvenance(s.trace, sl)
	}
	return sl, nil
}

// SliceForVariable computes the slice of the last read of a named global
// variable — the "slice for any interested variable" workflow.
func (s *Session) SliceForVariable(name string) (*slice.Slice, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: no global variable %q", ErrBadCriterion, name)
	}
	crit, err := s.ResolveCriterion(name, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	return s.SliceFor(crit)
}

// SliceAtLine computes the slice for the nth execution of the given
// source line in the given thread.
func (s *Session) SliceAtLine(tid int, line int32, nth int) (*slice.Slice, error) {
	tr, err := s.Trace()
	if err != nil {
		return nil, err
	}
	crit, err := slice.EventAtLine(tr, s.Prog, tid, line, nth)
	if err != nil {
		return nil, err
	}
	return s.SliceFor(crit)
}

// ExecutionSlice converts a slice into exclusion regions and relogs the
// region pinball into a slice pinball (paper §4, Figure 4b).
func (s *Session) ExecutionSlice(sl *slice.Slice) (*pinball.Pinball, []pinball.Exclusion, error) {
	tr, err := s.Trace()
	if err != nil {
		return nil, nil, err
	}
	pb, err := s.effective()
	if err != nil {
		return nil, nil, err
	}
	ex := slice.BuildExclusions(tr, sl)
	spb, err := pinplay.RelogWith(s.Prog, pb, ex, pinplay.ReplayOptions{Limits: s.limits})
	if err != nil {
		return nil, nil, err
	}
	return spb, ex, nil
}

// DetectRaces runs happens-before race detection over the session's
// trace. Each reported racy access is a valid slicing criterion
// (Race.Second can be passed to SliceFor), connecting race detection to
// root-cause slicing.
func (s *Session) DetectRaces() (*races.Report, error) {
	tr, err := s.Trace()
	if err != nil {
		return nil, err
	}
	return races.Detect(tr, vm.StackBase)
}

// DualSlice slices the same criterion in this (failing) session and a
// passing session of the same program, and diffs the results — dual
// slicing per Weeratunge et al. The criterion is the last write to the
// named global in each run, falling back to the failure point / last
// event when the variable is never written.
func DualSlice(failing, passing *Session, varName string) (*dualslice.Diff, error) {
	if failing.Prog != passing.Prog {
		return nil, fmt.Errorf("core: dual slice needs two sessions over the same program")
	}
	sliceIn := func(s *Session) (*tracer.Trace, *slice.Slice, error) {
		tr, err := s.Trace()
		if err != nil {
			return nil, nil, err
		}
		sym := s.Prog.SymbolByName(varName)
		if sym == nil {
			return nil, nil, fmt.Errorf("core: no global variable %q", varName)
		}
		var crit tracer.Ref
		found := false
		for g := len(tr.Global) - 1; g >= 0 && !found; g-- {
			e := tr.Entry(tr.Global[g])
			if e.EffAddr >= sym.Addr && e.EffAddr < sym.Addr+sym.Size {
				crit = tr.Global[g]
				found = true
			}
		}
		if !found {
			crit = tr.Global[len(tr.Global)-1]
		}
		sl, err := s.SliceFor(crit)
		return tr, sl, err
	}
	ftr, fsl, err := sliceIn(failing)
	if err != nil {
		return nil, err
	}
	ptr, psl, err := sliceIn(passing)
	if err != nil {
		return nil, err
	}
	return dualslice.Compare(failing.Prog, ftr, fsl, ptr, psl), nil
}

// SliceFile converts a slice into its persistable, session-independent
// form: members, dependences and exclusion regions in replay-stable
// coordinates. Saving it, printing it and rendering it as HTML all start
// here.
func (s *Session) SliceFile(sl *slice.Slice) (*slice.File, error) {
	tr, err := s.Trace()
	if err != nil {
		return nil, err
	}
	return slice.ToFile(s.Prog, tr, sl, slice.BuildExclusions(tr, sl)), nil
}

// SaveSlice persists a slice (with its exclusion regions) so it can be
// reused across debug sessions.
func (s *Session) SaveSlice(sl *slice.Slice, path string) error {
	f, err := s.SliceFile(sl)
	if err != nil {
		return err
	}
	return f.Save(path)
}

// LoadSlice loads a previously saved slice and resolves it against this
// session's trace.
func (s *Session) LoadSlice(path string) (*slice.Slice, error) {
	f, err := slice.LoadFile(path)
	if err != nil {
		return nil, err
	}
	tr, err := s.Trace()
	if err != nil {
		return nil, err
	}
	return f.Resolve(tr)
}
