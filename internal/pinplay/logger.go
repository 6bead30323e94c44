// Package pinplay reimplements the record/replay core of the PinPlay
// framework on the vm substrate: a Logger that fast-forwards to an
// execution region and captures it into a pinball, a Replayer that
// deterministically re-executes a pinball, and a Relogger that replays a
// region pinball while excluding code regions to produce a smaller slice
// pinball (paper Sections 1, 2 and 4).
package pinplay

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/vm"
)

// RegionSpec selects which part of an execution the logger captures, in
// PinPlay's skip/length convention: both counts are in main-thread
// instructions. Length 0 means "until the program stops" (including a
// failure — which is how a bug's symptom ends up inside the pinball).
type RegionSpec struct {
	SkipMain   int64
	LengthMain int64
}

// LogConfig configures a native (original) execution for logging.
type LogConfig struct {
	// Seed drives the emulated OS scheduling nondeterminism.
	Seed int64
	// MeanQuantum is the scheduler's mean preemption quantum.
	MeanQuantum int64
	// Input is the program input consumed by read().
	Input []int64
	// RandSeed seeds the program-visible rand() syscall.
	RandSeed int64
	// MaxSteps bounds total execution (0 = default guard).
	MaxSteps int64
	// CheckpointEvery is the per-thread divergence-checkpoint cadence
	// recorded into the pinball (0 = pinball.DefaultCheckpointEvery,
	// negative = disable checkpointing).
	CheckpointEvery int64
	// JournalPath, when set, makes the logger write the capture
	// incrementally to that path as a format-v4 journal while recording
	// runs: a crash mid-record leaves a salvageable prefix on disk
	// instead of nothing. The committed journal IS the output pinball
	// file — no separate Save is needed.
	JournalPath string
	// JournalEvery is the journal flush cadence in executed region
	// instructions (0 = DefaultJournalFlushEvery).
	JournalEvery int64
	// JournalNoSync disables the per-flush fsync (faster, but a flushed
	// window is only durable against process crashes, not power loss).
	JournalNoSync bool
	// RingBytes switches recording to flight-recorder mode: the retained
	// event streams are bounded to this many estimated bytes, oldest flush
	// windows evicted first (checkpoints and each evicted window's span +
	// divergence hash are always kept, so replay can re-derive and verify
	// the gaps). 0 = full-trace recording.
	RingBytes int64
	// RingSample is the ring's sampling policy: keep 1 window in N
	// (0 or 1 = keep every window the budget allows). Sampling alone (with
	// RingBytes 0) also enables flight-recorder mode. The final window of
	// a region is always retained. The flush-window cadence is
	// JournalEvery, journal or not.
	RingSample int64
}

// DefaultJournalFlushEvery is the default journal flush cadence in
// executed region instructions. Each flush seals a window with an fsync
// (~1ms of fixed cost), so the default is sized for paper-scale regions
// (millions of instructions): frequent enough that a crash loses at most
// a modest tail, rare enough that the fsync cost stays in the single
// percents of recording time.
const DefaultJournalFlushEvery = 1 << 20

// every resolves the configured checkpoint cadence.
func (c LogConfig) every() int64 {
	switch {
	case c.CheckpointEvery < 0:
		return 0
	case c.CheckpointEvery == 0:
		return pinball.DefaultCheckpointEvery
	}
	return c.CheckpointEvery
}

func (c LogConfig) env() *vm.NativeEnv { return vm.NewNativeEnv(c.Input, c.RandSeed) }

func (c LogConfig) sched() *vm.RandomScheduler {
	mq := c.MeanQuantum
	if mq <= 0 {
		mq = 1000
	}
	return vm.NewRandomScheduler(c.Seed, mq)
}

// captureRecipe snapshots the resumable nondeterminism state at region
// entry: generator states, environment cursors and the machine's
// in-flight scheduling quantum. Gap bridging replays the region against
// exactly this state.
func captureRecipe(m *vm.Machine, sched *vm.RandomScheduler, env *vm.NativeEnv, input []int64) *pinball.Recipe {
	tid, left := m.InFlightQuantum()
	es := env.State()
	return &pinball.Recipe{
		SchedState: sched.State(),
		MeanQ:      sched.MeanQ,
		CurTid:     tid,
		CurLeft:    left,
		EnvInput:   append([]int64(nil), input...),
		EnvPos:     int64(es.InputPos),
		EnvRand:    es.RandState,
		EnvClock:   es.Clock,
	}
}

// recordTracer accumulates the nondeterministic events a pinball stores,
// plus the divergence checkpoints replay will verify.
type recordTracer struct {
	vm.NopTracer
	syscalls []vm.SyscallRecord
	edges    []vm.OrderEdge
	ck       *checkpointer // nil when checkpointing is disabled
	ring     *ringState    // nil when flight-recorder mode is off

	// Journal flushing: every flushEvery instructions flush() seals the
	// accumulated deltas to the attached journal (in ring mode, seals the
	// open ring window). Zero when neither is active.
	flushEvery int64
	sinceFlush int64
	flush      func()
}

func (r *recordTracer) OnSyscall(rec vm.SyscallRecord) { r.syscalls = append(r.syscalls, rec) }
func (r *recordTracer) OnOrderEdge(e vm.OrderEdge)     { r.edges = append(r.edges, e) }
func (r *recordTracer) OnInstr(ev *vm.InstrEvent) {
	if r.ck != nil {
		r.ck.observe(ev)
	}
	if r.ring != nil {
		r.ring.hash = foldEvent(r.ring.hash, ev)
		r.ring.step++
	}
	if r.flush != nil {
		r.sinceFlush++
		if r.sinceFlush >= r.flushEvery {
			r.sinceFlush = 0
			r.flush()
		}
	}
}

// Log executes prog natively, fast-forwards SkipMain main-thread
// instructions at uninstrumented speed, then records the region into a
// pinball. Logging ends when the main thread has executed LengthMain more
// instructions, or when the program stops (halt, exit, failure, deadlock).
func Log(prog *isa.Program, cfg LogConfig, spec RegionSpec) (*pinball.Pinball, error) {
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = 2_000_000_000
	}
	sched, env := cfg.sched(), cfg.env()
	m := vm.New(prog, vm.Config{Sched: sched, Env: env, MaxSteps: maxSteps})

	// Fast-forward: the logger "does only minimal instrumentation before
	// the region, so fast-forwarding proceeds at Pin-only speed".
	runMain(m, spec.SkipMain)
	if !m.Running() && m.Threads[0].Count < spec.SkipMain {
		return nil, fmt.Errorf("pinplay: program stopped (%v) before skip %d", m.Stopped(), spec.SkipMain)
	}

	kind := pinball.KindRegion
	if spec.SkipMain == 0 && spec.LengthMain == 0 {
		kind = pinball.KindWhole
	}
	rec := startRecording(m, cfg.every())
	if cfg.JournalPath != "" {
		if err := rec.AttachJournal(cfg.JournalPath, kind, cfg.JournalEvery, !cfg.JournalNoSync); err != nil {
			return nil, err
		}
	}
	if cfg.RingBytes > 0 || cfg.RingSample > 1 {
		// Flight-recorder mode: capture the scheduler/environment state the
		// region continues from, so evicted windows stay re-derivable.
		if err := rec.EnableRing(cfg.RingBytes, cfg.RingSample, cfg.JournalEvery, captureRecipe(m, sched, env, cfg.Input)); err != nil {
			// Leave the partial journal for Salvage; err, not a close
			// failure, is what the caller must see.
			_ = rec.AbortJournal()
			return nil, err
		}
	}
	var endReason string
	if spec.LengthMain > 0 {
		runMain(m, m.Threads[0].Count+spec.LengthMain)
		endReason = "length"
		if !m.Running() {
			endReason = m.Stopped().String()
		}
	} else {
		m.Run()
		endReason = m.Stopped().String()
	}
	pb := rec.Finish(m, endReason)
	pb.Kind = kind
	pb.SkipMain = spec.SkipMain
	if err := rec.CommitJournal(pb); err != nil {
		return nil, err
	}
	return pb, nil
}

// runMain runs m until the main thread has executed target instructions
// or the machine stops. Each batch asks for exactly the main-thread
// instructions still missing: main reaches target only if every step of
// the batch was main's, so the run never overshoots.
func runMain(m *vm.Machine, target int64) {
	for m.Running() && m.Threads[0].Count < target {
		m.RunTo(m.Steps() + target - m.Threads[0].Count)
	}
}

// LogUntilFailure is a convenience wrapper capturing from SkipMain to the
// program's failure point; it fails if the program does not fail.
func LogUntilFailure(prog *isa.Program, cfg LogConfig, skipMain int64) (*pinball.Pinball, error) {
	pb, err := Log(prog, cfg, RegionSpec{SkipMain: skipMain})
	if err != nil {
		return nil, err
	}
	if pb.Failure == nil {
		return nil, fmt.Errorf("pinplay: execution did not fail (end: %s)", pb.EndReason)
	}
	return pb, nil
}

// Recorder captures a region of a live machine: the debugger's
// "record on/off" commands use it directly.
type Recorder struct {
	m          *vm.Machine
	state      *vm.MachineState
	tracer     *recordTracer
	every      int64
	startMain  int64
	startSteps int64

	// Journal state (nil jw = journaling off): how much of each event
	// stream earlier flushes already consumed. The machine's run-length
	// quanta only grow, so (entry index, count within entry) marks the
	// consumed prefix exactly — a still-open quantum is flushed partially
	// and its remainder becomes the next flush's first delta entry.
	jw   *pinball.JournalWriter
	qIdx int
	qOff int64
	sIdx int
	eIdx int
	cIdx int

	// ring is non-nil in flight-recorder mode (EnableRing); it takes over
	// the tracer's flush hook, so journal chunk flushing and ring sealing
	// never run together.
	ring *ringState
}

// StartRecording snapshots the machine state and begins capturing
// nondeterministic events (with divergence checkpoints at the default
// cadence). The machine's existing tracer keeps receiving events.
func StartRecording(m *vm.Machine) *Recorder {
	return startRecording(m, pinball.DefaultCheckpointEvery)
}

// startRecording is StartRecording with an explicit checkpoint cadence
// (0 disables checkpointing).
func startRecording(m *vm.Machine, every int64) *Recorder {
	r := &Recorder{
		m:          m,
		state:      m.Snapshot(),
		tracer:     &recordTracer{},
		every:      every,
		startMain:  m.Threads[0].Count,
		startSteps: m.Steps(),
	}
	if every > 0 {
		r.tracer.ck = newCheckpointer(m, every)
	}
	m.ResetQuanta()
	m.ResetSharedTracking()
	// Shared-access order tracking only runs while a tracer is attached,
	// so recording always installs one.
	m.SetTracer(r.tracer)
	return r
}

// StartRecordingWith is StartRecording but keeps an additional tracer
// attached alongside the recorder's.
func StartRecordingWith(m *vm.Machine, extra vm.Tracer) *Recorder {
	r := StartRecording(m)
	if extra != nil {
		m.SetTracer(vm.MultiTracer{r.tracer, extra})
	}
	return r
}

// Finish stops recording and assembles the pinball. endReason documents
// why the region ended.
func (r *Recorder) Finish(m *vm.Machine, endReason string) *pinball.Pinball {
	pb := &pinball.Pinball{
		ProgramName:  m.Prog.Name,
		Kind:         pinball.KindRegion,
		State:        r.state,
		Quanta:       append([]vm.Quantum(nil), m.Quanta()...),
		Syscalls:     r.tracer.syscalls,
		OrderEdges:   r.tracer.edges,
		RegionInstrs: m.Steps() - r.startSteps,
		MainInstrs:   m.Threads[0].Count - r.startMain,
		EndReason:    endReason,
		Failure:      m.Failure(),
	}
	if ck := r.tracer.ck; ck != nil {
		// The trailing partial windows join the checkpoint stream here,
		// ahead of the final journal flush or ring seal that writes them.
		ck.seal(-1)
		pb.CheckpointEvery = r.every
		pb.Checkpoints = ck.cps
	}
	if r.ring != nil {
		// Ring mode: the retained streams live in the sealed windows, not
		// in the tracer's (reset-at-seal) accumulators.
		r.finishRing(pb)
	}
	m.SetTracer(nil)
	return pb
}

// AttachJournal starts writing the recording incrementally to path as a
// format-v4 journal. kind must match the kind the finished pinball will
// carry (the journal header pins it). flushEvery is the flush cadence in
// executed region instructions (0 = DefaultJournalFlushEvery); sync
// fsyncs every flushed window. Call between StartRecording and Finish;
// seal with CommitJournal after Finish (and any Kind/SkipMain fixups),
// or AbortJournal to leave a salvageable partial file.
func (r *Recorder) AttachJournal(path string, kind pinball.Kind, flushEvery int64, sync bool) error {
	provisional := &pinball.Pinball{
		ProgramName: r.m.Prog.Name,
		Kind:        kind,
		State:       r.state,
	}
	if r.tracer.ck != nil {
		provisional.CheckpointEvery = r.every
	}
	jw, err := pinball.NewJournalWriter(path, provisional, sync)
	if err != nil {
		return err
	}
	if flushEvery <= 0 {
		flushEvery = DefaultJournalFlushEvery
	}
	r.jw = jw
	r.tracer.flushEvery = flushEvery
	r.tracer.flush = r.flushJournal
	return nil
}

// flushJournal seals the deltas since the previous flush into one
// journal chunk. Write errors stick in the journal writer; recording is
// never interrupted by a failing journal.
func (r *Recorder) flushJournal() {
	if r.jw == nil {
		return
	}
	dq, dc := r.takeDeltas()
	ds := r.tracer.syscalls[r.sIdx:]
	de := r.tracer.edges[r.eIdx:]
	r.sIdx, r.eIdx = len(r.tracer.syscalls), len(r.tracer.edges)
	r.jw.AppendChunk(dq, ds, de, dc)
}

// takeDeltas returns the quanta and checkpoints recorded since its
// previous call and advances past them. The machine's last quantum may
// still be open: only its count beyond what was already taken is new.
func (r *Recorder) takeDeltas() (dq []vm.Quantum, dc []pinball.Checkpoint) {
	q := r.m.Quanta()
	for i := r.qIdx; i < len(q); i++ {
		e := q[i]
		if i == r.qIdx {
			e.Count -= r.qOff
		}
		if e.Count > 0 {
			dq = append(dq, e)
		}
	}
	if n := len(q); n > 0 {
		r.qIdx, r.qOff = n-1, q[n-1].Count
	}
	if ck := r.tracer.ck; ck != nil {
		dc = ck.cps[r.cIdx:]
		r.cIdx = len(ck.cps)
	}
	return dq, dc
}

// CommitJournal flushes the recording's tail and seals the journal with
// pb's authoritative metadata, making the file a complete, loadable
// pinball. pb must be the pinball Finish returned, after the caller's
// final fixups (Kind, SkipMain) — the commit frame snapshots it.
func (r *Recorder) CommitJournal(pb *pinball.Pinball) error {
	if r.jw == nil {
		return nil
	}
	if r.ring != nil {
		// Ring mode defers retained window content to commit time: only
		// now is it known which windows survived eviction. The manifest
		// frame (budget, sampling, evictions, recipe) rides in the commit.
		for _, w := range r.ring.windows {
			r.jw.AppendChunk(w.quanta, w.syscalls, w.edges, nil)
		}
	} else {
		r.flushJournal()
	}
	err := r.jw.Commit(pb)
	r.jw = nil
	return err
}

// AbortJournal closes the journal without committing; the partial file
// stays on disk for Salvage. No-op when no journal is attached.
func (r *Recorder) AbortJournal() error {
	if r.jw == nil {
		return nil
	}
	err := r.jw.Abort()
	r.jw = nil
	return err
}

// PointSpec selects an execution region by code locations instead of
// instruction counts — the paper's "users can focus on a (buggy) region
// of execution by specifying its start and end points". StartPC triggers
// recording the nth time (StartInstance, 1-based) any thread is about to
// execute it; EndPC stops it likewise. EndPC < 0 records to program end.
type PointSpec struct {
	StartPC       int64
	StartInstance int64
	EndPC         int64
	EndInstance   int64
}

// LogBetween executes prog natively and captures the region between two
// code points into a pinball.
func LogBetween(prog *isa.Program, cfg LogConfig, spec PointSpec) (*pinball.Pinball, error) {
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = 2_000_000_000
	}
	if spec.StartInstance <= 0 {
		spec.StartInstance = 1
	}
	if spec.EndInstance <= 0 {
		spec.EndInstance = 1
	}
	m := vm.New(prog, vm.Config{Sched: cfg.sched(), Env: cfg.env(), MaxSteps: maxSteps})

	// Fast-forward until some thread is about to execute the start pc for
	// the StartInstance'th time. A pending instruction may be observed
	// several times when the thread is preempted before executing it, so
	// instances are deduplicated by (tid, per-thread count).
	var seen int64
	lastCounted := map[int]int64{}
	pending := func(pc int64) bool {
		t := m.CurThread()
		if t == nil {
			return false
		}
		if t.PC != pc {
			return false
		}
		if c, ok := lastCounted[t.ID]; ok && c == t.Count {
			return false
		}
		lastCounted[t.ID] = t.Count
		return true
	}
	for {
		if m.CurThread() == nil {
			return nil, fmt.Errorf("pinplay: program stopped (%v) before reaching start point pc %d", m.Stopped(), spec.StartPC)
		}
		if pending(spec.StartPC) {
			seen++
			if seen >= spec.StartInstance {
				break
			}
		}
		if !m.StepOne() {
			return nil, fmt.Errorf("pinplay: program stopped (%v) before reaching start point pc %d", m.Stopped(), spec.StartPC)
		}
	}

	rec := startRecording(m, cfg.every())
	endReason := "end-point"
	if spec.EndPC >= 0 {
		var endSeen int64
		lastCounted = map[int]int64{}
		for {
			if !m.StepOne() {
				endReason = m.Stopped().String()
				break
			}
			if pending(spec.EndPC) {
				endSeen++
				if endSeen >= spec.EndInstance {
					break
				}
			}
		}
	} else {
		m.Run()
		endReason = m.Stopped().String()
	}
	pb := rec.Finish(m, endReason)
	pb.Kind = pinball.KindRegion
	return pb, nil
}
