package vm_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/fnv1a"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/progfuzz"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The differential tests in this file run the same programs and pinballs
// through RunTo (by way of Run, StepOne, pinplay.Log and pinplay.Cursor)
// and through RefStepOne, the one-instruction loop RunTo replaced, and
// require identical outcomes.

// eventHash is a tracer that folds every callback it receives, the
// machine's step count at each instruction and, every 61st instruction,
// the open end of the recorded schedule: a loop that delivers different
// events, or shows a tracer a stale Steps() or Quanta() mid-batch,
// hashes differently.
type eventHash struct {
	m *vm.Machine
	h uint64
	n int64
}

func newEventHash() *eventHash { return &eventHash{h: fnv1a.Offset} }

func (e *eventHash) fold(vs ...int64) {
	for _, v := range vs {
		e.h = fnv1a.Fold(e.h, v)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (e *eventHash) OnInstr(ev *vm.InstrEvent) {
	e.fold(int64(ev.Tid), ev.PC, ev.Idx, ev.EffAddr, b2i(ev.MemIsWrite), b2i(ev.MemAlsoRead),
		ev.MemVal, ev.NextPC, b2i(ev.Taken), ev.Aux, e.m.Steps())
	if e.n++; e.n%61 == 0 {
		q := e.m.Quanta()
		last := q[len(q)-1]
		e.fold(int64(len(q)), int64(last.Tid), last.Count)
	}
}

func (e *eventHash) OnOrderEdge(oe vm.OrderEdge) {
	e.fold(-1, int64(oe.FromTid), oe.FromIdx, int64(oe.ToTid), oe.ToIdx, oe.Addr)
}

func (e *eventHash) OnSyscall(r vm.SyscallRecord) {
	e.fold(-2, int64(r.Tid), r.Num, r.Arg, r.Ret)
}

// outcome is what the two loops must agree on after a run.
type outcome struct {
	Pos      int64
	Stop     vm.StopReason
	Threads  uint64 // registers, pc, count and scheduling state of every thread
	Mem      uint64
	Output   uint64
	Quanta   uint64
	InFlight [2]int64 // the scheduler quantum left in flight
	Events   uint64
}

func (o outcome) String() string {
	return fmt.Sprintf("pos %d stop %v threads %#x mem %#x output %#x quanta %#x in-flight %v events %#x",
		o.Pos, o.Stop, o.Threads, o.Mem, o.Output, o.Quanta, o.InFlight, o.Events)
}

func outcomeOf(m *vm.Machine, pos int64, ev *eventHash) outcome {
	o := outcome{Pos: pos, Stop: m.Stopped(), Events: ev.h}
	h := fnv1a.Offset
	for _, t := range m.Threads {
		for _, r := range t.Regs {
			h = fnv1a.Fold(h, r)
		}
		for _, v := range []int64{t.PC, int64(t.Status), t.Count, t.WaitAddr, int64(t.WaitTid), t.WaitTicket} {
			h = fnv1a.Fold(h, v)
		}
	}
	if f := m.Failure(); f != nil {
		h = fnv1a.Fold(fnv1a.Fold(fnv1a.Fold(h, int64(f.Tid)), f.PC), f.Idx)
	}
	o.Threads = h
	img := m.Mem.Snapshot()
	pns := make([]int64, 0, len(img))
	for pn := range img {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	h = fnv1a.Offset
	for _, pn := range pns {
		h = fnv1a.Fold(h, pn)
		for _, w := range img[pn] {
			h = fnv1a.Fold(h, w)
		}
	}
	o.Mem = h
	h = fnv1a.Offset
	for _, w := range m.Output() {
		h = fnv1a.Fold(h, w)
	}
	o.Output = h
	h = fnv1a.Offset
	for _, q := range m.Quanta() {
		h = fnv1a.Fold(fnv1a.Fold(h, int64(q.Tid)), q.Count)
	}
	o.Quanta = h
	tid, left := m.InFlightQuantum()
	o.InFlight = [2]int64{int64(tid), left}
	return o
}

// diffProgram is one program of the differential sweep with the recording
// configuration its pinballs are captured under.
type diffProgram struct {
	name string
	prog *isa.Program
	cfg  pinplay.LogConfig
	spec pinplay.RegionSpec
}

// diffPrograms returns every registry workload (a 20k-main region at a
// fixed seed, as the golden recordings use) and every progfuzz corpus
// program (the whole execution at a short quantum).
func diffPrograms(t *testing.T) []diffProgram {
	t.Helper()
	var out []diffProgram
	for _, w := range workloads.All() {
		prog, err := w.Program()
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		out = append(out, diffProgram{
			name: w.Name, prog: prog,
			cfg:  pinplay.LogConfig{Seed: 11, RandSeed: 11, MeanQuantum: 97, Input: w.Input(w.DefaultThreads, 1<<40)},
			spec: pinplay.RegionSpec{SkipMain: 1000, LengthMain: 20_000},
		})
	}
	for _, seed := range progfuzz.CorpusSeeds {
		name := fmt.Sprintf("seed-%d", seed)
		src, err := os.ReadFile(filepath.Join("..", "progfuzz", "corpus", name+".c"))
		if err != nil {
			t.Fatalf("corpus file: %v", err)
		}
		prog, err := cc.CompileSource(name+".c", string(src))
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		out = append(out, diffProgram{name: name, prog: prog, cfg: pinplay.LogConfig{Seed: seed, MeanQuantum: 5}})
	}
	return out
}

// refLog is pinplay.Log (default checkpoint cadence, no journal or ring)
// driven by RefStepOne.
func refLog(p diffProgram) *pinball.Pinball {
	mq := p.cfg.MeanQuantum
	if mq <= 0 {
		mq = 1000
	}
	m := vm.New(p.prog, vm.Config{
		Sched:    vm.NewRandomScheduler(p.cfg.Seed, mq),
		Env:      vm.NewNativeEnv(p.cfg.Input, p.cfg.RandSeed),
		MaxSteps: 2_000_000_000,
	})
	for m.Threads[0].Count < p.spec.SkipMain && m.RefStepOne() {
	}
	rec := pinplay.StartRecording(m)
	endReason := "length"
	if p.spec.LengthMain > 0 {
		target := m.Threads[0].Count + p.spec.LengthMain
		for m.Threads[0].Count < target && m.RefStepOne() {
		}
		if !m.Running() {
			endReason = m.Stopped().String()
		}
	} else {
		for m.RefStepOne() {
		}
		endReason = m.Stopped().String()
	}
	pb := rec.Finish(m, endReason)
	pb.Kind = pinball.KindRegion
	if p.spec.SkipMain == 0 && p.spec.LengthMain == 0 {
		pb.Kind = pinball.KindWhole
	}
	pb.SkipMain = p.spec.SkipMain
	return pb
}

// replayNew replays pb through the cursor and returns its outcome and
// Run's error.
func replayNew(prog *isa.Program, pb *pinball.Pinball, opts pinplay.ReplayOptions) (outcome, error) {
	ev := newEventHash()
	opts.Tracer = ev
	c := pinplay.NewCursor(prog, pb, opts)
	ev.m = c.Machine()
	err := c.Run()
	return outcomeOf(c.Machine(), c.Pos(), ev), err
}

// replayRef replays pb on a cursor's machine with the loop the cursor
// used before RunTo: RefStepOne between slice injections, a poll for a
// fatal divergence after every instruction, then the instructions the
// end-of-region checks execute (trailing injections and the recorded
// trailing fault).
func replayRef(prog *isa.Program, pb *pinball.Pinball, opts pinplay.ReplayOptions) outcome {
	ev := newEventHash()
	opts.Tracer = ev
	diverged := false
	opts.OnDivergence = func(pinplay.Divergence) { diverged = true }
	c := pinplay.NewCursor(prog, pb, opts)
	m := c.Machine()
	ev.m = m
	base, end := m.Steps(), c.Total()
	pos := func() int64 { return m.Steps() - base }
	fatal := func() bool { return diverged && !opts.Degraded }
	inj := 0
	inject := func() {
		for ; inj < len(pb.Injections) && pb.Injections[inj].AtStep <= pos(); inj++ {
			in := &pb.Injections[inj]
			t := m.Threads[in.Tid]
			t.Regs, t.PC, t.Count = in.Regs, in.NewPC, in.NewCount
			for _, w := range in.Mem {
				m.Mem.Write(w.Addr, w.Val)
			}
		}
	}
	for m.Running() && pos() < end && !fatal() {
		inject()
		next := end
		if inj < len(pb.Injections) {
			next = min(next, pb.Injections[inj].AtStep)
		}
		for pos() < next && m.RefStepOne() && !fatal() {
		}
	}
	early := pos() < end && m.Stopped() == vm.StopFailure && pb.Failure != nil
	if !fatal() && (pos() >= end || early) {
		if m.Running() {
			inject()
		}
		if pb.Failure != nil && m.Running() {
			m.RefStepOne()
		}
	}
	return outcomeOf(m, pos(), ev)
}

// tamper returns a copy of pb with its middle checkpoint's hash flipped.
func tamper(pb *pinball.Pinball) (*pinball.Pinball, bool) {
	if len(pb.Checkpoints) == 0 {
		return nil, false
	}
	cp := *pb
	cp.Checkpoints = slices.Clone(pb.Checkpoints)
	cp.Checkpoints[len(cp.Checkpoints)/2].Hash ^= 0x5a5a
	return &cp, true
}

// quietTracer finds a run of one thread's instructions that touch
// nothing another thread can see: no thread, lock, condition-variable or
// system call operation and no memory access below the stacks.
type quietTracer struct {
	vm.NopTracer
	skip map[int]int64 // per-thread index at which the search starts
	want int64
	run  map[int][2]int64 // per thread: start index and length of the open run
	best pinball.Exclusion
}

func (q *quietTracer) OnInstr(ev *vm.InstrEvent) {
	if ev.Idx < q.skip[ev.Tid] || q.best.ToIdx-q.best.FromIdx >= q.want {
		return
	}
	quiet := ev.EffAddr < 0 || ev.EffAddr >= vm.StackBase
	switch ev.Instr.Op {
	case isa.SPAWN, isa.JOIN, isa.LOCK, isa.UNLOCK, isa.WAIT, isa.SIGNAL, isa.SYSCALL, isa.ASSERT, isa.HALT:
		quiet = false
	}
	if !quiet {
		delete(q.run, ev.Tid)
		return
	}
	r, ok := q.run[ev.Tid]
	if !ok {
		r[0] = ev.Idx
	}
	r[1]++
	q.run[ev.Tid] = r
	if r[1] > q.best.ToIdx-q.best.FromIdx {
		q.best = pinball.Exclusion{Tid: ev.Tid, FromIdx: r[0], ToIdx: r[0] + r[1]}
	}
}

// quietWindow returns an exclusion of up to 40 quiet instructions of one
// thread early in pb's region. Excluding it leaves every other thread's
// execution unchanged, so its slice pinball replays cleanly.
func quietWindow(t *testing.T, prog *isa.Program, pb *pinball.Pinball) pinball.Exclusion {
	t.Helper()
	q := &quietTracer{skip: map[int]int64{}, want: 40, run: map[int][2]int64{}}
	for _, ts := range pb.State.Threads {
		q.skip[ts.ID] = ts.Count + 5
	}
	if _, _, err := pinplay.ReplayWith(prog, pb, pinplay.ReplayOptions{Tracer: q}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if q.best.ToIdx-q.best.FromIdx < 3 {
		t.Fatalf("no quiet window (longest %v)", q.best)
	}
	return q.best
}

// checkReplays replays pb both ways: plain, under instruction budgets,
// under a resident-page cap and a far deadline, and with a tampered
// checkpoint under both divergence policies.
func checkReplays(t *testing.T, prog *isa.Program, pb *pinball.Pinball) {
	t.Helper()
	total := pb.TotalQuantumInstrs()
	if pb.Gapped() {
		total = pb.RegionInstrs
	}
	type replayCase struct {
		name string
		pb   *pinball.Pinball
		opts pinplay.ReplayOptions
	}
	cases := []replayCase{
		{"plain", pb, pinplay.ReplayOptions{}},
		{"unverified", pb, pinplay.ReplayOptions{NoVerify: true}},
		{"max-pages", pb, pinplay.ReplayOptions{Limits: vm.Limits{MaxPages: len(pb.State.Mem)}}},
		{"deadline-and-half", pb, pinplay.ReplayOptions{Limits: vm.Limits{Steps: total / 2, Deadline: time.Now().Add(time.Hour)}}},
	}
	for _, n := range []int64{1, 999, 1000, 1001, total / 2} {
		if n > 0 {
			cases = append(cases, replayCase{fmt.Sprintf("budget-%d", n), pb, pinplay.ReplayOptions{Limits: vm.Limits{Steps: n}}})
		}
	}
	if tampered, ok := tamper(pb); ok {
		cases = append(cases,
			replayCase{"tampered", tampered, pinplay.ReplayOptions{}},
			replayCase{"tampered-degraded", tampered, pinplay.ReplayOptions{Degraded: true}})
	}
	for _, tc := range cases {
		got, err := replayNew(prog, tc.pb, tc.opts)
		want := replayRef(prog, tc.pb, tc.opts)
		if got != want {
			t.Errorf("%s replay:\n RunTo     %v\n reference %v", tc.name, got, want)
		}
		switch tc.name {
		case "plain", "unverified", "tampered-degraded":
			if err != nil {
				t.Errorf("%s replay: %v", tc.name, err)
			}
		case "tampered":
			var de *pinplay.DivergenceError
			if !errors.As(err, &de) {
				t.Fatalf("tampered replay: err %v, want a divergence", err)
			}
			if got.Pos != de.Div.ToStep {
				t.Errorf("tampered replay stopped at %d, diverging window closed at %d", got.Pos, de.Div.ToStep)
			}
		}
	}
}

// TestRunToMatchesReferenceLoop records every registry workload and
// corpus program with pinplay.Log and with the reference loop, requires
// identical pinballs (a journaled recording too), then replays the
// region, a slice pinball relogged from it and, for one workload, a
// flight-recorder pinball both ways.
func TestRunToMatchesReferenceLoop(t *testing.T) {
	for _, p := range diffPrograms(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			pb, err := pinplay.Log(p.prog, p.cfg, p.spec)
			if err != nil {
				t.Fatalf("log: %v", err)
			}
			if got, want := pb.Digest(), refLog(p).Digest(); got != want {
				t.Fatalf("Log digest %#x, reference loop %#x", got, want)
			}
			jcfg := p.cfg
			jcfg.JournalPath, jcfg.JournalEvery = filepath.Join(t.TempDir(), "j.pinball"), 777
			jpb, err := pinplay.Log(p.prog, jcfg, p.spec)
			if err != nil {
				t.Fatalf("journaled log: %v", err)
			}
			loaded, err := pinball.Load(jcfg.JournalPath)
			if err != nil {
				t.Fatalf("load journal: %v", err)
			}
			if jpb.Digest() != pb.Digest() || loaded.Digest() != pb.Digest() {
				t.Errorf("journaled digests %#x (returned) %#x (file), want %#x", jpb.Digest(), loaded.Digest(), pb.Digest())
			}
			checkReplays(t, p.prog, pb)

			excl := []pinball.Exclusion{quietWindow(t, p.prog, pb)}
			slice, err := pinplay.RelogWith(p.prog, pb, excl, pinplay.ReplayOptions{})
			if err != nil {
				t.Fatalf("relog: %v", err)
			}
			if len(slice.Injections) == 0 {
				t.Fatal("slice pinball has no injections")
			}
			checkReplays(t, p.prog, slice)

			if p.name == "mgrid" {
				rcfg := p.cfg
				rcfg.RingBytes, rcfg.JournalEvery = 20_000, 2048
				ring, err := pinplay.Log(p.prog, rcfg, p.spec)
				if err != nil {
					t.Fatalf("ring log: %v", err)
				}
				if !ring.Gapped() {
					t.Fatal("ring recording evicted nothing")
				}
				checkReplays(t, p.prog, ring)
			}
		})
	}
}

// TestRunToMatchesReferenceNative runs every program natively under
// MaxSteps caps and instruction budgets, driven by Run, by StepOne and
// RunTo chunks, and by the reference loop.
func TestRunToMatchesReferenceNative(t *testing.T) {
	for _, p := range diffPrograms(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			mq := p.cfg.MeanQuantum
			start := func(maxSteps int64) (*vm.Machine, *eventHash) {
				ev := newEventHash()
				m := vm.New(p.prog, vm.Config{
					Sched:    vm.NewRandomScheduler(p.cfg.Seed, mq),
					Env:      vm.NewNativeEnv(p.cfg.Input, p.cfg.RandSeed),
					Tracer:   ev,
					MaxSteps: maxSteps,
				})
				ev.m = m
				return m, ev
			}
			ref := func(maxSteps int64, limits vm.Limits) outcome {
				m, ev := start(maxSteps)
				m.SetLimits(limits)
				for m.RefStepOne() {
				}
				return outcomeOf(m, m.Steps(), ev)
			}
			const cap = 60_000
			for _, maxSteps := range []int64{1, 999, 1000, 1001, cap / 2, cap} {
				m, ev := start(maxSteps)
				m.Run()
				if got, want := outcomeOf(m, m.Steps(), ev), ref(maxSteps, vm.Limits{}); got != want {
					t.Errorf("MaxSteps %d:\n Run       %v\n reference %v", maxSteps, got, want)
				}
			}
			for _, n := range []int64{1, 999, 1000, 1001, cap / 2} {
				m, ev := start(cap)
				m.SetLimits(vm.Limits{Steps: n})
				m.Run()
				if got, want := outcomeOf(m, m.Steps(), ev), ref(cap, vm.Limits{Steps: n}); got != want {
					t.Errorf("budget %d:\n Run       %v\n reference %v", n, got, want)
				}
			}
			// Debugger-style single steps, then uneven RunTo chunks: every
			// StepOne result must match the reference's.
			m, ev := start(cap)
			rm, rev := start(cap)
			for i := 0; i < 500; i++ {
				if got, want := m.StepOne(), rm.RefStepOne(); got != want {
					t.Fatalf("StepOne %d = %v, reference %v", i, got, want)
				}
			}
			for chunk := int64(1); m.Running(); chunk = chunk*3%1009 + 1 {
				m.RunTo(m.Steps() + chunk)
			}
			for rm.RefStepOne() {
			}
			if got, want := outcomeOf(m, m.Steps(), ev), outcomeOf(rm, rm.Steps(), rev); got != want {
				t.Errorf("chunked RunTo:\n RunTo     %v\n reference %v", got, want)
			}
		})
	}
}
