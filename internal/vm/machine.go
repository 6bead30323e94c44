// Package vm implements the multi-threaded machine that executes
// isa.Programs, playing the role Pin-instrumented native execution plays
// in the paper: every instruction's register/memory def-use, control
// transfers, shared-memory access order and system-call results are
// observable through per-instruction analysis callbacks (Tracer), and the
// executed thread interleaving is recorded as run-length quanta that a
// ReplayScheduler can reproduce exactly.
package vm

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// Address-space layout (word addresses).
const (
	// HeapBase is where SysAlloc starts handing out memory. Globals live
	// in [0, HeapBase).
	HeapBase int64 = 1 << 20
	// StackBase is the bottom of the stack area. Thread t's stack
	// occupies [StackBase + t*StackWords, StackBase + (t+1)*StackWords).
	// Stacks are thread-private by construction, so shared-memory order
	// tracking ignores addresses at or above StackBase.
	StackBase int64 = 1 << 28
	// StackWords is the per-thread stack size.
	StackWords int64 = 1 << 16
	// MaxThreads bounds thread creation.
	MaxThreads = 256
)

// exitSentinel is the pseudo return address at the base of every thread
// stack; RET-ing to it exits the thread.
const exitSentinel int64 = -1

// ThreadStatus is a thread's scheduling state.
type ThreadStatus uint8

// Thread states.
const (
	Runnable ThreadStatus = iota
	BlockedLock
	BlockedJoin
	BlockedCond
	Exited
)

func (s ThreadStatus) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case BlockedLock:
		return "blocked(lock)"
	case BlockedJoin:
		return "blocked(join)"
	case BlockedCond:
		return "blocked(cond)"
	case Exited:
		return "exited"
	}
	return "?"
}

// Thread is one machine thread: a register file, a pc and scheduling
// state. Its stack lives in the shared Memory.
type Thread struct {
	ID     int
	Regs   [isa.NumRegs]int64
	PC     int64
	Status ThreadStatus
	// Count is the number of instructions this thread has executed; the
	// per-thread dynamic instruction index of the next instruction.
	Count int64
	// WaitAddr is the lock cell a BlockedLock thread waits on.
	WaitAddr int64
	// WaitTid is the thread a BlockedJoin thread waits for.
	WaitTid int
	// WaitTicket orders BlockedCond threads FIFO per condition variable.
	WaitTicket int64
	// EntryPC is where the thread started (for diagnostics).
	EntryPC int64
}

// Failure describes an execution fault: assertion failure (the bug
// "symptom" in the paper's terminology), division by zero, bad memory
// access, unlock of an un-held lock, or stack overflow.
type Failure struct {
	Tid    int
	PC     int64
	Idx    int64 // per-thread index of the faulting instruction
	Reason string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("thread %d at pc %d: %s", f.Tid, f.PC, f.Reason)
}

// StopReason says why a machine is no longer running.
type StopReason int

// Stop reasons. StopNone means the machine can still execute.
const (
	StopNone StopReason = iota
	StopHalt            // HALT executed
	StopExit            // every thread exited
	StopFailure
	StopDeadlock
	StopMaxSteps
	StopBudget    // Limits.Steps instruction budget exhausted
	StopDeadline  // Limits.Deadline wall-clock cutoff passed
	StopMemLimit  // Limits.MaxPages resident-memory cap exceeded
	StopCancelled // Limits.Ctx cancelled
)

func (s StopReason) String() string {
	switch s {
	case StopNone:
		return "running"
	case StopHalt:
		return "halt"
	case StopExit:
		return "exit"
	case StopFailure:
		return "failure"
	case StopDeadlock:
		return "deadlock"
	case StopMaxSteps:
		return "max-steps"
	case StopBudget:
		return "budget"
	case StopDeadline:
		return "deadline"
	case StopMemLimit:
		return "mem-limit"
	case StopCancelled:
		return "cancelled"
	}
	return "?"
}

// LimitStop reports whether s was caused by an execution bound (budget,
// deadline, memory cap or cancellation) rather than by the program.
func (s StopReason) LimitStop() bool {
	switch s {
	case StopBudget, StopDeadline, StopMemLimit, StopCancelled:
		return true
	}
	return false
}

// SyscallSource supplies results for the nondeterministic system calls
// (SysRead, SysTime, SysRand). The machine handles the deterministic ones
// (write, alloc, thread-id, yield) itself.
type SyscallSource interface {
	Syscall(tid int, num, arg int64) int64
}

// Config configures a machine.
type Config struct {
	Sched    Scheduler
	Env      SyscallSource
	Tracer   Tracer
	MaxSteps int64 // 0 means no limit
}

// Machine executes a program. Create with New, drive with RunTo (or its
// wrappers StepOne and Run).
type Machine struct {
	Prog    *isa.Program
	Mem     *Memory
	Threads []*Thread

	sched    Scheduler
	env      SyscallSource
	tracer   Tracer
	tracing  bool
	maxSteps int64

	// Execution bounds (SetLimits) and shared-access order gating.
	limits        Limits
	limitsOn      bool
	budgetEnd     int64
	nextSlowCheck int64
	noOrderTrack  bool

	heapNext int64
	output   []int64
	steps    int64

	// Scheduling state.
	curTid      int
	curLeft     int64
	needSched   bool
	runnableBuf []int

	// Executed schedule, run-length encoded. ResetQuanta starts a fresh
	// recording (used by the logger at region entry). The running batch's
	// instructions, steps [runFrom, steps) of thread runTid, are folded in
	// by syncQuanta.
	quanta  []Quantum
	runTid  int
	runFrom int64

	lockWaiters map[int64][]int
	joinWaiters map[int][]int
	condWaiters map[int64][]int
	waitTicket  int64

	// Shared-memory access-order tracking (active while tracing).
	lastAccess map[int64]*accessState

	stopped StopReason
	failure *Failure

	ev     InstrEvent
	paused bool
}

type reader struct {
	tid int
	idx int64
}

type accessState struct {
	hasW    bool
	wTid    int
	wIdx    int64
	readers []reader
}

// New creates a machine for prog. The program's global data initialisers
// are applied and the main thread is created at the entry pc.
func New(prog *isa.Program, cfg Config) *Machine {
	if cfg.Sched == nil {
		cfg.Sched = NewRandomScheduler(1, 1000)
	}
	m := &Machine{
		Prog:        prog,
		Mem:         NewMemory(),
		sched:       cfg.Sched,
		env:         cfg.Env,
		tracer:      cfg.Tracer,
		tracing:     cfg.Tracer != nil,
		maxSteps:    cfg.MaxSteps,
		heapNext:    HeapBase,
		needSched:   true,
		lockWaiters: make(map[int64][]int),
		joinWaiters: make(map[int][]int),
		condWaiters: make(map[int64][]int),
		lastAccess:  make(map[int64]*accessState),
	}
	for _, d := range prog.Data {
		m.Mem.Write(d.Addr, d.Val)
	}
	m.newThread(prog.EntryPC, 0)
	return m
}

// SetTracer replaces the machine's tracer; nil disables tracing.
func (m *Machine) SetTracer(t Tracer) {
	m.tracer = t
	m.tracing = t != nil
}

// SetScheduler replaces the scheduler and forces a rescheduling decision
// before the next instruction.
func (m *Machine) SetScheduler(s Scheduler) {
	m.sched = s
	m.needSched = true
}

// SetEnv replaces the syscall source.
func (m *Machine) SetEnv(e SyscallSource) { m.env = e }

// SetOrderTracking enables or disables shared-memory access-order
// tracking while a tracer is attached. Replay-time observers that do not
// consume order edges (e.g. the checkpoint validator) disable it to avoid
// the per-access map bookkeeping; it is on by default.
func (m *Machine) SetOrderTracking(on bool) { m.noOrderTrack = !on }

// newThread creates a thread running the function at entry with arg in
// Arg0 and returns it.
func (m *Machine) newThread(entry int64, arg int64) *Thread {
	tid := len(m.Threads)
	t := &Thread{ID: tid, PC: entry, EntryPC: entry}
	sp := StackBase + int64(tid+1)*StackWords
	sp--
	m.Mem.Write(sp, exitSentinel)
	t.Regs[isa.SP] = sp
	t.Regs[isa.FP] = sp
	t.Regs[isa.Arg0] = arg
	m.Threads = append(m.Threads, t)
	return t
}

// Output returns the words written with SysWrite so far.
func (m *Machine) Output() []int64 { return m.output }

// Steps returns the total number of instructions executed across threads.
func (m *Machine) Steps() int64 { return m.steps }

// Stopped returns why the machine stopped, or StopNone while it can run.
func (m *Machine) Stopped() StopReason { return m.stopped }

// Failure returns the failure report when Stopped() == StopFailure.
func (m *Machine) Failure() *Failure { return m.failure }

// Quanta returns the schedule executed since the last ResetQuanta (or
// machine creation), run-length encoded.
func (m *Machine) Quanta() []Quantum {
	m.syncQuanta()
	return m.quanta
}

// ResetQuanta discards the recorded schedule and starts a fresh recording
// at the current point; the logger calls this at region entry. The
// scheduler's in-flight quantum is deliberately left untouched: recording
// must not perturb the execution being recorded (the run-length encoding
// is per-instruction and independent of scheduler quanta).
func (m *Machine) ResetQuanta() {
	m.quanta = nil
	m.runFrom = m.steps
}

// ResetSharedTracking clears shared-memory last-access state so that order
// edges recorded after this point only relate accesses inside the region.
func (m *Machine) ResetSharedTracking() {
	m.lastAccess = make(map[int64]*accessState)
}

// Running reports whether the machine can execute another instruction.
func (m *Machine) Running() bool { return m.stopped == StopNone }

// runnable rebuilds and returns the sorted runnable thread list.
func (m *Machine) runnable() []int {
	m.runnableBuf = m.runnableBuf[:0]
	for _, t := range m.Threads {
		if t.Status == Runnable {
			m.runnableBuf = append(m.runnableBuf, t.ID)
		}
	}
	return m.runnableBuf
}

// ensureScheduled picks the next thread if the current quantum is over.
// It returns false if the machine stopped instead (exit or deadlock).
func (m *Machine) ensureScheduled() bool {
	if m.stopped != StopNone {
		return false
	}
	if !m.needSched && m.curLeft > 0 && m.Threads[m.curTid].Status == Runnable {
		return true
	}
	// A quantum was interrupted before being consumed (spawn or yield
	// forces a scheduling decision); hand the remainder back so an
	// exact-replay scheduler stays aligned with the recorded quanta.
	if m.curLeft > 0 && m.curTid < len(m.Threads) && m.Threads[m.curTid].Status == Runnable {
		if pb, ok := m.sched.(QuantumPushback); ok {
			pb.Pushback(m.curTid, m.curLeft)
		}
	}
	m.curLeft = 0
	run := m.runnable()
	if len(run) == 0 {
		for _, t := range m.Threads {
			if t.Status != Exited {
				m.stopped = StopDeadlock
				return false
			}
		}
		m.stopped = StopExit
		return false
	}
	tid, q := m.sched.Pick(run)
	ok := false
	for _, r := range run {
		if r == tid {
			ok = true
			break
		}
	}
	if !ok {
		// A scheduler bug or a divergent replay schedule; fall back to
		// the first runnable thread rather than wedge.
		tid = run[0]
	}
	m.curTid = tid
	m.curLeft = q
	m.needSched = false
	return true
}

// CurThread returns the thread that will execute the next instruction, or
// nil when the machine is stopped. Debuggers use this to test breakpoints
// before stepping.
func (m *Machine) CurThread() *Thread {
	if !m.ensureScheduled() {
		return nil
	}
	return m.Threads[m.curTid]
}

// InFlightQuantum returns the scheduler quantum currently being consumed:
// the running thread and the instructions left before the scheduler is
// consulted again, or (0, 0) when the next step will make a fresh
// scheduling decision. The flight recorder captures it at region entry —
// a region rarely starts on a quantum boundary, and gap bridging must
// resume mid-quantum to reproduce the original schedule.
func (m *Machine) InFlightQuantum() (tid int, left int64) {
	if m.needSched || m.curLeft <= 0 {
		return 0, 0
	}
	return m.curTid, m.curLeft
}

// RunTo is the machine's one execution loop. It executes instructions
// until Steps() reaches stop, the machine stops, or a tracer calls Pause,
// and returns the stop reason (StopNone if the machine can still run).
//
// It makes one scheduling decision per batch and then runs the chosen
// thread's quantum in a tight inner loop: at most the quantum left, the
// steps left to stop, and the steps left to the next limit bound (see
// limitBound). The inner loop needs no per-instruction scheduling check
// because inside a batch only the running thread changes its own status,
// and every such change either returns blocked from step (JOIN, LOCK) or
// sets needSched (SPAWN, WAIT, exitThread; a yield sets it too), and a
// stop sets stopped. Other threads can only become runnable (UNLOCK,
// SIGNAL and exit wake-ups), which never ends the running quantum. A
// tracer must not Restore the machine or replace its scheduler
// mid-batch.
func (m *Machine) RunTo(stop int64) StopReason {
	m.paused = false
	for m.steps < stop && !m.paused {
		if !m.ensureScheduled() {
			break
		}
		t := m.Threads[m.curTid]
		n := min(m.curLeft, stop-m.steps, m.limitBound())
		m.runTid, m.runFrom = t.ID, m.steps
		var done int64
		blocked := false
		for done < n {
			if blocked = m.step(t); blocked || m.stopped != StopNone {
				break
			}
			done++
			if m.needSched || m.paused {
				break
			}
		}
		m.syncQuanta()
		m.curLeft -= done
		if blocked {
			// The attempt consumed no instruction; pick another thread.
			m.curLeft = 0
			m.needSched = true
		}
		if done > 0 && m.stopped == StopNone {
			m.checkLimits()
		}
	}
	return m.stopped
}

// StepOne executes exactly one instruction (of the currently scheduled
// thread) and returns true, or returns false when the machine has stopped
// before or by executing it (halt, failure, exit, deadlock). An
// instruction after which a limit stops the machine still returns true.
// A blocked lock/join attempt does not execute an instruction; the loop
// reschedules and retries in that case.
func (m *Machine) StepOne() bool {
	s := m.steps
	switch m.RunTo(s + 1) {
	case StopHalt, StopFailure:
		return false
	}
	return m.steps > s
}

// Run executes until the machine stops, or a tracer pauses it, and
// returns the stop reason.
func (m *Machine) Run() StopReason {
	return m.RunTo(math.MaxInt64)
}

// Pause makes the running RunTo return after the current instruction.
// Tracers call it from OnInstr (the replay validator does on a fatal
// divergence); the next RunTo resumes normally.
func (m *Machine) Pause() { m.paused = true }

// syncQuanta folds the instructions the running batch has executed so
// far into the run-length schedule. RunTo calls it once per batch, and
// Quanta calls it so that tracers reading the schedule mid-batch see
// every executed instruction.
func (m *Machine) syncQuanta() {
	n := m.steps - m.runFrom
	if n <= 0 {
		return
	}
	m.runFrom = m.steps
	if k := len(m.quanta); k > 0 && m.quanta[k-1].Tid == m.runTid {
		m.quanta[k-1].Count += n
		return
	}
	m.quanta = append(m.quanta, Quantum{Tid: m.runTid, Count: n})
}

// fail stops the machine with a failure report for thread t.
func (m *Machine) fail(t *Thread, idx int64, format string, args ...any) {
	m.failure = &Failure{Tid: t.ID, PC: t.PC, Idx: idx, Reason: fmt.Sprintf(format, args...)}
	m.stopped = StopFailure
}

// wakeLockWaiters makes every thread blocked on addr runnable again; they
// will re-attempt the LOCK when scheduled.
func (m *Machine) wakeLockWaiters(addr int64) {
	for _, tid := range m.lockWaiters[addr] {
		if m.Threads[tid].Status == BlockedLock {
			m.Threads[tid].Status = Runnable
		}
	}
	delete(m.lockWaiters, addr)
}

// exitThread marks t exited and wakes its joiners.
func (m *Machine) exitThread(t *Thread) {
	t.Status = Exited
	for _, tid := range m.joinWaiters[t.ID] {
		if m.Threads[tid].Status == BlockedJoin {
			m.Threads[tid].Status = Runnable
		}
	}
	delete(m.joinWaiters, t.ID)
	m.needSched = true
}

// trackAccess maintains per-address last-accessor state and emits
// happens-before order edges for conflicting cross-thread access pairs —
// the shared-memory access order a pinball must contain (paper §3(ii)).
func (m *Machine) trackAccess(tid int, idx int64, addr int64, isWrite bool) {
	if addr >= StackBase {
		return // stacks are thread-private
	}
	if m.noOrderTrack {
		return
	}
	st := m.lastAccess[addr]
	if st == nil {
		st = &accessState{}
		m.lastAccess[addr] = st
	}
	if isWrite {
		if st.hasW && st.wTid != tid {
			m.tracer.OnOrderEdge(OrderEdge{FromTid: st.wTid, FromIdx: st.wIdx, ToTid: tid, ToIdx: idx, Addr: addr})
		}
		for _, r := range st.readers {
			if r.tid != tid {
				m.tracer.OnOrderEdge(OrderEdge{FromTid: r.tid, FromIdx: r.idx, ToTid: tid, ToIdx: idx, Addr: addr})
			}
		}
		st.hasW = true
		st.wTid = tid
		st.wIdx = idx
		st.readers = st.readers[:0]
		return
	}
	if st.hasW && st.wTid != tid {
		m.tracer.OnOrderEdge(OrderEdge{FromTid: st.wTid, FromIdx: st.wIdx, ToTid: tid, ToIdx: idx, Addr: addr})
	}
	for i := range st.readers {
		if st.readers[i].tid == tid {
			st.readers[i].idx = idx
			return
		}
	}
	st.readers = append(st.readers, reader{tid, idx})
}
