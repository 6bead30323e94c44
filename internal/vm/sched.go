package vm

// Schedulers decide which runnable thread executes next and for how long.
// The machine records the schedule it actually executed as run-length
// quanta, which is what the PinPlay-style logger stores in pinballs and the
// replay scheduler feeds back.

// Quantum is a run-length encoded schedule step: thread Tid executes Count
// consecutive instructions.
type Quantum struct {
	Tid   int
	Count int64
}

// Scheduler picks the next thread to run. runnable is the sorted list of
// currently runnable thread ids (never empty when Pick is called). Pick
// returns the chosen tid and the maximum number of instructions it may
// execute before the scheduler is consulted again.
type Scheduler interface {
	Pick(runnable []int) (tid int, quantum int64)
}

// RandomScheduler emulates OS scheduling nondeterminism with a seeded
// xorshift generator: uniform thread choice and jittered preemption
// quanta. The same seed yields the same schedule decisions given the same
// sequence of runnable sets, but the intended use is "different seed,
// different interleaving", as on real hardware.
type RandomScheduler struct {
	state   uint64
	MeanQ   int64 // mean quantum length in instructions
	Preempt bool  // if false, runs each thread until it blocks or exits
}

// NewRandomScheduler returns a preemptive scheduler with the given seed
// and a mean quantum of meanQ instructions.
func NewRandomScheduler(seed int64, meanQ int64) *RandomScheduler {
	if meanQ <= 0 {
		meanQ = 1000
	}
	return &RandomScheduler{state: uint64(seed)*2685821657736338717 + 1442695040888963407, MeanQ: meanQ, Preempt: true}
}

// ResumeRandomScheduler reconstructs a scheduler at an exact generator
// state captured with State(). Flight-recorder bridging uses it to
// re-derive evicted schedule windows: a scheduler resumed at the state a
// recording started from makes the same decisions the recording saw.
func ResumeRandomScheduler(state uint64, meanQ int64) *RandomScheduler {
	if meanQ <= 0 {
		meanQ = 1000
	}
	return &RandomScheduler{state: state, MeanQ: meanQ, Preempt: true}
}

// State exposes the generator state for capture and later resumption.
func (s *RandomScheduler) State() uint64 { return s.state }

func (s *RandomScheduler) next() uint64 {
	x := s.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.state = x
	return x
}

// Pick implements Scheduler.
func (s *RandomScheduler) Pick(runnable []int) (int, int64) {
	tid := runnable[int(s.next()%uint64(len(runnable)))]
	if !s.Preempt {
		return tid, 1 << 62
	}
	// Quantum in [MeanQ/2, 3*MeanQ/2) keeps preemption frequent but not
	// degenerate.
	q := s.MeanQ/2 + int64(s.next()%uint64(s.MeanQ))
	if q < 1 {
		q = 1
	}
	return tid, q
}

// QuantumPushback is implemented by schedulers that need to be told when
// the machine interrupts a quantum before it is fully consumed (thread
// creation and yields force a scheduling decision mid-quantum). The
// remaining count is handed back so an exact-replay scheduler does not
// lose it.
type QuantumPushback interface {
	Pushback(tid int, remaining int64)
}

// ReplayScheduler replays a recorded quantum sequence exactly, which is
// how the PinPlay replayer reproduces the logged thread interleaving.
type ReplayScheduler struct {
	quanta  []Quantum
	pos     int
	pending Quantum // pushed-back remainder of an interrupted quantum
}

// NewReplayScheduler returns a scheduler that replays quanta in order.
func NewReplayScheduler(quanta []Quantum) *ReplayScheduler {
	return &ReplayScheduler{quanta: quanta}
}

// Pushback implements QuantumPushback.
func (s *ReplayScheduler) Pushback(tid int, remaining int64) {
	s.pending = Quantum{Tid: tid, Count: remaining}
}

// Pick implements Scheduler. After the recorded schedule is exhausted it
// falls back to the first runnable thread, which only matters if a tool
// keeps executing past the recorded region.
func (s *ReplayScheduler) Pick(runnable []int) (int, int64) {
	if s.pending.Count > 0 {
		q := s.pending
		s.pending = Quantum{}
		for _, tid := range runnable {
			if tid == q.Tid {
				return q.Tid, q.Count
			}
		}
		// The interrupted thread is no longer runnable; drop the
		// remainder (cannot happen for spawn/yield interrupts).
	}
	for s.pos < len(s.quanta) {
		q := s.quanta[s.pos]
		s.pos++
		if q.Count <= 0 {
			continue
		}
		return q.Tid, q.Count
	}
	return runnable[0], 1 << 62
}

// RoundRobinScheduler cycles through runnable threads with a fixed
// quantum. Deterministic; used by tests and by Maple's profiling phase.
type RoundRobinScheduler struct {
	QuantumLen int64
	last       int
}

// Pick implements Scheduler.
func (s *RoundRobinScheduler) Pick(runnable []int) (int, int64) {
	q := s.QuantumLen
	if q <= 0 {
		q = 100
	}
	for _, tid := range runnable {
		if tid > s.last {
			s.last = tid
			return tid, q
		}
	}
	s.last = runnable[0]
	return runnable[0], q
}
