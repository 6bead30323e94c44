package faultinject

import (
	"sync/atomic"
	"time"

	"repro/internal/vm"
)

// SleepTracer is a self-releasing stall: it blocks the replay for a
// fixed duration at the After'th observed instruction. Unlike
// StallTracer it needs no external Release, which makes it safe to
// inject into a daemon where nobody holds a handle to the session — the
// watchdog fires, the abandoned goroutine wakes up For later and exits
// on its own.
type SleepTracer struct {
	vm.NopTracer
	After int64
	For   time.Duration
	n     int64
}

func (s *SleepTracer) OnInstr(ev *vm.InstrEvent) {
	s.n++
	if s.n == s.After {
		time.Sleep(s.For)
	}
}

// FlakyTracer panics the first Failures times the execution reaches its
// After'th observed instruction, then behaves forever after: a
// transient fault a retry policy rides out. The instruction count
// resets on each panic, so every retry attempt reaches the same
// injection point.
type FlakyTracer struct {
	vm.NopTracer
	// Failures is how many times the tracer panics before going quiet.
	Failures int64
	// After is the observed-instruction offset of each injected panic.
	After  int64
	n      int64
	thrown atomic.Int64
}

func (f *FlakyTracer) OnInstr(ev *vm.InstrEvent) {
	f.n++
	if f.n == f.After && f.thrown.Add(1) <= f.Failures {
		f.n = 0
		panic("faultinject: injected transient panic")
	}
}

// SessionChaos schedules fault injection across a stream of daemon
// sessions: every PanicEveryN'th replaying session gets a panicking
// observer, every StallEveryN'th a stalling one. The counter is shared
// and atomic, so concurrent sessions draw deterministic-in-aggregate
// faults (exactly 1/N of sessions each kind) without coordination.
type SessionChaos struct {
	// PanicEveryN injects a panicking observer into every Nth session
	// (0 = never).
	PanicEveryN int64
	// StallEveryN injects a stalling observer into every Nth session
	// (0 = never); StallFor is how long it blocks (it must exceed the
	// server's watchdog for the stall to be observable as a timeout).
	StallEveryN int64
	StallFor    time.Duration

	n atomic.Int64
}

// Tracer returns the fault to inject into the next session, nil for
// most. It has the signature sessiond's Config.Chaos hook expects.
func (c *SessionChaos) Tracer(op string) vm.Tracer {
	k := c.n.Add(1)
	if c.PanicEveryN > 0 && k%c.PanicEveryN == 0 {
		return &PanicTracer{After: 40}
	}
	if c.StallEveryN > 0 && k%c.StallEveryN == 0 {
		return &SleepTracer{After: 40, For: c.StallFor}
	}
	return nil
}
