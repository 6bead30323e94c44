package core

import (
	"fmt"

	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/vm"
)

// StepPoint describes where a slice-stepping session stopped: the slice
// member instruction that just executed, with its source position and the
// value it computed (for instructions that produce one).
type StepPoint struct {
	Tid  int
	PC   int64
	Idx  int64
	Line int32
	Src  string
	// HasValue/Value give the freshly computed value at this point: the
	// written register or memory word.
	HasValue bool
	Value    int64
}

// Stepper replays an execution slice and stops at each slice member,
// letting the user "step from the execution of one statement in the slice
// to the next while examining values of program variables" — the paper's
// capability that no prior slicing tool provides.
type Stepper struct {
	sess    *Session
	runner  *pinplay.Cursor
	members map[memberKey]bool
	watch   *stepWatcher
	lastSrc string
}

type memberKey struct {
	tid int
	idx int64
}

type stepWatcher struct {
	vm.NopTracer
	last vm.InstrEvent
	seen bool
}

func (w *stepWatcher) OnInstr(ev *vm.InstrEvent) {
	w.last = *ev
	w.seen = true
}

// NewStepper builds a stepper from a slice: it generates (or reuses) the
// slice pinball and prepares the slice replay.
func (s *Session) NewStepper(sl *slice.Slice) (*Stepper, error) {
	spb, _, err := s.ExecutionSlice(sl)
	if err != nil {
		return nil, err
	}
	return s.NewStepperFromPinball(spb, sl)
}

// NewStepperFromPinball builds a stepper from an existing slice pinball
// and the slice it was generated from.
func (s *Session) NewStepperFromPinball(spb *pinball.Pinball, sl *slice.Slice) (*Stepper, error) {
	if spb.Kind != pinball.KindSlice {
		return nil, fmt.Errorf("core: stepper needs a slice pinball, got %q", spb.Kind)
	}
	tr, err := s.Trace()
	if err != nil {
		return nil, err
	}
	members := make(map[memberKey]bool, len(sl.Members))
	for _, m := range sl.Members {
		members[memberKey{int(m.Tid), tr.Entry(m).Idx}] = true
	}
	w := &stepWatcher{}
	return &Stepper{
		sess:    s,
		runner:  pinplay.NewCursor(s.Prog, spb, pinplay.ReplayOptions{Tracer: w}),
		members: members,
		watch:   w,
	}, nil
}

// Machine exposes the replayed machine for state examination (the
// "examine program state at each point" half of the workflow).
func (st *Stepper) Machine() *vm.Machine { return st.runner.Machine() }

// point converts the watcher's last event into a StepPoint.
func (st *Stepper) point() *StepPoint {
	ev := &st.watch.last
	p := &StepPoint{
		Tid:  ev.Tid,
		PC:   ev.PC,
		Idx:  ev.Idx,
		Line: ev.Instr.Line,
		Src:  st.sess.Prog.SourceOf(ev.PC),
	}
	if ev.EffAddr >= 0 && ev.MemIsWrite {
		p.HasValue = true
		p.Value = ev.MemVal
	} else if defs := ev.Instr.RegDefs(nil); len(defs) > 0 {
		p.HasValue = true
		p.Value = st.runner.Machine().Threads[ev.Tid].Regs[defs[0]]
	}
	return p
}

// NextInstr advances to the next slice-member instruction and returns it,
// or nil when the slice replay is complete.
func (st *Stepper) NextInstr() (*StepPoint, error) {
	for {
		st.watch.seen = false
		ok, err := st.runner.Step()
		if err != nil {
			return nil, err
		}
		if st.watch.seen {
			ev := &st.watch.last
			if st.members[memberKey{ev.Tid, ev.Idx}] {
				p := st.point()
				st.lastSrc = p.Src
				return p, nil
			}
		}
		if !ok {
			return nil, nil
		}
	}
}

// NextStatement advances to the next slice member whose source position
// differs from the previous stop — statement-level slice stepping.
func (st *Stepper) NextStatement() (*StepPoint, error) {
	prev := st.lastSrc
	for {
		p, err := st.NextInstr()
		if err != nil || p == nil {
			return p, err
		}
		if p.Src != prev {
			return p, nil
		}
	}
}

// ReadVar reads the current value of a named global variable from the
// stepped machine.
func (st *Stepper) ReadVar(name string) (int64, error) {
	sym := st.sess.Prog.SymbolByName(name)
	if sym == nil {
		return 0, fmt.Errorf("core: no global variable %q", name)
	}
	return st.runner.Machine().Mem.Read(sym.Addr), nil
}
