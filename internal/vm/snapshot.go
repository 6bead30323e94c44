package vm

import (
	"sort"

	"repro/internal/isa"
)

// ThreadState is the serialisable state of one thread, captured at a
// region boundary and stored inside pinballs.
type ThreadState struct {
	ID         int
	Regs       [isa.NumRegs]int64
	PC         int64
	Status     ThreadStatus
	Count      int64
	WaitAddr   int64
	WaitTid    int
	WaitTicket int64
	EntryPC    int64
}

// MachineState is a full architectural snapshot: memory image, all thread
// states, the allocator cursor and the output written so far. It is what
// the PinPlay logger captures at region entry ("initial architecture
// state").
type MachineState struct {
	Mem        Image
	Threads    []ThreadState
	HeapNext   int64
	Output     []int64
	Steps      int64
	WaitTicket int64
}

// Snapshot captures the machine's current architectural state.
func (m *Machine) Snapshot() *MachineState {
	st := &MachineState{
		Mem:        m.Mem.Snapshot(),
		HeapNext:   m.heapNext,
		Output:     append([]int64(nil), m.output...),
		Steps:      m.steps,
		WaitTicket: m.waitTicket,
	}
	for _, t := range m.Threads {
		st.Threads = append(st.Threads, ThreadState{
			ID: t.ID, Regs: t.Regs, PC: t.PC, Status: t.Status,
			Count: t.Count, WaitAddr: t.WaitAddr, WaitTid: t.WaitTid,
			WaitTicket: t.WaitTicket, EntryPC: t.EntryPC,
		})
	}
	return st
}

// Restore replaces the machine's architectural state with st and rebuilds
// the waiter queues from the thread statuses. The scheduler is forced to
// make a fresh decision; recorded quanta and shared-access tracking are
// reset.
func (m *Machine) Restore(st *MachineState) {
	m.Mem.Restore(st.Mem)
	m.heapNext = st.HeapNext
	m.output = append([]int64(nil), st.Output...)
	m.steps = st.Steps
	m.Threads = m.Threads[:0]
	m.lockWaiters = make(map[int64][]int)
	m.joinWaiters = make(map[int][]int)
	m.condWaiters = make(map[int64][]int)
	m.waitTicket = st.WaitTicket
	var condBlocked []*Thread
	for _, ts := range st.Threads {
		t := &Thread{
			ID: ts.ID, Regs: ts.Regs, PC: ts.PC, Status: ts.Status,
			Count: ts.Count, WaitAddr: ts.WaitAddr, WaitTid: ts.WaitTid,
			WaitTicket: ts.WaitTicket, EntryPC: ts.EntryPC,
		}
		m.Threads = append(m.Threads, t)
		switch t.Status {
		case BlockedLock:
			m.lockWaiters[t.WaitAddr] = append(m.lockWaiters[t.WaitAddr], t.ID)
		case BlockedJoin:
			m.joinWaiters[t.WaitTid] = append(m.joinWaiters[t.WaitTid], t.ID)
		case BlockedCond:
			condBlocked = append(condBlocked, t)
		}
	}
	// Rebuild condition-variable FIFOs in wait order.
	sort.Slice(condBlocked, func(i, j int) bool {
		return condBlocked[i].WaitTicket < condBlocked[j].WaitTicket
	})
	for _, t := range condBlocked {
		m.condWaiters[t.WaitAddr] = append(m.condWaiters[t.WaitAddr], t.ID)
	}
	m.quanta = nil
	m.runFrom = m.steps
	m.curLeft = 0
	m.needSched = true
	m.stopped = StopNone
	m.failure = nil
	m.lastAccess = make(map[int64]*accessState)
}

// NewFromState creates a machine for prog starting at the captured state
// rather than at program entry — how the replayer "runs off a pinball".
func NewFromState(prog *isa.Program, st *MachineState, cfg Config) *Machine {
	m := New(prog, cfg)
	m.Restore(st)
	return m
}
