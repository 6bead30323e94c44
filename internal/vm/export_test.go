package vm

import "time"

// RefStepOne is the one-instruction loop that RunTo replaced, kept as
// the differential tests' reference: per instruction it makes the
// scheduling check, steps, extends the run-length schedule and runs the
// MaxSteps and limit checks. A yield sets needSched inside step itself,
// where the old loop converted a yield request after the instruction;
// nothing reads the flag in between.
func (m *Machine) RefStepOne() bool {
	for {
		if !m.ensureScheduled() {
			return false
		}
		t := m.Threads[m.curTid]
		// A tracer reading Quanta mid-instruction folds the instruction
		// in through syncQuanta; otherwise it is recorded here.
		m.runTid, m.runFrom = t.ID, m.steps
		blocked := m.step(t)
		if m.runFrom < m.steps {
			m.refRecordQuantum(t.ID)
		}
		if m.stopped != StopNone {
			return m.stopped == StopNone
		}
		if blocked {
			// The attempt consumed no instruction; pick another thread.
			m.curLeft = 0
			m.needSched = true
			continue
		}
		m.curLeft--
		if m.maxSteps > 0 && m.steps >= m.maxSteps {
			m.stopped = StopMaxSteps
		}
		if m.limitsOn && m.stopped == StopNone {
			m.refCheckLimits()
		}
		return true
	}
}

// refRecordQuantum extends the run-length schedule with one instruction
// of tid.
func (m *Machine) refRecordQuantum(tid int) {
	m.runFrom = m.steps
	if n := len(m.quanta); n > 0 && m.quanta[n-1].Tid == tid {
		m.quanta[n-1].Count++
		return
	}
	m.quanta = append(m.quanta, Quantum{Tid: tid, Count: 1})
}

// refCheckLimits is the per-instruction limit check the old loop ran:
// the budget every instruction, the clock/context/memory checks every
// slowCheckStride instructions.
func (m *Machine) refCheckLimits() {
	if m.budgetEnd > 0 && m.steps >= m.budgetEnd {
		m.stopped = StopBudget
		return
	}
	if m.steps < m.nextSlowCheck {
		return
	}
	m.nextSlowCheck = m.steps + slowCheckStride
	if !m.limits.Deadline.IsZero() && time.Now().After(m.limits.Deadline) {
		m.stopped = StopDeadline
		return
	}
	if m.limits.Ctx != nil {
		select {
		case <-m.limits.Ctx.Done():
			m.stopped = StopCancelled
			return
		default:
		}
	}
	if m.limits.MaxPages > 0 && m.Mem.Pages() > m.limits.MaxPages {
		m.stopped = StopMemLimit
	}
}
