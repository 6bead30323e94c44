package vm

import (
	"context"
	"math"
	"time"
)

// Limits bounds an execution so that a malformed or tampered pinball can
// never wedge a tool: an instruction budget, a wall-clock deadline, a
// resident-memory cap and an optional cancellation context. The zero
// value imposes no bounds. The run loop checks them between batches and
// ends every batch on the instruction at which a check is due (see
// limitBound): the budget after its last instruction, the
// clock/context/memory ones every slowCheckStride instructions, so the
// hot path carries no per-instruction check.
type Limits struct {
	// Steps is the instruction budget, counted from the moment the
	// limits are applied (0 = unlimited).
	Steps int64
	// Deadline is the wall-clock cutoff (zero = none).
	Deadline time.Time
	// MaxPages caps the machine's resident memory in pages (0 = none).
	MaxPages int
	// Ctx cancels the execution when done (nil = none).
	Ctx context.Context
}

// Timeout is a convenience constructor: an instruction budget plus a
// deadline d from now. Either argument may be zero for "unbounded".
func Timeout(steps int64, d time.Duration) Limits {
	l := Limits{Steps: steps}
	if d > 0 {
		l.Deadline = time.Now().Add(d)
	}
	return l
}

// active reports whether any bound is set.
func (l Limits) active() bool {
	return l.Steps > 0 || !l.Deadline.IsZero() || l.MaxPages > 0 || l.Ctx != nil
}

// slowCheckStride is how many instructions run between wall-clock,
// context and memory-cap checks.
const slowCheckStride = 4096

// SetLimits applies (or, with the zero value, clears) execution bounds.
// The instruction budget is relative to the machine's current step count,
// so replay tools can bound just the replayed region.
func (m *Machine) SetLimits(l Limits) {
	m.limits = l
	m.limitsOn = l.active()
	m.budgetEnd = 0
	if l.Steps > 0 {
		m.budgetEnd = m.steps + l.Steps
	}
	// First executed instruction performs a slow check, so an
	// already-expired deadline or cancelled context stops immediately.
	m.nextSlowCheck = m.steps
}

// Limits returns the currently applied execution bounds.
func (m *Machine) Limits() Limits { return m.limits }

// limitBound returns how many instructions the next batch may run
// before a bound is due: MaxSteps, the budget or the next slow check.
// Batches end on exactly the instruction after which a per-instruction
// check would fire, so a budget of N runs exactly N instructions and a
// deadline is first checked after the first instruction.
func (m *Machine) limitBound() int64 {
	n := int64(math.MaxInt64)
	if m.maxSteps > 0 {
		n = m.maxSteps - m.steps
	}
	if m.limitsOn {
		if m.budgetEnd > 0 {
			n = min(n, m.budgetEnd-m.steps)
		}
		n = min(n, m.nextSlowCheck-m.steps)
	}
	return max(n, 1)
}

// checkLimits enforces MaxSteps and the applied bounds; RunTo calls it
// after every batch that executed an instruction and left the machine
// running.
func (m *Machine) checkLimits() {
	if m.maxSteps > 0 && m.steps >= m.maxSteps {
		m.stopped = StopMaxSteps
		return
	}
	if !m.limitsOn {
		return
	}
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
