package core

import (
	"fmt"

	"repro/internal/pinplay"
	"repro/internal/vm"
)

// ReverseReplayer adds reverse debugging on top of deterministic replay,
// the way the paper's related-work section proposes for DrDebug:
// checkpoint the replay periodically during forward motion, and
// implement every backward command as "restore the nearest earlier
// checkpoint, then replay forward" — user-level check-pointing rather
// than OS support. The checkpoints are pinplay.Cursor states, so the
// replay is verified against the pinball's divergence checkpoints like
// any other.
//
// Positions are measured in instructions executed since region entry.
type ReverseReplayer struct {
	c           *pinplay.Cursor
	interval    int64
	checkpoints []*pinplay.CursorState
}

// DefaultCheckpointInterval is the spacing between reverse-debugging
// checkpoints, in executed instructions.
const DefaultCheckpointInterval int64 = 10_000

// NewReverseReplayer prepares a reverse-capable replay of the session's
// pinball (the bridged one, for a flight-recorder pinball). interval is
// the checkpoint spacing (0 uses the default).
func (s *Session) NewReverseReplayer(interval int64) (*ReverseReplayer, error) {
	if interval <= 0 {
		interval = DefaultCheckpointInterval
	}
	pb, err := s.effective()
	if err != nil {
		return nil, err
	}
	r := &ReverseReplayer{c: pinplay.NewCursor(s.Prog, pb, pinplay.ReplayOptions{}), interval: interval}
	// Checkpoint 0 is the region entry itself.
	if err := r.checkpoint(); err != nil {
		return nil, err
	}
	return r, nil
}

// Machine returns the machine at the current position.
func (r *ReverseReplayer) Machine() *vm.Machine { return r.c.Machine() }

// Executed returns the current position (instructions since region
// entry).
func (r *ReverseReplayer) Executed() int64 { return r.c.Pos() }

// Total returns the region length.
func (r *ReverseReplayer) Total() int64 { return r.c.Total() }

// Checkpoints returns how many checkpoints have been taken.
func (r *ReverseReplayer) Checkpoints() int { return len(r.checkpoints) }

func (r *ReverseReplayer) checkpoint() error {
	st, err := r.c.Snapshot()
	if err != nil {
		return err
	}
	r.checkpoints = append(r.checkpoints, st)
	return nil
}

// nextCheckpoint returns the position of the next checkpoint to take.
func (r *ReverseReplayer) nextCheckpoint() int64 {
	return r.checkpoints[len(r.checkpoints)-1].Pos() + r.interval
}

// maybeCheckpoint takes the periodic checkpoint when it is due.
func (r *ReverseReplayer) maybeCheckpoint() error {
	if r.c.Machine().Running() && r.c.Pos() >= r.nextCheckpoint() {
		return r.checkpoint()
	}
	return nil
}

// StepForward executes one instruction and takes the periodic
// checkpoint. It returns false at region end or machine stop; at region
// end the replay's end-of-region checks run, and their failure (or a
// divergence) is the error.
func (r *ReverseReplayer) StepForward() (bool, error) {
	ok, err := r.c.Step()
	if err != nil {
		return false, err
	}
	if err := r.maybeCheckpoint(); err != nil {
		return false, err
	}
	return ok && r.c.Machine().Running(), nil
}

// RunTo moves the current position to target (in executed instructions),
// forward or backward. Backward motion restores the nearest earlier
// checkpoint and replays forward.
func (r *ReverseReplayer) RunTo(target int64) error {
	target = max(0, min(target, r.Total()))
	if target < r.c.Pos() {
		i := len(r.checkpoints) - 1
		for r.checkpoints[i].Pos() > target {
			i--
		}
		r.c.Restore(r.checkpoints[i])
	}
	for r.c.Pos() < target {
		next := target
		if cp := r.nextCheckpoint(); cp > r.c.Pos() && cp < next {
			next = cp
		}
		if err := r.c.RunTo(next); err != nil {
			return err
		}
		if r.c.Pos() < next {
			return fmt.Errorf("core: replay stopped at %d before reaching %d", r.c.Pos(), target)
		}
		if err := r.maybeCheckpoint(); err != nil {
			return err
		}
	}
	return nil
}

// StepBack moves n instructions backwards.
func (r *ReverseReplayer) StepBack(n int64) error {
	if n <= 0 {
		n = 1
	}
	return r.RunTo(r.c.Pos() - n)
}
