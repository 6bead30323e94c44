package faultinject

import (
	"fmt"

	"repro/internal/vm"
)

// Crash-point injection. Where the corruptor suites damage content, the
// crash-point suite simulates the process dying mid-write: a file torn
// at every structurally interesting byte offset — each frame boundary,
// inside each frame header, and mid-payload of each frame. The contract
// under test is the durability model's: pinball.Decode rejects every
// torn file with a typed error, and pinball.Salvage either recovers a
// checkpoint-consistent prefix that replays bit-identically to the
// original, or refuses with ErrUnsalvageable — never a hang, never a
// silently wrong pinball.

// CrashPoint is one simulated crash: the file cut at Off bytes.
type CrashPoint struct {
	Name string
	Off  int64
}

// CrashPoints enumerates the tear offsets of a version 2 to 4 pinball
// file (the versions pinball.SectionOffsets walks): before each frame,
// inside each frame header, and mid-payload of each frame, plus one
// byte short of a complete file. Returns nil when the bytes have no
// parsable framing.
func CrashPoints(data []byte) []CrashPoint {
	secs := sections(data)
	if secs == nil {
		return nil
	}
	var pts []CrashPoint
	for i, s := range secs {
		at := func(what string, off int64) CrashPoint {
			return CrashPoint{Name: fmt.Sprintf("%s-frame%d-id%d", what, i+1, s.ID), Off: off}
		}
		pts = append(pts,
			at("before", s.Off),
			at("in-header", s.Off+sectionHeaderLen/2),
			at("mid-payload", s.Off+sectionHeaderLen+(s.Len-sectionHeaderLen)/2),
		)
	}
	if n := int64(len(data)); n > 0 {
		pts = append(pts, CrashPoint{Name: "end-minus-1", Off: n - 1})
	}
	return pts
}

// TornCopy returns a copy of the file bytes cut at the crash point.
func TornCopy(data []byte, cp CrashPoint) []byte {
	return clone(data[:cp.Off])
}

// PanicTracer panics at the After'th observed instruction — a stand-in
// for a buggy analysis pass blowing up mid-replay. The supervisor must
// isolate it into a typed session error.
type PanicTracer struct {
	vm.NopTracer
	After int64
	n     int64
}

func (p *PanicTracer) OnInstr(ev *vm.InstrEvent) {
	p.n++
	if p.n >= p.After {
		panic(fmt.Sprintf("faultinject: injected tracer panic at instruction %d", p.n))
	}
}

// StallTracer blocks at the After'th observed instruction until Release
// is closed — a hung analysis pass for watchdog testing. Callers must
// close Release (e.g. in a test cleanup) so the abandoned replay
// goroutine can finish. Stalled, when non-nil, is closed as the tracer
// blocks, so a test can wait until the stall has really begun.
type StallTracer struct {
	vm.NopTracer
	After   int64
	Release chan struct{}
	Stalled chan struct{}
	n       int64
}

func (s *StallTracer) OnInstr(ev *vm.InstrEvent) {
	s.n++
	if s.n == s.After {
		if s.Stalled != nil {
			close(s.Stalled)
		}
		<-s.Release
	}
}
