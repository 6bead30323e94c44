package pinball

import (
	"fmt"
	"sort"
)

// Flight-recorder (ring) support. A ring recording bounds what the
// recorder retains: the region is cut into flush windows, every window's
// divergence checkpoints are always kept, but once the retained window
// content (schedule, syscall results, order edges) exceeds the byte
// budget the oldest windows are evicted. Each evicted window leaves an
// Eviction record behind — its global-step span and the windowed FNV-1a
// hash of every instruction event inside it — so a replayer can re-derive
// the missing window by deterministic re-execution (from the Recipe) and
// verify the re-derived content against the retained hash. A hash match
// makes the bridge exact; a mismatch is a typed degraded outcome, never a
// silent wrong answer.

// Eviction records one window the ring recorder dropped: its window id,
// the global region-step span [FromStep, ToStep) it covered, the
// estimated byte span of the dropped content, and the windowed FNV-1a
// hash of every instruction event executed inside the span.
type Eviction struct {
	ID       int64
	FromStep int64 // first global region step of the window
	ToStep   int64 // first global region step after the window
	Bytes    int64 // estimated encoded bytes of the dropped content
	Hash     uint64
}

func (e Eviction) String() string {
	return fmt.Sprintf("window %d steps [%d,%d) ~%dB hash %016x", e.ID, e.FromStep, e.ToStep, e.Bytes, e.Hash)
}

// Span returns the number of region instructions the eviction covers.
func (e Eviction) Span() int64 { return e.ToStep - e.FromStep }

// Recipe captures the resumable nondeterminism state at region entry —
// the exact scheduler and environment state the original recording
// continued from. It is what makes gap bridging possible: re-executing
// the region natively from the pinball's initial state with a resumed
// scheduler/environment reproduces the original execution bit for bit,
// so evicted windows can be re-derived instead of stored.
type Recipe struct {
	// SchedState is the random scheduler's generator state at region
	// entry; MeanQ its mean quantum.
	SchedState uint64
	MeanQ      int64
	// CurTid/CurLeft describe the scheduler quantum in flight when
	// recording started (the region rarely begins on a quantum
	// boundary). CurLeft 0 means no quantum was in flight.
	CurTid  int
	CurLeft int64
	// Environment state at region entry: remaining program input, the
	// input cursor, the rand() generator state and the logical clock.
	EnvInput []int64
	EnvPos   int64
	EnvRand  uint64
	EnvClock int64
}

// ringV1 is the ring section payload (version 2 section, journal ring
// frame):
// everything flight-recorder mode adds to a pinball.
type ringV1 struct {
	RingBytes  int64
	SampleKeep int64
	Evictions  []Eviction
	Recipe     *Recipe
}

// ringWindowV1 is the journal window-seal frame payload: appended when the
// recorder seals a flush window, before it is known whether the window
// will survive the budget. It is what lets Salvage reconstruct a fully
// bridgeable pinball from an interrupted ring journal.
type ringWindowV1 struct {
	ID       int64
	FromStep int64
	ToStep   int64
	Hash     uint64
}

// GapInstrs returns the number of region instructions covered by evicted
// windows — the part of the region a replay must bridge by re-execution.
func (p *Pinball) GapInstrs() int64 {
	var n int64
	for _, e := range p.Evictions {
		n += e.Span()
	}
	return n
}

// Gapped reports whether the pinball has evicted windows and therefore
// needs gap-bridging replay.
func (p *Pinball) Gapped() bool { return len(p.Evictions) > 0 }

// validateRing checks the ring fields' structural invariants; bad is the
// ErrCorrupt wrapper from Validate.
func (p *Pinball) validateRing(bad func(format string, args ...any) error) error {
	if p.RingBytes < 0 || p.SampleKeep < 0 {
		return bad("negative ring configuration")
	}
	if len(p.Evictions) == 0 {
		return nil
	}
	if p.Kind == KindSlice {
		return bad("slice pinball carries ring evictions")
	}
	if p.Recipe == nil {
		return bad("%d evicted windows but no bridge recipe", len(p.Evictions))
	}
	if !sort.SliceIsSorted(p.Evictions, func(i, j int) bool { return p.Evictions[i].FromStep < p.Evictions[j].FromStep }) {
		return bad("eviction manifest out of order")
	}
	var prevEnd int64
	for i, e := range p.Evictions {
		if e.FromStep < 0 || e.ToStep <= e.FromStep {
			return bad("eviction %d has empty step span [%d,%d)", i, e.FromStep, e.ToStep)
		}
		if e.FromStep < prevEnd {
			return bad("eviction %d span [%d,%d) overlaps the previous window", i, e.FromStep, e.ToStep)
		}
		if e.ToStep > p.RegionInstrs {
			return bad("eviction %d span [%d,%d) extends past the region end %d", i, e.FromStep, e.ToStep, p.RegionInstrs)
		}
		prevEnd = e.ToStep
	}
	if p.Recipe != nil && p.Recipe.CurLeft < 0 {
		return bad("bridge recipe has negative in-flight quantum")
	}
	return nil
}
