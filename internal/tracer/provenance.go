package tracer

import "sort"

// Trace provenance. A trace collected from a flight-recorder (ring)
// replay is not uniformly trustworthy: instructions inside evicted
// windows were re-derived by gap-bridging re-execution rather than read
// back from recorded streams. When the re-derived window verified
// against its retained divergence hash the content is exact up to hash
// collision ("bridged"); when verification failed but the replay was
// allowed to continue, the content is merely an estimate. The trace
// carries this as an overlay of gap spans keyed by global region step,
// so the slicer can tag every dependence edge that touches one.

// Provenance classifies how the events behind a trace entry (or a
// dependence edge) were obtained.
type Provenance uint8

const (
	// ProvExact content was replayed from recorded streams.
	ProvExact Provenance = iota
	// ProvBridged content was re-derived by gap-bridging re-execution and
	// verified against the retained window hash.
	ProvBridged
	// ProvEstimated content was re-derived but failed hash verification:
	// it is a best-effort estimate, not a proven replay.
	ProvEstimated
)

func (p Provenance) String() string {
	switch p {
	case ProvExact:
		return "exact"
	case ProvBridged:
		return "bridged"
	case ProvEstimated:
		return "estimated"
	}
	return "invalid"
}

// Confidence is the per-edge confidence weight the slicer attaches to
// each provenance class.
func (p Provenance) Confidence() float64 {
	switch p {
	case ProvBridged:
		return 0.9
	case ProvEstimated:
		return 0.3
	}
	return 1.0
}

// GapSpan is one evicted window's span in global region steps: the
// instructions numbered (From, To] were re-derived by bridging.
// Estimated marks spans whose hash verification failed.
type GapSpan struct {
	From      int64
	To        int64
	Estimated bool
}

// SetGaps installs the gap overlay (spans must be sorted by From and
// non-overlapping, as a pinball's eviction manifest is).
func (t *Trace) SetGaps(gaps []GapSpan) { t.Gaps = gaps }

// StepOf returns the 1-based global region step of a trace entry, or 0
// when the trace carries no step table for it: the last run starting at
// or before the entry, offset by the entry's distance into that run.
func (t *Trace) StepOf(r Ref) int64 {
	runs := t.Steps[int(r.Tid)]
	if r.Pos < 0 || int(r.Pos) >= len(t.Locals[int(r.Tid)]) {
		return 0
	}
	i := sort.Search(len(runs), func(i int) bool { return runs[i].Pos > r.Pos }) - 1
	if i < 0 {
		return 0
	}
	return runs[i].Step + int64(r.Pos-runs[i].Pos)
}

// ProvenanceOf classifies one trace entry against the gap overlay.
func (t *Trace) ProvenanceOf(r Ref) Provenance {
	if len(t.Gaps) == 0 {
		return ProvExact
	}
	step := t.StepOf(r)
	if step == 0 {
		return ProvExact
	}
	// First span whose To covers the step, then check its From.
	i := sort.Search(len(t.Gaps), func(i int) bool { return t.Gaps[i].To >= step })
	if i == len(t.Gaps) || t.Gaps[i].From >= step {
		return ProvExact
	}
	if t.Gaps[i].Estimated {
		return ProvEstimated
	}
	return ProvBridged
}
