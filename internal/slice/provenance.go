package slice

import (
	"fmt"

	"repro/internal/tracer"
)

// Slice provenance. When the trace behind a slice came from a
// flight-recorder replay, some of its entries were re-derived by gap
// bridging instead of replayed from recorded streams (see
// tracer.Provenance). AnnotateProvenance is a post-pass over a finished
// slice: it tags every member and dependence edge with the worst
// provenance it touches and attaches a summary. Running it after the
// traversal — rather than inside the engines — keeps the sequential and
// parallel slicers bit-identical and provenance purely additive.

// ProvSummary is a slice's provenance breakdown.
type ProvSummary struct {
	ExactMembers     int `json:"exact_members"`
	BridgedMembers   int `json:"bridged_members,omitempty"`
	EstimatedMembers int `json:"estimated_members,omitempty"`

	ExactEdges     int `json:"exact_edges"`
	BridgedEdges   int `json:"bridged_edges,omitempty"`
	EstimatedEdges int `json:"estimated_edges,omitempty"`

	// MinConfidence is the lowest edge confidence in the slice (1.0 when
	// every edge is exact, or when the slice has no edges at all).
	MinConfidence float64 `json:"min_confidence"`
}

// Exact reports whether every member and edge replayed from recorded
// streams — the slice is as trustworthy as a full-trace slice.
func (p *ProvSummary) Exact() bool {
	return p.BridgedMembers == 0 && p.EstimatedMembers == 0 &&
		p.BridgedEdges == 0 && p.EstimatedEdges == 0
}

// Degraded reports whether the slice touches estimated (hash-unverified)
// content.
func (p *ProvSummary) Degraded() bool {
	return p.EstimatedMembers > 0 || p.EstimatedEdges > 0
}

func (p *ProvSummary) String() string {
	return fmt.Sprintf("members exact=%d bridged=%d estimated=%d; edges exact=%d bridged=%d estimated=%d; min confidence %.2f",
		p.ExactMembers, p.BridgedMembers, p.EstimatedMembers,
		p.ExactEdges, p.BridgedEdges, p.EstimatedEdges, p.MinConfidence)
}

// edgeProvenance is the worst provenance among an edge's endpoints.
func edgeProvenance(tr *tracer.Trace, d DepEdge) tracer.Provenance {
	p := tr.ProvenanceOf(d.From)
	if q := tr.ProvenanceOf(d.To); q > p {
		p = q
	}
	return p
}

// AnnotateProvenance tags a finished slice against the trace's gap
// overlay and attaches the summary. It is idempotent, deterministic and
// independent of which engine produced the slice. Slices over gap-free
// traces get an all-exact summary.
func AnnotateProvenance(tr *tracer.Trace, sl *Slice) {
	sum := &ProvSummary{MinConfidence: 1.0}
	for _, m := range sl.Members {
		switch tr.ProvenanceOf(m) {
		case tracer.ProvExact:
			sum.ExactMembers++
		case tracer.ProvBridged:
			sum.BridgedMembers++
		case tracer.ProvEstimated:
			sum.EstimatedMembers++
		}
	}
	deps := sl.Deps()
	for i := range deps {
		p := edgeProvenance(tr, deps[i])
		deps[i].Provenance = p
		deps[i].Confidence = p.Confidence()
		switch p {
		case tracer.ProvExact:
			sum.ExactEdges++
		case tracer.ProvBridged:
			sum.BridgedEdges++
		case tracer.ProvEstimated:
			sum.EstimatedEdges++
		}
		if c := p.Confidence(); c < sum.MinConfidence {
			sum.MinConfidence = c
		}
	}
	sl.Prov = sum
}

// checkProvenance verifies an annotated slice's provenance consistency:
// every edge tag is the worst of its endpoints' provenance with the
// matching confidence, and the summary counts add up. Unannotated slices
// must not carry provenance tags at all.
func (s *Slicer) checkProvenance(sl *Slice) error {
	if sl.Prov == nil {
		for i, d := range sl.Deps() {
			if d.Provenance != tracer.ProvExact || d.Confidence != 0 {
				return fmt.Errorf("slice: unannotated slice carries provenance on dep %d: %v/%.2f", i, d.Provenance, d.Confidence)
			}
		}
		return nil
	}
	var want ProvSummary
	want.MinConfidence = 1.0
	for _, m := range sl.Members {
		switch s.Trace.ProvenanceOf(m) {
		case tracer.ProvExact:
			want.ExactMembers++
		case tracer.ProvBridged:
			want.BridgedMembers++
		case tracer.ProvEstimated:
			want.EstimatedMembers++
		}
	}
	for i, d := range sl.Deps() {
		p := edgeProvenance(s.Trace, d)
		if d.Provenance != p {
			return fmt.Errorf("slice: dep %d tagged %v, endpoints say %v", i, d.Provenance, p)
		}
		if d.Confidence != p.Confidence() {
			return fmt.Errorf("slice: dep %d confidence %.2f does not match provenance %v", i, d.Confidence, p)
		}
		switch p {
		case tracer.ProvExact:
			want.ExactEdges++
		case tracer.ProvBridged:
			want.BridgedEdges++
		case tracer.ProvEstimated:
			want.EstimatedEdges++
		}
		if c := p.Confidence(); c < want.MinConfidence {
			want.MinConfidence = c
		}
	}
	if *sl.Prov != want {
		return fmt.Errorf("slice: provenance summary %+v does not match recomputation %+v", *sl.Prov, want)
	}
	if len(s.Trace.Gaps) == 0 && !sl.Prov.Exact() {
		return fmt.Errorf("slice: gap-free trace produced non-exact provenance: %v", sl.Prov)
	}
	return nil
}
