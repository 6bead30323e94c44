package slice

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/fnv1a"
	"repro/internal/tracer"
)

// This file is the distributed face of the parallel engine: a backward
// slice query that can be suspended at a window boundary, serialised,
// and resumed by a different process holding an engine built from the
// same pinball. The fleet coordinator uses it to fan one query's window
// ranges out across workers and to re-dispatch a range when the worker
// computing it dies.
//
// Why this is sound: when the sweep has handled every position >= B,
// its live state is exactly (a) the wanted set — each demanded location
// with its demanding member and its pending candidate, (b) the pending
// control-parent positions < B, and (c) the members so far. The state
// carries all three verbatim: the candidates and requesters are read off
// the wanted set at capture and flagged again on resume, and pending
// event bits are by construction the control parents not yet visited,
// all < B. A live location has exactly one candidate, the last
// definition of the location below B: any definition in [B, demandPos)
// would itself have been the candidate and been processed already. The
// shard tests assert this against a linear scan of the trace, including
// states resumed after a save/restore bypass.
// Re-running a shard from the same state is therefore idempotent, which
// is what makes hedged and re-dispatched shard requests safe.

// queryStateVersion guards the wire form of QueryState.
const queryStateVersion = 2

// ErrBadState reports a wire QueryState this engine could not have
// produced: a wrong version, a criterion or position outside the
// trace, or a candidate at or above the bound. It is the sender's
// fault, so retrying cannot help.
var ErrBadState = errors.New("slice: malformed query state")

// WantedLoc is one live demand of a suspended query: the location, the
// slice member that demanded it, and Def, the global position of its
// pending definition candidate (-1 when no definition precedes it).
type WantedLoc struct {
	Loc int64 `json:"l"`
	Tid int32 `json:"t"`
	Pos int32 `json:"p"`
	Def int32 `json:"d"`
}

// QueryState is the serialisable continuation of a backward slice query
// suspended at a window boundary: every position >= Bound has been
// handled, everything below has not. It is a pure value — running a
// shard is a state -> state function with no engine-side residue — so
// the same state may be executed twice (hedging, straggler re-dispatch)
// and both executions return byte-identical successors.
type QueryState struct {
	V    int        `json:"v"`
	Crit tracer.Ref `json:"crit"`
	// Bound is the exclusive low edge of the handled region; 0 when Done.
	Bound int  `json:"bound"`
	Done  bool `json:"done,omitempty"`
	// Wanted and Events are the pending candidates and control parents
	// the resumed sweep visits.
	Wanted []WantedLoc `json:"wanted,omitempty"`
	Events []int32     `json:"events,omitempty"`
	// Members are the slice members found so far, as ascending global
	// trace positions.
	Members []int32 `json:"members,omitempty"`
	// DepCount/DepHash carry the dependence edges in digest form: edge
	// lists grow with the slice, but shard hops only need the running
	// FNV-1a fold (edges are appended in a deterministic order, so the
	// fold is deterministic too).
	DepCount int64  `json:"dep_count"`
	DepHash  uint64 `json:"dep_hash"`
	Pruned   int64  `json:"pruned,omitempty"`
}

// StartBound returns the initial bound of a fresh query on crit — one
// past the criterion's global position, i.e. "nothing handled yet".
// Shard planners use it to window the first dispatch.
func (s *ParallelSlicer) StartBound(crit tracer.Ref) (int, error) {
	pos, ok := s.Trace.GlobalPosOf(crit)
	if !ok {
		return 0, fmt.Errorf("slice: criterion %+v outside trace", crit)
	}
	return pos + 1, nil
}

// NextShardLo returns the window-aligned low bound that advances a
// query at `bound` by `windows` checkpoint-cadence windows (the
// engine's shard unit). 0 means the next shard finishes the query.
func (s *ParallelSlicer) NextShardLo(bound, windows int) int {
	if windows < 1 {
		windows = 1
	}
	if bound <= 0 {
		return 0
	}
	// Window index of the highest unhandled position, minus the stride.
	lo := ((bound-1)/s.windowSize - (windows - 1)) * s.windowSize
	if lo < 0 {
		lo = 0
	}
	return lo
}

// SliceShard advances a backward slice query by one window range:
// st == nil starts a fresh query at crit, otherwise st is resumed. The
// sweep runs until every candidate position >= lo is handled, then the
// successor state is captured (Done when the sweep exhausted its
// candidates before reaching lo). The caller owns shard geometry; any
// descending sequence of lo values chains to the exact monolithic
// Slice result.
func (s *ParallelSlicer) SliceShard(crit tracer.Ref, st *QueryState, lo int) (*QueryState, error) {
	var q *query
	var err error
	if st == nil {
		q, err = s.newQuery(crit)
		if err != nil {
			return nil, err
		}
		s.queries.Add(1)
		q.include(q.startPos, crit, nil)
		if lo > q.startPos {
			lo = q.startPos
		}
	} else {
		if err := s.checkState(st); err != nil {
			return nil, err
		}
		if st.Done {
			return st, nil
		}
		q, err = s.resumeQuery(st)
		if err != nil {
			return nil, err
		}
		if lo > st.Bound {
			lo = st.Bound
		}
	}
	defer q.release()
	if lo < 0 {
		lo = 0
	}
	q.runTo(lo)
	return q.captureState(lo), nil
}

// checkState rejects, with ErrBadState, a wire state that would index
// outside this engine's trace: every position it carries is checked
// before any of it touches a bitset.
func (s *ParallelSlicer) checkState(st *QueryState) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadState, fmt.Sprintf(format, args...))
	}
	if st.V != queryStateVersion {
		return bad("version %d, want %d", st.V, queryStateVersion)
	}
	start, err := s.StartBound(st.Crit)
	if err != nil {
		return bad("%v", err)
	}
	if st.Bound < 0 || st.Bound > start {
		return bad("bound %d outside [0, %d]", st.Bound, start)
	}
	for _, w := range st.Wanted {
		if w.Def < -1 || int(w.Def) >= st.Bound {
			return bad("candidate %d of location %d outside [-1, %d)", w.Def, w.Loc, st.Bound)
		}
		if _, ok := s.Trace.GlobalPosOf(tracer.Ref{Tid: w.Tid, Pos: w.Pos}); !ok {
			return bad("requester {%d %d} of location %d outside trace", w.Tid, w.Pos, w.Loc)
		}
	}
	for _, p := range st.Events {
		if p < 0 || int(p) >= st.Bound {
			return bad("event %d outside [0, %d)", p, st.Bound)
		}
	}
	for _, m := range st.Members {
		if m < 0 || int(m) >= len(s.Trace.Global) {
			return bad("member %d outside trace", m)
		}
	}
	return nil
}

// resumeQuery reconstructs a suspended query from its checked wire
// state, flagging every carried candidate and control parent again.
func (s *ParallelSlicer) resumeQuery(st *QueryState) (*query, error) {
	q, err := s.newQuery(st.Crit)
	if err != nil {
		return nil, err
	}
	q.cur = st.Bound
	q.depHash, q.depCount, q.pruned = st.DepHash, st.DepCount, st.Pruned
	for _, w := range st.Wanted {
		q.demand(tracer.Loc(w.Loc), tracer.Ref{Tid: w.Tid, Pos: w.Pos}, w.Def)
	}
	for _, p := range st.Events {
		q.sc.events[p>>6] |= 1 << (p & 63)
	}
	for _, m := range st.Members {
		q.sc.members[m>>6] |= 1 << (m & 63)
	}
	return q, nil
}

// captureState snapshots the suspended query at bound. The capture
// order is canonical (dense wanted locations ascending, then overflow
// locations sorted; events and members ascending), so equal states
// serialise to equal bytes — duplicate shard executions can be
// compared, and deduplicated, textually.
func (q *query) captureState(bound int) *QueryState {
	st := &QueryState{
		V:        queryStateVersion,
		Crit:     q.crit,
		Bound:    bound,
		Done:     q.next(0) < 0,
		DepCount: q.depCount,
		DepHash:  q.depHash,
		Pruned:   q.pruned,
	}
	for w, word := range q.sc.members {
		for word != 0 {
			g := w<<6 + bits.TrailingZeros64(word)
			st.Members = append(st.Members, int32(g))
			word &= word - 1
		}
	}
	if st.Done {
		st.Bound = 0
		return st
	}
	wantedLoc := func(l tracer.Loc, r tracer.Ref, def int32) WantedLoc {
		// A candidate at or above the bound has been visited. Only a
		// resumed state whose candidate did not define its location can
		// leave that location wanted; its candidate is spent.
		if int(def) >= bound {
			def = -1
		}
		return WantedLoc{Loc: int64(l), Tid: r.Tid, Pos: r.Pos, Def: def}
	}
	ws := &q.sc.ws
	for w, word := range ws.bits {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			st.Wanted = append(st.Wanted, wantedLoc(ws.space.LocAt(i), ws.ref[i], ws.def[i]))
			word &= word - 1
		}
	}
	if len(ws.over) > 0 {
		locs := make([]tracer.Loc, 0, len(ws.over))
		for l := range ws.over {
			locs = append(locs, l)
		}
		sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
		for _, l := range locs {
			d := ws.over[l]
			st.Wanted = append(st.Wanted, wantedLoc(l, d.ref, d.def))
		}
	}
	for w, word := range q.sc.events {
		for word != 0 {
			g := w<<6 + bits.TrailingZeros64(word)
			st.Events = append(st.Events, int32(g))
			word &= word - 1
		}
	}
	return st
}

// Summary is the scalar outcome of a slice query plus a content digest
// of the full result. A sharded query's Summary must equal the
// single-node Summarize of the same criterion bit for bit — that is the
// fleet's correctness check.
type Summary struct {
	Members        int    `json:"members"`
	TraceLen       int    `json:"trace_len"`
	Deps           int64  `json:"deps"`
	PrunedBypasses int64  `json:"pruned_bypasses,omitempty"`
	Digest         string `json:"digest"`
}

// foldDep folds one dependence edge into the FNV-1a digest in its
// append order: the edge stream is deterministic, so so is the fold.
func foldDep(h uint64, d DepEdge) uint64 {
	h = fnv1a.Fold(h, int64(uint32(d.From.Tid)))
	h = fnv1a.Fold(h, int64(uint32(d.From.Pos)))
	h = fnv1a.Fold(h, int64(uint32(d.To.Tid)))
	h = fnv1a.Fold(h, int64(uint32(d.To.Pos)))
	h = fnv1a.Fold(h, int64(d.Kind))
	h = fnv1a.Fold(h, int64(d.Loc))
	return h
}

// foldRef folds one member reference into the digest.
func foldRef(h uint64, r tracer.Ref) uint64 {
	h = fnv1a.Fold(h, int64(uint32(r.Tid)))
	h = fnv1a.Fold(h, int64(uint32(r.Pos)))
	return h
}

// Summarize digests a completed slice: dependence edges in append
// order (folded by the slice's producer), then members in ascending
// global order. This is the single-node reference the fleet's shard
// chain is checked against; it never materialises the edge list.
func Summarize(sl *Slice) Summary {
	h := sl.depHash
	for _, m := range sl.Members {
		h = foldRef(h, m)
	}
	return Summary{
		Members:        len(sl.Members),
		TraceLen:       sl.Stats.TraceLen,
		Deps:           sl.depCount,
		PrunedBypasses: sl.Stats.PrunedBypasses,
		Digest:         fmt.Sprintf("%016x", h),
	}
}

// SummarizeState converts a finished query state into its Summary,
// continuing the state's dependence digest with the member fold. The
// state must be Done.
func (s *ParallelSlicer) SummarizeState(st *QueryState) (Summary, error) {
	if !st.Done {
		return Summary{}, fmt.Errorf("slice: query state not done (bound %d)", st.Bound)
	}
	h := st.DepHash
	for _, g := range st.Members {
		h = foldRef(h, s.Trace.Global[g])
	}
	return Summary{
		Members:        len(st.Members),
		TraceLen:       len(s.Trace.Global),
		Deps:           st.DepCount,
		PrunedBypasses: st.Pruned,
		Digest:         fmt.Sprintf("%016x", h),
	}, nil
}

// SummarizeProvenance is the shard-protocol counterpart of
// AnnotateProvenance: a member-level provenance breakdown of a finished
// query state. Shard hops carry dependence edges only in digest form, so
// edge counts are not recoverable — but every edge's provenance is the
// worst of its two member endpoints, so member counts alone decide both
// Exact() and Degraded() exactly as a full annotation would. Returns nil
// over gap-free traces (matching SliceFor on a full recording).
func (s *ParallelSlicer) SummarizeProvenance(st *QueryState) *ProvSummary {
	if len(s.Trace.Gaps) == 0 {
		return nil
	}
	sum := &ProvSummary{MinConfidence: 1.0}
	for _, g := range st.Members {
		p := s.Trace.ProvenanceOf(s.Trace.Global[g])
		switch p {
		case tracer.ProvExact:
			sum.ExactMembers++
		case tracer.ProvBridged:
			sum.BridgedMembers++
		case tracer.ProvEstimated:
			sum.EstimatedMembers++
		}
		if c := p.Confidence(); c < sum.MinConfidence {
			sum.MinConfidence = c
		}
	}
	return sum
}
