package slice

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cfg"
	"repro/internal/fnv1a"
	"repro/internal/isa"
	"repro/internal/tracer"
)

// ParallelOptions configures the parallel engine's build phase.
type ParallelOptions struct {
	// Workers bounds the worker pool used for the forward pass and the
	// dependence-shard build. <= 0 means GOMAXPROCS.
	Workers int
	// WindowSize is the global-trace entries per dependence shard.
	// Callers normally pass the pinball's checkpoint cadence (see
	// pinplay.WindowSize); <= 0 falls back to tracer.DefaultLPBlock.
	WindowSize int
	// Ctx cancels the build cooperatively: the worker pools check it
	// between per-thread forward passes and between window shards, so an
	// aborted or preempted session stops burning workers promptly. Ctx
	// does not shape the built engine (it is excluded from the cache
	// fingerprint). nil means no cancellation.
	Ctx context.Context
}

// EngineStats reports the parallel engine's build/query accounting.
type EngineStats struct {
	Workers    int   // resolved worker count
	Shards     int   // dependence-shard windows built
	IndexDefs  int64 // definitions stored in the dependence columns
	Queries    int64 // Slice calls answered so far
	IndexSteps int64 // demand-resolution events across all queries
}

// ParallelSlicer computes backward dynamic slices with the sharded
// engine: the forward pass (CFG refinement, control parents,
// save/restore verification) runs one thread per worker, the global
// trace is cut into checkpoint-cadence windows whose dependence columns
// are built concurrently and stitched deterministically, and each query
// then reads every demand's next definition from the columns instead of
// re-walking the trace.
//
// The engine is bit-identical to the sequential Slicer by construction:
// a query simulates the exact backward sweep of Slicer.Slice — same
// demand set, same per-entry match selection, same save/restore
// bypasses, same exemplar-edge order — but visits only the positions
// where something can happen (the next pending definition or control
// parent), which the columns give in O(1). Results therefore do not
// depend on the worker count, only the build cost does.
//
// A built engine is immutable and safe for concurrent Slice calls.
type ParallelSlicer struct {
	Prog  *isa.Program
	Trace *tracer.Trace
	Opts  Options

	// locals is Trace.Locals indexed by thread id, so the query loop
	// reads entries without map probes.
	locals [][]tracer.Entry
	space  tracer.LocSpace
	cols   *defColumns
	// parent is the control parent's global position of the entry at
	// each global position, -1 for none.
	parent []int32
	// bypassAt flags the global positions of verified save/restore
	// entries; bypassRank and bypassInfos form its rank directory, so a
	// query reads an entry's bypass roles with popcount arithmetic.
	bypassAt    []uint64
	bypassRank  []int32
	bypassInfos []bypassInfo
	// pairs and cfgRefinements are the forward pass's counters.
	pairs          int64
	cfgRefinements int64

	// Query scratches are pooled on an engine-owned free list rather
	// than a sync.Pool: the arrays are tens of megabytes and rebuilding
	// (and re-zeroing) them after every GC cycle costs more than the
	// retention. The list holds at most one scratch per concurrent
	// query, for the engine's lifetime.
	scratchMu sync.Mutex
	scratches []*queryScratch

	workers    int
	windowSize int
	queries    atomic.Int64
	indexSteps atomic.Int64
}

// wantedSet is the query's demand set: location -> demanding member and
// the location's pending definition candidate. Locations inside the
// trace's dense LocSpace live in a direct-indexed table (a presence
// bitset plus requester and candidate arrays — the hot path);
// out-of-space locations (untouched addresses) fall back to a map.
type wantedSet struct {
	space tracer.LocSpace
	bits  []uint64
	ref   []tracer.Ref
	def   []int32
	over  map[tracer.Loc]demandOf
}

// demandOf is one out-of-space demand: its requester and candidate.
type demandOf struct {
	ref tracer.Ref
	def int32
}

// add records r as l's requester. A fresh demand (l not wanted yet)
// takes def as its candidate and add reports true; re-demanding a
// wanted location only retargets the requester.
func (ws *wantedSet) add(l tracer.Loc, r tracer.Ref, def int32) bool {
	if i, ok := ws.space.Index(l); ok {
		w, b := i>>6, uint64(1)<<(i&63)
		fresh := ws.bits[w]&b == 0
		ws.bits[w] |= b
		ws.ref[i] = r
		if fresh {
			ws.def[i] = def
		}
		return fresh
	}
	d, had := ws.over[l]
	if !had {
		d.def = def
	}
	d.ref = r
	ws.over[l] = d
	return !had
}

// get returns l's requester and whether l is wanted.
func (ws *wantedSet) get(l tracer.Loc) (tracer.Ref, bool) {
	if i, ok := ws.space.Index(l); ok {
		if ws.bits[i>>6]&(1<<(i&63)) == 0 {
			return tracer.Ref{}, false
		}
		return ws.ref[i], true
	}
	d, ok := ws.over[l]
	return d.ref, ok
}

// del kills the demand on l.
func (ws *wantedSet) del(l tracer.Loc) {
	if i, ok := ws.space.Index(l); ok {
		ws.bits[i>>6] &^= 1 << (i & 63)
		return
	}
	delete(ws.over, l)
}

// queryScratch is the reusable allocation block of one Slice call: the
// demand set and three bitsets over global positions — the members,
// the pending control parents (events) and the pending definition
// candidates. Engines pool scratches so repeated queries (the cyclic
// debugging loop) allocate only their results.
type queryScratch struct {
	ws      wantedSet
	members []uint64
	events  []uint64
	pending []uint64
}

// getScratch pops a pooled scratch or builds a fresh one.
func (s *ParallelSlicer) getScratch() *queryScratch {
	s.scratchMu.Lock()
	defer s.scratchMu.Unlock()
	if n := len(s.scratches); n > 0 {
		sc := s.scratches[n-1]
		s.scratches = s.scratches[:n-1]
		return sc
	}
	return &queryScratch{
		ws: wantedSet{
			space: s.space,
			bits:  make([]uint64, s.space.Total()/64+1),
			ref:   make([]tracer.Ref, s.space.Total()),
			def:   make([]int32, s.space.Total()),
			over:  make(map[tracer.Loc]demandOf),
		},
		members: make([]uint64, len(s.Trace.Global)/64+1),
		events:  make([]uint64, len(s.Trace.Global)/64+1),
		pending: make([]uint64, len(s.Trace.Global)/64+1),
	}
}

func (s *ParallelSlicer) putScratch(sc *queryScratch) {
	s.scratchMu.Lock()
	s.scratches = append(s.scratches, sc)
	s.scratchMu.Unlock()
}

// NewParallel builds the parallel engine: the forward pass, one thread
// per job, then the per-window dependence columns, on a bounded worker
// pool.
func NewParallel(prog *isa.Program, tr *tracer.Trace, opts Options, popts ParallelOptions) (*ParallelSlicer, error) {
	if opts.MaxSave == 0 {
		opts.MaxSave = 10
	}
	workers := popts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(tr.Global) == 0 && tr.Len() > 0 {
		if err := tr.BuildGlobal(); err != nil {
			return nil, err
		}
	}
	var an *cfg.Analyzer
	if opts.UseJumpTables {
		an = cfg.NewAnalyzerWithTables(prog)
	} else {
		an = cfg.NewAnalyzer(prog)
	}
	var cand *srCandidates
	if opts.PruneSaveRestore {
		cand = findSaveRestoreCandidates(prog, opts.MaxSave)
	}
	if err := buildCancelled(popts.Ctx); err != nil {
		return nil, err
	}
	nGlobal := len(tr.Global)
	s := &ParallelSlicer{
		Prog:       prog,
		Trace:      tr,
		Opts:       opts,
		locals:     tr.ThreadLocals(),
		parent:     make([]int32, nGlobal),
		workers:    workers,
		windowSize: popts.WindowSize,
	}
	if s.windowSize <= 0 {
		s.windowSize = tracer.DefaultLPBlock
	}
	threads, err := s.forwardPass(popts.Ctx, an, cand, !opts.DisableRefinement)
	if err != nil {
		return nil, err
	}
	ext := tracer.NewExtents()
	for i := range threads {
		ext.Merge(threads[i].ext)
		s.pairs += threads[i].pairs
	}
	s.space = ext.Space()
	s.buildBypassDir(threads)
	windows := tracer.SplitWindows(nGlobal, s.windowSize)
	if s.cols, err = buildColumns(popts.Ctx, tr, s.locals, s.space, windows, s.windowSize, workers); err != nil {
		return nil, err
	}
	return s, nil
}

// buildBypassDir builds the bypass rank directory — a bitset over global
// positions plus the per-word rank prefix into the position-ordered info
// array — from the threads' verified save/restore entries: one pass sets
// the bits, a second places each info at its rank, so nothing is sorted.
func (s *ParallelSlicer) buildBypassDir(threads []threadForward) {
	tr := s.Trace
	s.bypassAt = make([]uint64, len(tr.Global)/64+1)
	for i := range threads {
		for _, b := range threads[i].bypass {
			if g, ok := tr.GlobalPosOf(b.ref); ok {
				s.bypassAt[g>>6] |= 1 << (g & 63)
			}
		}
	}
	s.bypassRank = make([]int32, len(s.bypassAt))
	rank := int32(0)
	for w, word := range s.bypassAt {
		s.bypassRank[w] = rank
		rank += int32(bits.OnesCount64(word))
	}
	s.bypassInfos = make([]bypassInfo, rank)
	for i := range threads {
		for _, b := range threads[i].bypass {
			if g, ok := tr.GlobalPosOf(b.ref); ok {
				w, bit := g>>6, uint(g&63)
				s.bypassInfos[int(s.bypassRank[w])+bits.OnesCount64(s.bypassAt[w]&(1<<bit-1))] = b.info
			}
		}
	}
}

// bypassAtPos returns the bypass roles of the entry at global position g
// via the rank directory; ok is false for non-bypass positions.
func (s *ParallelSlicer) bypassAtPos(g int) (bypassInfo, bool) {
	w, b := g>>6, uint(g&63)
	word := s.bypassAt[w]
	if word&(1<<b) == 0 {
		return bypassInfo{}, false
	}
	i := int(s.bypassRank[w]) + bits.OnesCount64(word&(1<<b-1))
	return s.bypassInfos[i], true
}

// Stats returns the engine's accounting counters.
func (s *ParallelSlicer) Stats() EngineStats {
	return EngineStats{
		Workers:    s.workers,
		Shards:     len(s.cols.win),
		IndexDefs:  s.cols.defs,
		Queries:    s.queries.Load(),
		IndexSteps: s.indexSteps.Load(),
	}
}

// buildCancelled reports a (possibly nil) build context's cancellation
// as an error. Cancellation is polled via Err() only — never a Done()
// select — so tests can drive it with deterministic counting contexts.
func buildCancelled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// forwardPass is runForward with both phases fanned out over the worker
// pool, one thread per job. Phase 1 (indirect-target observation) is a
// set union, so the refinement count and the refined CFGs are
// independent of worker interleaving; phase 2 runs each thread's
// Xin-Zhang stack — threads are mutually independent — writing parents
// straight into the engine's parent column and returning the per-thread
// results in thread-id order. A cancelled ctx stops the pools between
// per-thread jobs and fails the build with ctx's error.
func (s *ParallelSlicer) forwardPass(ctx context.Context, an *cfg.Analyzer, cand *srCandidates, refine bool) ([]threadForward, error) {
	var tids []int
	for tid, l := range s.locals {
		if l != nil {
			tids = append(tids, tid)
		}
	}
	if refine {
		var refs atomic.Int64
		if err := runPool(ctx, len(tids), s.workers, func(_, i int) {
			refs.Add(observeIndirects(an, s.locals[tids[i]]))
		}); err != nil {
			return nil, err
		}
		s.cfgRefinements = refs.Load()
	}
	threads := make([]threadForward, len(tids))
	errs := make([]error, len(tids))
	if err := runPool(ctx, len(tids), s.workers, func(_, i int) {
		threads[i], errs[i] = forwardThread(s.Trace, an, cand, tids[i], s.locals[tids[i]], s.parent)
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return threads, nil
}

// query is one in-progress backward slice computation: the pooled
// scratch plus the result accumulators. A query either runs to
// completion in-process (Slice) or is advanced one window range at a
// time with its live state serialised between ranges (SliceShard) —
// both paths drive the same sweep loop, so a sharded query is
// bit-identical to a monolithic one by construction.
//
// The sweep visits, in descending order, only the positions where
// something can happen: the pending candidate of each wanted location,
// flagged in sc.pending, and each pending control parent, flagged in
// sc.events. A wanted location's candidate is always the highest
// position below the sweep point that defines it (a demand takes the
// reaching definition at the demanding position; every definition in
// between has been handled), so the wanted locations whose candidate
// is the visited position g are exactly Defs(e_g) ∩ wanted.
type query struct {
	s        *ParallelSlicer
	sc       *queryScratch
	crit     tracer.Ref
	startPos int
	// cur is the sweep point: every position >= cur has been handled.
	cur int
	// Dependence edges are folded into depHash/depCount (foldDep, in
	// the order the sweep finds them) rather than kept; with record
	// set, as when Slice.Deps materialises them, edges collects them
	// too.
	depHash  uint64
	depCount int64
	record   bool
	edges    []DepEdge
	pruned   int64
	steps    int64
	locBuf   [8]tracer.Loc
}

// newQuery resolves the criterion and prepares a cleared scratch.
func (s *ParallelSlicer) newQuery(crit tracer.Ref) (*query, error) {
	startPos, ok := s.Trace.GlobalPosOf(crit)
	if !ok {
		return nil, fmt.Errorf("slice: criterion %+v outside trace", crit)
	}
	// The scratch holds the query's allocation-heavy state; resetting a
	// pooled one costs a few bitset clears instead of rebuilding maps.
	sc := s.getScratch()
	clear(sc.ws.bits)
	clear(sc.ws.over)
	clear(sc.members)
	clear(sc.events)
	clear(sc.pending)
	return &query{
		s:        s,
		sc:       sc,
		crit:     crit,
		startPos: startPos,
		cur:      startPos,
		depHash:  fnv1a.Offset,
	}, nil
}

// release returns the scratch to the engine pool and flushes counters.
func (q *query) release() {
	q.s.putScratch(q.sc)
	q.s.indexSteps.Add(q.steps)
	q.steps = 0
}

func (q *query) isMember(g int) bool {
	return q.sc.members[g>>6]&(1<<(g&63)) != 0
}

// demand mirrors the sequential `wanted[l] = ...; wantedBy[l] = ref`
// writes: a fresh demand gets its candidate def — the reaching
// definition of l at the demanding position, from the columns;
// re-demanding an already-wanted location only retargets the requester
// (the pending candidate stays correct — every definition between it
// and the demanding position has already been processed).
func (q *query) demand(l tracer.Loc, ref tracer.Ref, def int32) {
	if q.sc.ws.add(l, ref, def) && def >= 0 {
		q.sc.pending[def>>6] |= 1 << (def & 63)
	}
}

// edge folds one dependence edge into the digest, keeping it when
// recording.
func (q *query) edge(d DepEdge) {
	q.depHash = foldDep(q.depHash, d)
	q.depCount++
	if q.record {
		q.edges = append(q.edges, d)
	}
}

// include takes the entry's already-decoded definitions when the
// caller has them (the data-match path), avoiding a second decode.
func (q *query) include(gpos int, ref tracer.Ref, defs []tracer.Loc) {
	if q.isMember(gpos) {
		return
	}
	q.sc.members[gpos>>6] |= 1 << (gpos & 63)
	e := &q.s.locals[ref.Tid][ref.Pos]
	if defs == nil {
		defs = tracer.Defs(e, q.locBuf[:0])
	}
	// Kill the locations this entry defines, then demand its uses.
	for _, l := range defs {
		q.sc.ws.del(l)
	}
	links := q.s.cols.links(gpos)
	for k, l := range tracer.Uses(e, q.locBuf[:0]) {
		q.demand(l, ref, links[k])
	}
	if q.s.Opts.ControlDeps {
		if pg := int(q.s.parent[gpos]); pg >= 0 && pg <= q.startPos {
			if !q.isMember(pg) {
				// The sequential sweep keys its pending control parents by
				// position too, and the demanding member is never read back
				// (the control edge is emitted at demand time), so the
				// event bit carries the whole state.
				q.sc.events[pg>>6] |= 1 << (pg & 63)
			}
			q.edge(DepEdge{From: ref, To: q.s.Trace.Global[pg], Kind: DepControl})
		}
	}
}

// next returns the highest flagged position in [lo, q.cur), or -1: a
// word-at-a-time descending scan of pending|events.
func (q *query) next(lo int) int {
	if q.cur <= lo {
		return -1
	}
	pending, events := q.sc.pending, q.sc.events
	top := q.cur - 1
	w := top >> 6
	word := (pending[w] | events[w]) & (^uint64(0) >> (63 - uint(top&63)))
	for word == 0 {
		if w--; w < lo>>6 {
			return -1
		}
		word = pending[w] | events[w]
	}
	if g := w<<6 + 63 - bits.LeadingZeros64(word); g >= lo {
		return g
	}
	return -1
}

// runTo advances the sweep, handling flagged positions in descending
// order, until none is left at or above lo. runTo(0) is the complete
// sweep; a positive lo suspends the query at a window boundary with its
// state capturable by captureState.
func (q *query) runTo(lo int) {
	s := q.s
	tr := s.Trace
	ws := &q.sc.ws
	pending, events := q.sc.pending, q.sc.events
	for g := q.next(lo); g >= 0; g = q.next(lo) {
		// The position is handled once, exactly like one iteration of
		// the backward sweep; everything it flags lies below it.
		q.cur = g
		w, b := g>>6, uint64(1)<<(g&63)
		event := events[w]&b != 0
		pending[w] &^= b
		events[w] &^= b
		q.steps++
		ref := tr.Global[g]

		// Pending control parent: include and skip data matching, as the
		// sequential sweep does. Demands this entry satisfies are killed
		// by include.
		if event {
			q.include(g, ref, nil)
			continue
		}
		e := &s.locals[ref.Tid][ref.Pos]

		// Save/restore bypass: same redirection as the sequential sweep.
		// A verified save/restore entry defines exactly one tracked
		// location (the PUSH's slot or the POP's register; SP is excluded
		// from dependence tracking), recorded in its bypass info — so the
		// match is decided without decoding the entry's definitions,
		// which matters: bypass hops dominate the event count on
		// call-heavy traces. The entry is not included.
		if s.Opts.PruneSaveRestore {
			if bp, isBp := s.bypassAtPos(g); isBp {
				from, to := bp.slot, bp.reg
				if bp.role == bypassRestore {
					from, to = bp.reg, bp.slot
				}
				requester, live := ws.get(from)
				if !live {
					continue
				}
				ws.del(from)
				// The entry uses `to`: the saved register for a save, the
				// stack slot for a restore.
				q.demand(to, requester, s.cols.useDef(e, g, to))
				q.pruned++
				continue
			}
		}

		// Data match: the first location in the entry's definition order
		// with a pending demand, exactly the sequential sweep's selection.
		defs := tracer.Defs(e, q.locBuf[:0])
		for _, l := range defs {
			if from, ok := ws.get(l); ok {
				q.edge(DepEdge{From: from, To: ref, Kind: DepData, Loc: l})
				q.include(g, ref, defs)
				break
			}
		}
	}
	q.cur = min(q.cur, lo)
}

// finish materialises the completed query's Slice result: members off
// the bitset, the bitset itself (up to the criterion's word) for
// Contains, and the folded edges.
func (q *query) finish() *Slice {
	s := q.s
	member := slices.Clone(q.sc.members[:q.startPos>>6+1])
	out := &Slice{
		Criterion: q.crit,
		Members:   membersOf(s.Trace, member),
		tr:        s.Trace,
		member:    member,
		depHash:   q.depHash,
		depCount:  q.depCount,
		eng:       s,
	}
	out.Stats.TraceLen = len(s.Trace.Global)
	out.Stats.Members = len(out.Members)
	out.Stats.VerifiedPairs = s.pairs
	out.Stats.CFGRefinements = s.cfgRefinements
	out.Stats.PrunedBypasses = q.pruned
	return out
}

// Slice computes the backward dynamic slice of the criterion. See the
// type comment: this is an event-driven simulation of Slicer.Slice over
// the stitched dependence columns, producing an identical Slice.
func (s *ParallelSlicer) Slice(crit tracer.Ref) (*Slice, error) {
	q, err := s.newQuery(crit)
	if err != nil {
		return nil, err
	}
	defer q.release()
	s.queries.Add(1)
	q.include(q.startPos, crit, nil)
	q.runTo(0)
	return q.finish(), nil
}

// edgesOf re-runs the query on crit with edge recording on and returns
// its n dependence edges: the sweep is deterministic, so they are the
// edges the first run folded, in the same order. The re-run is not
// counted in the engine's stats.
func (s *ParallelSlicer) edgesOf(crit tracer.Ref, n int64) []DepEdge {
	q, err := s.newQuery(crit)
	if err != nil {
		panic(err) // crit was resolved by the query that made the slice
	}
	q.record, q.edges = true, make([]DepEdge, 0, n)
	q.include(q.startPos, crit, nil)
	q.runTo(0)
	q.steps = 0
	q.release()
	return q.edges
}
