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

// wantedSet is the query's demand set: location -> demanding member.
// Locations inside the trace's dense LocSpace live in a direct-indexed
// table (a presence bitset plus a requester array — the hot path);
// out-of-space locations (untouched addresses) fall back to a map.
type wantedSet struct {
	space tracer.LocSpace
	bits  []uint64
	ref   []tracer.Ref
	over  map[tracer.Loc]tracer.Ref
}

// add records ref as l's requester and reports whether l was freshly
// demanded (not already wanted).
func (ws *wantedSet) add(l tracer.Loc, r tracer.Ref) bool {
	if i, ok := ws.space.Index(l); ok {
		w, b := i>>6, uint64(1)<<(i&63)
		fresh := ws.bits[w]&b == 0
		ws.bits[w] |= b
		ws.ref[i] = r
		return fresh
	}
	_, had := ws.over[l]
	ws.over[l] = r
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
	r, ok := ws.over[l]
	return r, ok
}

// has reports whether l is wanted.
func (ws *wantedSet) has(l tracer.Loc) bool {
	if i, ok := ws.space.Index(l); ok {
		return ws.bits[i>>6]&(1<<(i&63)) != 0
	}
	_, ok := ws.over[l]
	return ok
}

// del kills the demand on l.
func (ws *wantedSet) del(l tracer.Loc) {
	if i, ok := ws.space.Index(l); ok {
		ws.bits[i>>6] &^= 1 << (i & 63)
		return
	}
	delete(ws.over, l)
}

// queryScratch is the reusable allocation block of one Slice call:
// the demand set, the member bitset, the candidate heap, the drain
// buffer and the dependence-edge buffer. Engines pool scratches so
// repeated queries (the cyclic debugging loop) allocate only their
// results.
type queryScratch struct {
	ws      wantedSet
	members []uint64
	events  []uint64
	h       candHeap
	batch   []tracer.Loc
	deps    []DepEdge
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
			over:  make(map[tracer.Loc]tracer.Ref),
		},
		members: make([]uint64, len(s.Trace.Global)/64+1),
		events:  make([]uint64, len(s.Trace.Global)/64+1),
		batch:   make([]tracer.Loc, 0, 16),
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

// demandCand is one pending resolution event of a query: either "the
// next definition of loc is at pos" or "the control parent awaited at
// pos" (event). Stale entries are filtered at pop time. loc comes first
// so the struct packs into 16 bytes.
type demandCand struct {
	loc   tracer.Loc
	pos   int32
	event bool
}

// candHeap is a max-heap on pos (the query processes positions in the
// same descending order as the sequential sweep).
type candHeap []demandCand

func (h *candHeap) push(c demandCand) {
	*h = append(*h, c)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].pos >= (*h)[i].pos {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *candHeap) pop() demandCand {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && (*h)[l].pos > (*h)[big].pos {
			big = l
		}
		if r < n && (*h)[r].pos > (*h)[big].pos {
			big = r
		}
		if big == i {
			break
		}
		(*h)[i], (*h)[big] = (*h)[big], (*h)[i]
		i = big
	}
	return top
}

// query is one in-progress backward slice computation: the pooled
// scratch plus the result accumulators. A query either runs to
// completion in-process (Slice) or is advanced one window range at a
// time with its live state serialised between ranges (SliceShard) —
// both paths drive the same sweep loop, so a sharded query is
// bit-identical to a monolithic one by construction.
type query struct {
	s        *ParallelSlicer
	sc       *queryScratch
	crit     tracer.Ref
	startPos int
	// deps collects the dependence edges appended during the current
	// range, in the scratch's reused buffer. A suspending query folds
	// them into depHash/depCount (result payloads carry counts and a
	// digest, not the edge list); a monolithic query copies them into
	// the Slice result.
	deps     []DepEdge
	depHash  uint64
	depCount int64
	pruned   int64
	steps    int64
	batch    []tracer.Loc
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
	sc.h = sc.h[:0]
	return &query{
		s:        s,
		sc:       sc,
		crit:     crit,
		startPos: startPos,
		deps:     sc.deps[:0],
		depHash:  fnv1a.Offset,
		batch:    sc.batch[:0],
	}, nil
}

// release returns the scratch to the engine pool and flushes counters.
func (q *query) release() {
	q.sc.batch = q.batch
	q.sc.deps = q.deps[:0]
	q.s.putScratch(q.sc)
	q.s.indexSteps.Add(q.steps)
	q.steps = 0
}

func (q *query) isMember(g int) bool {
	return q.sc.members[g>>6]&(1<<(g&63)) != 0
}

// demand mirrors the sequential `wanted[l] = ...; wantedBy[l] = ref`
// writes: a fresh demand gets its next-definition candidate — def, the
// reaching definition of l at the demanding position, from the columns;
// re-demanding an already-wanted location only retargets the requester
// (the pending candidate stays correct — every definition between it
// and the demanding position has already been processed).
func (q *query) demand(l tracer.Loc, ref tracer.Ref, def int32) {
	if q.sc.ws.add(l, ref) && def >= 0 {
		q.sc.h.push(demandCand{pos: def, loc: l})
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
				// sc.events flags the global positions with a pending
				// control parent. The sequential sweep keys its map by
				// position too, and the demanding member is never read
				// back (the control edge is emitted at demand time), so
				// presence bits carry the whole state.
				if q.sc.events[pg>>6]&(1<<(pg&63)) == 0 {
					q.sc.events[pg>>6] |= 1 << (pg & 63)
					q.sc.h.push(demandCand{pos: int32(pg), event: true})
				}
			}
			q.deps = append(q.deps, DepEdge{From: ref, To: q.s.Trace.Global[pg], Kind: DepControl})
		}
	}
}

// runTo advances the sweep, handling candidate positions in descending
// order, until the heap is exhausted or every remaining candidate lies
// below lo. runTo(0) is the complete sweep; a positive lo suspends the
// query at a window boundary with its state capturable by captureState.
func (q *query) runTo(lo int) {
	s := q.s
	tr := s.Trace
	wanted := &q.sc.ws
	wantedEvents := q.sc.events
	h := &q.sc.h
	batch := q.batch
	for len(*h) > 0 && int((*h)[0].pos) >= lo {
		// Drain every candidate at the current position: the position is
		// handled once, exactly like one iteration of the backward sweep.
		// Candidates whose location was killed since they were pushed are
		// stale; dropping them here (one presence-bit probe) skips the
		// entry decode for positions where nothing is live.
		g := int((*h)[0].pos)
		batch = batch[:0]
		event := false
		for len(*h) > 0 && int((*h)[0].pos) == g {
			c := h.pop()
			if c.event {
				event = true
			} else if wanted.has(c.loc) {
				batch = append(batch, c.loc)
			}
		}
		q.steps++

		// Pending control parent: include and skip data matching, as the
		// sequential sweep does. Demands this entry satisfies are killed
		// by include; the drained candidates die with them.
		if event {
			if wantedEvents[g>>6]&(1<<(g&63)) != 0 {
				wantedEvents[g>>6] &^= 1 << (g & 63)
				q.include(g, tr.Global[g], nil)
				continue
			}
		}
		if len(batch) == 0 {
			continue // all drained demands went stale since they were pushed
		}
		ref := tr.Global[g]
		e := &s.locals[ref.Tid][ref.Pos]

		// Save/restore bypass: same redirection as the sequential sweep.
		// A verified save/restore entry defines exactly one tracked
		// location (the PUSH's slot or the POP's register; SP is excluded
		// from dependence tracking), recorded in its bypass info — so the
		// match is decided against the batch without decoding the entry's
		// definitions, which matters: bypass hops dominate the event count
		// on call-heavy traces. The entry is not included, so any other
		// demand whose candidate was this position must look further back.
		if s.Opts.PruneSaveRestore {
			if bp, isBp := s.bypassAtPos(g); isBp {
				from, to := bp.slot, bp.reg
				if bp.role == bypassRestore {
					from, to = bp.reg, bp.slot
				}
				live := false
				for _, l := range batch {
					if l == from {
						live = true
						break
					}
				}
				if !live {
					continue // the pending demand on `from` went stale
				}
				requester, _ := wanted.get(from)
				wanted.del(from)
				// The entry uses `to`: the saved register for a save, the
				// stack slot for a restore.
				q.demand(to, requester, s.cols.useDef(e, g, to))
				q.pruned++
				for _, l := range batch {
					if wanted.has(l) {
						if p := s.cols.prevDef(e, g, l); p >= 0 {
							h.push(demandCand{pos: p, loc: l})
						}
					}
				}
				continue
			}
		}

		// Data match: the first location in the entry's definition order
		// with a pending demand, exactly the sequential sweep's selection.
		// Every wanted location this entry defines has its candidate in
		// the drained batch (candidates pop in position order), so the
		// batch doubles as the set of live demands to match against.
		defs := tracer.Defs(e, q.locBuf[:0])
		matched := tracer.Loc(0)
		found := false
		for _, l := range defs {
			for _, b := range batch {
				if b == l {
					matched = l
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			continue // all drained demands went stale since they were pushed
		}
		if from, ok := wanted.get(matched); ok {
			q.deps = append(q.deps, DepEdge{From: from, To: ref, Kind: DepData, Loc: matched})
		}
		q.include(g, ref, defs)
	}
	q.batch = batch
}

// finish materialises the completed query's Slice result. Deps gets an
// exact-size copy: the query's buffer stays with the pooled scratch.
func (q *query) finish() *Slice {
	out := &Slice{Criterion: q.crit, Deps: slices.Clone(q.deps)}
	if out.Deps == nil {
		out.Deps = []DepEdge{}
	}
	// Materialise members in global order straight off the bitset. The
	// membership map is left to Contains to build on demand.
	members := q.sc.members
	n := 0
	for _, word := range members {
		n += bits.OnesCount64(word)
	}
	out.Members = make([]tracer.Ref, 0, n)
	for w, word := range members {
		for word != 0 {
			g := w<<6 + bits.TrailingZeros64(word)
			out.Members = append(out.Members, q.s.Trace.Global[g])
			word &= word - 1
		}
	}
	out.Stats.TraceLen = len(q.s.Trace.Global)
	out.Stats.Members = len(out.Members)
	out.Stats.VerifiedPairs = q.s.pairs
	out.Stats.CFGRefinements = q.s.cfgRefinements
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
