package slice

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/cfg"
	"repro/internal/fnv1a"
	"repro/internal/isa"
	"repro/internal/tracer"
)

// Options controls slicer precision features.
type Options struct {
	// MaxSave is the save/restore detector's scan depth (paper default
	// 10). Detection runs whenever PruneSaveRestore is on.
	MaxSave int
	// PruneSaveRestore bypasses spurious dependences through verified
	// save/restore pairs (§5.2).
	PruneSaveRestore bool
	// ControlDeps includes dynamic control dependences (on by default
	// via DefaultOptions).
	ControlDeps bool
	// UseJumpTables seeds the CFG with the compiler's ground-truth jump
	// tables instead of (and in addition to) dynamic refinement; tests
	// use it to compare refined slices against the ideal.
	UseJumpTables bool
	// DisableRefinement turns off §5.1 dynamic CFG refinement, leaving
	// the approximate static CFG in place — the imprecise baseline the
	// paper's Figure 7 contrasts against.
	DisableRefinement bool
	// LPBlock is the Limited Preprocessing block size (0 = default).
	LPBlock int
}

// DefaultOptions returns the configuration DrDebug runs with: control
// dependences on, save/restore pruning on with MaxSave=10.
func DefaultOptions() Options {
	return Options{MaxSave: 10, PruneSaveRestore: true, ControlDeps: true}
}

// DepKind classifies a dependence edge.
type DepKind uint8

// Dependence kinds.
const (
	DepData DepKind = iota
	DepControl
)

func (k DepKind) String() string {
	if k == DepControl {
		return "control"
	}
	return "data"
}

// DepEdge records that From (later in the global trace) dynamically
// depends on To. For data dependences, Loc is the register or memory
// location the value flowed through.
type DepEdge struct {
	From tracer.Ref
	To   tracer.Ref
	Kind DepKind
	Loc  tracer.Loc
	// Provenance and Confidence are filled by AnnotateProvenance when the
	// trace came from a flight-recorder replay: the worst provenance of
	// the edge's two endpoints and its confidence weight. Zero values
	// (ProvExact / 0) mean the slice was never annotated.
	Provenance tracer.Provenance
	Confidence float64
}

// Stats reports slicing cost and precision metrics.
type Stats struct {
	TraceLen       int   // entries in the global trace
	Members        int   // entries in the slice
	PrunedBypasses int64 // save/restore chains bypassed
	VerifiedPairs  int64 // dynamically verified save/restore pairs
	CFGRefinements int64 // indirect-jump targets added to the CFG
	LPBlocksVisit  int64
	LPBlocksSkip   int64
}

// Slice is a computed backward dynamic slice. Its dependence edges are
// kept folded into a digest and a count (see Summarize); the edge list
// is built only when Deps asks for it.
type Slice struct {
	Criterion tracer.Ref
	// Members lists the slice's entries in global-trace order (the
	// criterion is the last member).
	Members []tracer.Ref
	Stats   Stats
	// Prov is the provenance breakdown, present once AnnotateProvenance
	// has run (nil for slices over ordinary full traces).
	Prov *ProvSummary

	tr       *tracer.Trace
	member   []uint64 // flags the members' global positions in tr
	depHash  uint64   // foldDep of the edges in order
	depCount int64

	eng      *ParallelSlicer // non-nil: Deps re-runs the query on it
	depsOnce sync.Once
	deps     []DepEdge
}

// newSlice starts an empty slice of crit over tr.
func newSlice(tr *tracer.Trace, crit tracer.Ref) *Slice {
	return &Slice{
		Criterion: crit,
		tr:        tr,
		member:    make([]uint64, len(tr.Global)/64+1),
		depHash:   fnv1a.Offset,
	}
}

// Contains reports whether ref is in the slice.
func (s *Slice) Contains(r tracer.Ref) bool {
	g, ok := s.tr.GlobalPosOf(r)
	return ok && g>>6 < len(s.member) && s.member[g>>6]&(1<<(g&63)) != 0
}

// addPos flags the entry at global position g as a member.
func (s *Slice) addPos(g int) { s.member[g>>6] |= 1 << (g & 63) }

// addDep appends one dependence edge, folding it into the digest.
func (s *Slice) addDep(d DepEdge) {
	s.depHash = foldDep(s.depHash, d)
	s.depCount++
	s.deps = append(s.deps, d)
}

// Deps returns one exemplar dependence edge per included dependence, in
// the order the backward sweep found them, for navigation and export.
// An engine slice builds the list on first call by re-running its query
// on its engine, which it keeps alive; the oracle and resolved files
// fill it as they go. Safe for concurrent use.
func (s *Slice) Deps() []DepEdge {
	s.depsOnce.Do(func() {
		if s.eng != nil {
			s.deps = s.eng.edgesOf(s.Criterion, s.depCount)
		}
	})
	return s.deps
}

// Slicer computes backward dynamic slices over one collected trace. The
// forward analysis (CFG refinement, control-dependence parents,
// save/restore verification) runs once in New; each Slice call is then a
// backward traversal with LP block skipping, the paper's algorithm.
//
// Sessions answer from the column engine (ParallelSlicer); Slicer is the
// reference oracle it is checked against. Its callers build it straight
// from a trace: the differential and golden tests, matrix closure checks
// (CheckClosure) and the paper-figure timings.
type Slicer struct {
	Prog  *isa.Program
	Trace *tracer.Trace
	Opts  Options

	analyzer *cfg.Analyzer
	lp       *tracer.LPIndex
	fwd      *forward
}

// New prepares a slicer: builds the global trace (if not yet built), the
// LP block index and the forward-pass metadata.
func New(prog *isa.Program, tr *tracer.Trace, opts Options) (*Slicer, error) {
	if opts.MaxSave == 0 {
		opts.MaxSave = 10
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
	fwd, err := runForward(prog, tr, an, cand, !opts.DisableRefinement)
	if err != nil {
		return nil, err
	}
	return &Slicer{
		Prog:     prog,
		Trace:    tr,
		Opts:     opts,
		analyzer: an,
		lp:       tracer.BuildLPIndex(tr, opts.LPBlock),
		fwd:      fwd,
	}, nil
}

// Slice computes the backward dynamic slice of the value computed at the
// criterion entry: the transitive closure over dynamic data and control
// dependences, recovered by traversing the global trace backwards with LP
// block skipping.
func (s *Slicer) Slice(crit tracer.Ref) (*Slice, error) {
	tr := s.Trace
	startPos, ok := tr.GlobalPosOf(crit)
	if !ok {
		return nil, fmt.Errorf("slice: criterion %+v outside trace", crit)
	}

	out := newSlice(tr, crit)
	wanted := make(map[tracer.Loc]struct{})
	wantedBy := make(map[tracer.Loc]tracer.Ref)
	wantedEvents := make(map[int]tracer.Ref) // global pos -> who wants it
	var locBuf [8]tracer.Loc

	include := func(gpos int, ref tracer.Ref) {
		if out.Contains(ref) {
			return
		}
		out.addPos(gpos)
		e := tr.Entry(ref)
		// Kill the locations this entry defines, then demand its uses.
		for _, l := range tracer.Defs(e, locBuf[:0]) {
			delete(wanted, l)
			delete(wantedBy, l)
		}
		for _, l := range tracer.Uses(e, locBuf[:0]) {
			wanted[l] = struct{}{}
			wantedBy[l] = ref
		}
		if s.Opts.ControlDeps {
			if p, ok := s.fwd.parentOf(ref); ok {
				if pg, ok := tr.GlobalPosOf(p); ok && pg <= startPos {
					if !out.Contains(p) {
						wantedEvents[pg] = ref
					}
					out.addDep(DepEdge{From: ref, To: p, Kind: DepControl})
				}
			}
		}
	}

	include(startPos, crit)

	anyWantedEventIn := func(lo, hi int) bool {
		// wantedEvents is small (pending control parents); scan it.
		for g := range wantedEvents {
			if g >= lo && g <= hi {
				return true
			}
		}
		return false
	}

	g := startPos - 1
	for g >= 0 && (len(wanted) > 0 || len(wantedEvents) > 0) {
		// Limited Preprocessing: skip whole blocks that define none of
		// the wanted locations and hold no pending control parents.
		b := s.lp.BlockOf(g)
		blockStart := s.lp.BlockStart(b)
		if !s.lp.MayDefine(b, wanted) && !anyWantedEventIn(blockStart, g) {
			s.lp.Skipped++
			g = blockStart - 1
			continue
		}
		s.lp.Visited++

		for ; g >= blockStart && (len(wanted) > 0 || len(wantedEvents) > 0); g-- {
			ref := tr.Global[g]
			if from, isWanted := wantedEvents[g]; isWanted {
				delete(wantedEvents, g)
				_ = from
				include(g, ref)
				continue
			}
			e := tr.Entry(ref)
			matched := tracer.Loc(0)
			found := false
			for _, l := range tracer.Defs(e, locBuf[:0]) {
				if _, want := wanted[l]; want {
					matched = l
					found = true
					break
				}
			}
			if !found {
				continue
			}
			// Save/restore bypass (§5.2): a verified restore defining a
			// wanted register redirects the demand to its stack slot
			// without entering the slice; the matching save converts the
			// slot demand back into the register, re-establishing the
			// pre-call definition as the direct source.
			if s.Opts.PruneSaveRestore {
				if bp, isBp := s.fwd.bypass[ref]; isBp {
					switch {
					case bp.role == bypassRestore && matched == bp.reg:
						requester := wantedBy[bp.reg]
						delete(wanted, bp.reg)
						delete(wantedBy, bp.reg)
						wanted[bp.slot] = struct{}{}
						wantedBy[bp.slot] = requester
						out.Stats.PrunedBypasses++
						continue
					case bp.role == bypassSave && matched == bp.slot:
						requester := wantedBy[bp.slot]
						delete(wanted, bp.slot)
						delete(wantedBy, bp.slot)
						wanted[bp.reg] = struct{}{}
						wantedBy[bp.reg] = requester
						out.Stats.PrunedBypasses++
						continue
					}
				}
			}
			if from, ok := wantedBy[matched]; ok {
				out.addDep(DepEdge{From: from, To: ref, Kind: DepData, Loc: matched})
			}
			include(g, ref)
		}
	}

	out.Members = membersOf(tr, out.member)
	out.Stats.TraceLen = len(tr.Global)
	out.Stats.Members = len(out.Members)
	out.Stats.VerifiedPairs = s.fwd.pairs
	out.Stats.CFGRefinements = s.fwd.cfgRefinements
	out.Stats.LPBlocksVisit = s.lp.Visited
	out.Stats.LPBlocksSkip = s.lp.Skipped
	return out, nil
}

// membersOf lists the entries flagged in a member bitset, in global
// order.
func membersOf(tr *tracer.Trace, member []uint64) []tracer.Ref {
	n := 0
	for _, word := range member {
		n += bits.OnesCount64(word)
	}
	out := make([]tracer.Ref, 0, n)
	for w, word := range member {
		for word != 0 {
			out = append(out, tr.Global[w<<6+bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	return out
}

// LastEventOf returns the ref of the last traced entry of a thread —
// typically the failing assert, i.e. the natural slicing criterion at a
// failure point.
func LastEventOf(tr *tracer.Trace, tid int) (tracer.Ref, error) {
	l := tr.Locals[tid]
	if len(l) == 0 {
		return tracer.Ref{}, fmt.Errorf("slice: thread %d has no trace", tid)
	}
	return tracer.Ref{Tid: int32(tid), Pos: int32(len(l) - 1)}, nil
}

// LastReadOf returns the last entry (in global order) that reads the
// given memory address — "slice for variable v" with v resolved to its
// address.
func LastReadOf(tr *tracer.Trace, addr int64) (tracer.Ref, error) {
	for g := len(tr.Global) - 1; g >= 0; g-- {
		ref := tr.Global[g]
		e := tr.Entry(ref)
		if e.EffAddr == addr && (!e.MemIsWrite || e.MemAlsoRead) {
			return ref, nil
		}
	}
	return tracer.Ref{}, fmt.Errorf("slice: no read of address %d in trace", addr)
}

// LastReadsInRegion returns up to n refs of the latest read instructions
// in the global trace, spread across threads in backward order — the
// criterion set the paper's slicing-overhead evaluation uses ("slices for
// the last 10 read instructions spread across five threads").
func LastReadsInRegion(tr *tracer.Trace, n int) []tracer.Ref {
	var out []tracer.Ref
	perThread := map[int32]int{}
	for g := len(tr.Global) - 1; g >= 0 && len(out) < n; g-- {
		ref := tr.Global[g]
		e := tr.Entry(ref)
		if e.EffAddr >= 0 && !e.MemIsWrite {
			// Spread across threads: at most ceil(n/threads)+1 each.
			if perThread[ref.Tid] <= n/max(1, len(tr.Locals)) {
				out = append(out, ref)
				perThread[ref.Tid]++
			}
		}
	}
	return out
}

// EventAtLine returns the nth (1-based) entry of thread tid whose source
// line matches; the debugger uses it to resolve "slice at file:line".
func EventAtLine(tr *tracer.Trace, prog *isa.Program, tid int, line int32, nth int) (tracer.Ref, error) {
	count := 0
	l := tr.Locals[tid]
	for pos := range l {
		if l[pos].Instr.Line == line {
			count++
			if count == nth {
				return tracer.Ref{Tid: int32(tid), Pos: int32(pos)}, nil
			}
		}
	}
	return tracer.Ref{}, fmt.Errorf("slice: thread %d has %d events at line %d, want instance %d", tid, count, line, nth)
}
