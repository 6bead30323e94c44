package cfg

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/isa"
)

// Analyzer caches per-function CFGs and implements the Section 5.1
// refinement loop: start from the approximate static CFG (indirect jumps
// unresolved), record dynamically observed indirect-jump targets, and
// rebuild the affected function's CFG and post-dominator tree when a new
// target appears.
//
// Graph construction consults the process-lifetime cache (cache.go), so
// a second analyzer over the same program — a later slice query in the
// same cyclic-debugging session, or a parallel engine rebuilt after an
// option change — reuses CFGs and post-dominator trees instead of
// recomputing them. All methods are safe for concurrent use; the
// parallel forward pass queries IPDPc from every worker.
type Analyzer struct {
	prog *isa.Program
	fp   uint64 // Fingerprint(prog), the graph-cache key's program part

	mu     sync.RWMutex
	graphs map[int64]*FuncGraph // keyed by function entry pc

	// indirect maps a JMPI/CALLI pc to its observed target set.
	indirect map[int64]map[int64]bool

	// rebuilds counts CFG recomputations, for the evaluation harness.
	rebuilds int
}

// NewAnalyzer creates an analyzer over prog with no indirect-target
// knowledge — the "approximate static CFG" state.
func NewAnalyzer(prog *isa.Program) *Analyzer {
	return &Analyzer{
		prog:     prog,
		fp:       Fingerprint(prog),
		graphs:   make(map[int64]*FuncGraph),
		indirect: make(map[int64]map[int64]bool),
	}
}

// NewAnalyzerWithTables creates an analyzer pre-seeded with the compiler's
// jump-table ground truth. Used by tests to compare refined CFGs against
// the ideal, and unavailable to DrDebug proper (which must work on
// arbitrary binaries).
func NewAnalyzerWithTables(prog *isa.Program) *Analyzer {
	a := NewAnalyzer(prog)
	for _, jt := range prog.JumpTables {
		// Attribute every table target to every JMPI in the program that
		// could use it; without relocation info we conservatively find
		// JMPI instructions per function and seed each with the tables
		// reachable from that function. For the ground-truth analyzer it
		// is enough to seed all JMPIs with all table targets within the
		// same function.
		for pc, in := range prog.Code {
			if in.Op != isa.JMPI {
				continue
			}
			fn := prog.FuncAt(int64(pc))
			if fn == nil {
				continue
			}
			for _, t := range jt.Targets {
				if t >= fn.Entry && t < fn.End {
					a.observe(int64(pc), t)
				}
			}
		}
	}
	return a
}

// observe records a target without invalidating caches; returns true when
// the target is new.
func (a *Analyzer) observe(jmpPC, target int64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	set := a.indirect[jmpPC]
	if set == nil {
		set = make(map[int64]bool)
		a.indirect[jmpPC] = set
	}
	if set[target] {
		return false
	}
	set[target] = true
	return true
}

// ObserveIndirect records a dynamically observed indirect-jump target.
// When the target is new, the containing function's CFG is invalidated so
// the next Graph call rebuilds it with the extra edge, and ObserveIndirect
// returns true.
func (a *Analyzer) ObserveIndirect(jmpPC, target int64) bool {
	if !a.observe(jmpPC, target) {
		return false
	}
	if fn := a.prog.FuncAt(jmpPC); fn != nil {
		a.mu.Lock()
		delete(a.graphs, fn.Entry)
		a.mu.Unlock()
	}
	return true
}

// Graph returns the (possibly refined) CFG of the function containing pc,
// building it on demand.
func (a *Analyzer) Graph(pc int64) (*FuncGraph, error) {
	fn := a.prog.FuncAt(pc)
	if fn == nil {
		return nil, fmt.Errorf("cfg: pc %d not in any function", pc)
	}
	a.mu.RLock()
	g, ok := a.graphs[fn.Entry]
	a.mu.RUnlock()
	if ok {
		return g, nil
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	if g, ok := a.graphs[fn.Entry]; ok { // raced with another builder
		return g, nil
	}
	targets := make(map[int64][]int64)
	for jpc, set := range a.indirect {
		if !fn.Contains(jpc) {
			continue
		}
		ts := make([]int64, 0, len(set))
		for t := range set {
			ts = append(ts, t)
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		targets[jpc] = ts
	}
	key := graphKey{prog: a.fp, entry: fn.Entry, targets: targetsDigest(targets)}
	g, err := CachedGraph(key, func() (*FuncGraph, error) {
		return Build(a.prog, *fn, targets)
	})
	if err != nil {
		return nil, err
	}
	a.graphs[fn.Entry] = g
	a.rebuilds++
	return g, nil
}

// IPDPc returns the closing pc of the control-dependence region opened by
// the branch at branchPC (see FuncGraph.IPDPc), using the current refined
// CFG.
func (a *Analyzer) IPDPc(branchPC int64) (int64, error) {
	g, err := a.Graph(branchPC)
	if err != nil {
		return -1, err
	}
	return g.IPDPc(branchPC), nil
}

// Rebuilds returns how many CFG constructions the analyzer has performed
// (initial builds plus refinements).
func (a *Analyzer) Rebuilds() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.rebuilds
}

// TargetsOf returns the observed targets of the indirect jump at pc.
func (a *Analyzer) TargetsOf(pc int64) []int64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	set := a.indirect[pc]
	ts := make([]int64, 0, len(set))
	for t := range set {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}
