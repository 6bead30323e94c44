package slice

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/isa"
	"repro/internal/tracer"
)

// Navigator supports the KDbg GUI's dependence navigation (paper Figure
// 9): from any instruction in the slice, list the instructions it
// directly depends on (backward edges, the GUI's "Activate" traversal)
// and the instructions depending on it (forward).
type Navigator struct {
	tr      *tracer.Trace
	sl      *Slice
	back    map[tracer.Ref][]DepEdge // From -> edges (To = dependee)
	forward map[tracer.Ref][]DepEdge // To -> edges
}

// NewNavigator indexes a slice's dependence edges for navigation.
func NewNavigator(tr *tracer.Trace, sl *Slice) *Navigator {
	n := &Navigator{
		tr:      tr,
		sl:      sl,
		back:    make(map[tracer.Ref][]DepEdge),
		forward: make(map[tracer.Ref][]DepEdge),
	}
	for _, d := range sl.Deps() {
		n.back[d.From] = append(n.back[d.From], d)
		n.forward[d.To] = append(n.forward[d.To], d)
	}
	return n
}

// Criterion returns the slice's criterion ref, the natural navigation
// start point.
func (n *Navigator) Criterion() tracer.Ref { return n.sl.Criterion }

// DependsOn returns the dependence edges from ref to the instructions it
// consumed values (or control) from, ordered data-then-control.
func (n *Navigator) DependsOn(ref tracer.Ref) []DepEdge {
	out := append([]DepEdge(nil), n.back[ref]...)
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// Dependents returns the edges from instructions that consumed ref's
// value (or were control dependent on it).
func (n *Navigator) Dependents(ref tracer.Ref) []DepEdge {
	out := append([]DepEdge(nil), n.forward[ref]...)
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// Describe renders one slice instruction for display.
func (n *Navigator) Describe(prog *isa.Program, ref tracer.Ref) string {
	e := n.tr.Entry(ref)
	return fmt.Sprintf("T%d@%d %s (%s)", ref.Tid, e.Idx, prog.SourceOf(e.PC), e.Instr.String())
}

// WriteChain walks backwards from ref along the first dependence edge at
// each step — the "follow the value" shortcut — printing up to maxDepth
// hops. Cross-thread hops are marked; this is the textual version of
// clicking Activate repeatedly in the GUI.
func (n *Navigator) WriteChain(w io.Writer, prog *isa.Program, ref tracer.Ref, maxDepth int) {
	cur := ref
	for depth := 0; depth <= maxDepth; depth++ {
		fmt.Fprintf(w, "%*s%s\n", depth*2, "", n.Describe(prog, cur))
		deps := n.DependsOn(cur)
		if len(deps) == 0 {
			return
		}
		d := deps[0]
		marker := ""
		if d.From.Tid != d.To.Tid {
			marker = " [cross-thread]"
		}
		fmt.Fprintf(w, "%*s<- %s%s\n", depth*2, "", d.Kind, marker)
		cur = d.To
	}
	fmt.Fprintf(w, "%*s...\n", (maxDepth+1)*2, "")
}

// ResolveMember finds the slice member for (tid, per-thread idx), or an
// error when that instruction is not in the slice.
func (n *Navigator) ResolveMember(tid int, idx int64) (tracer.Ref, error) {
	ref, ok := n.tr.RefOf(tid, idx)
	if !ok {
		return tracer.Ref{}, fmt.Errorf("slice: T%d@%d outside the traced region", tid, idx)
	}
	if !n.sl.Contains(ref) {
		return tracer.Ref{}, fmt.Errorf("slice: T%d@%d is not in the slice", tid, idx)
	}
	return ref, nil
}
