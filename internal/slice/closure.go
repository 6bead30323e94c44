package slice

import (
	"fmt"

	"repro/internal/tracer"
)

// CheckClosure verifies the defining property of a backward dynamic
// slice on a computed result: for every member, the dynamic sources of
// its used values are members too (except where a verified save/restore
// pair bypasses the dependence), every member's dynamic control parent
// inside the region is a member, members ascend in global order ending
// at the criterion, and every exemplar dependence edge connects members
// backward. It is the runtime form of the property-based closure tests,
// exposed so scenario assertions (drmatrix's `slice: closed`) can check
// a cell's slice without importing test internals. The walk is
// O(members × trace), so callers should reserve it for bounded regions.
func (s *Slicer) CheckClosure(sl *Slice) error {
	if sl == nil {
		return fmt.Errorf("slice: nil slice")
	}
	tr, opts, fwd := s.Trace, s.Opts, s.fwd
	if err := checkWellFormed(tr, sl); err != nil {
		return err
	}

	var buf [8]tracer.Loc
	definesAt := func(g int, l tracer.Loc) bool {
		e := tr.Entry(tr.Global[g])
		for _, d := range tracer.Defs(e, buf[:0]) {
			if d == l {
				return true
			}
		}
		return false
	}
	type demand struct {
		l tracer.Loc
		g int
	}
	checked := make(map[demand]bool)
	var walk func(l tracer.Loc, g int) error
	walk = func(l tracer.Loc, g int) error {
		if checked[demand{l, g}] {
			return nil
		}
		checked[demand{l, g}] = true
		for d := g - 1; d >= 0; d-- {
			if !definesAt(d, l) {
				continue
			}
			ref := tr.Global[d]
			if sl.Contains(ref) {
				return nil // closure holds: the source is in the slice
			}
			if opts.PruneSaveRestore {
				if bp, ok := fwd.bypass[ref]; ok {
					switch {
					case bp.role == bypassRestore && bp.reg == l:
						return walk(bp.slot, d)
					case bp.role == bypassSave && bp.slot == l:
						return walk(bp.reg, d)
					}
				}
			}
			return fmt.Errorf("slice: closure violated: member demand for loc %v resolves to non-member %+v (global %d)", l, ref, d)
		}
		return nil // no preceding definition: region-live-in value
	}
	for _, m := range sl.Members {
		g, ok := tr.GlobalPosOf(m)
		if !ok {
			return fmt.Errorf("slice: member %+v outside global trace", m)
		}
		for _, l := range tracer.Uses(tr.Entry(m), buf[:0]) {
			if err := walk(l, g); err != nil {
				return err
			}
		}
	}

	if opts.ControlDeps {
		critPos, _ := tr.GlobalPosOf(sl.Criterion)
		for _, m := range sl.Members {
			if p, ok := fwd.parentOf(m); ok {
				if pg, ok := tr.GlobalPosOf(p); ok && pg <= critPos && !sl.Contains(p) {
					return fmt.Errorf("slice: control parent %+v of member %+v not in slice", p, m)
				}
			}
		}
	}
	return s.checkProvenance(sl)
}

// checkWellFormed verifies the structural invariants of a slice result:
// ascending global member order ending at the criterion, and dependence
// edges that connect members strictly backward, with data edges naming a
// location their target defines.
func checkWellFormed(tr *tracer.Trace, sl *Slice) error {
	if len(sl.Members) == 0 {
		return fmt.Errorf("slice: empty slice")
	}
	prev := -1
	for _, m := range sl.Members {
		g, ok := tr.GlobalPosOf(m)
		if !ok {
			return fmt.Errorf("slice: member %+v outside trace", m)
		}
		if g <= prev {
			return fmt.Errorf("slice: members not in ascending global order at %+v", m)
		}
		prev = g
	}
	if last := sl.Members[len(sl.Members)-1]; last != sl.Criterion {
		return fmt.Errorf("slice: last member %+v is not the criterion %+v", last, sl.Criterion)
	}
	var buf [8]tracer.Loc
	for i, d := range sl.Deps() {
		if !sl.Contains(d.From) || !sl.Contains(d.To) {
			return fmt.Errorf("slice: dep %d %+v has non-member endpoint", i, d)
		}
		gf, _ := tr.GlobalPosOf(d.From)
		gt, _ := tr.GlobalPosOf(d.To)
		if gt >= gf && d.From != d.To {
			return fmt.Errorf("slice: dep %d %+v does not point backward (%d -> %d)", i, d, gf, gt)
		}
		if d.Kind == DepData {
			defines := false
			for _, l := range tracer.Defs(tr.Entry(d.To), buf[:0]) {
				if l == d.Loc {
					defines = true
				}
			}
			if !defines {
				return fmt.Errorf("slice: data dep %d %+v names loc %v its target does not define", i, d, d.Loc)
			}
		}
	}
	return nil
}
