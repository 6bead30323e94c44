package slice

import (
	"fmt"
	"testing"

	"repro/internal/cc"
	"repro/internal/isa"
	"repro/internal/pinplay"
	"repro/internal/progfuzz"
	"repro/internal/tracer"
)

// querier is what both engines answer, so one check can range over
// the sequential reference and the column engine.
type querier interface {
	Slice(crit tracer.Ref) (*Slice, error)
}

// Property-based closure tests (in the internal package, so they can see
// the forward-pass metadata and the member set). The defining property
// of a backward dynamic slice is closure: for every member, the dynamic
// sources of its used values are in the slice too, except where a
// verified save/restore pair explicitly bypasses the dependence (§5.2).
// These properties hold for ANY correct slicer, so they are checked on
// both engines over a population of generated programs.

// propTrace builds, logs and traces one seeded progfuzz program.
func propTrace(t *testing.T, seed int64) (*isa.Program, *tracer.Trace, int) {
	t.Helper()
	src := progfuzz.Generate(progfuzz.Config{
		Seed:    seed,
		Stmts:   5 + int(seed%6),
		Funcs:   int(seed % 3),
		Threads: seed%3 == 0,
	})
	prog, err := cc.CompileSource(fmt.Sprintf("prop%d.c", seed), src)
	if err != nil {
		t.Fatalf("seed %d: compile: %v", seed, err)
	}
	pb, err := pinplay.Log(prog, pinplay.LogConfig{Seed: seed, MeanQuantum: 4}, pinplay.RegionSpec{})
	if err != nil {
		t.Fatalf("seed %d: log: %v", seed, err)
	}
	return prog, replayTrace(t, prog, pb), pinplay.WindowSize(pb)
}

// checkDataClosure walks every member's uses backward to their dynamic
// definition: the definition must be a slice member, or a verified
// save/restore instruction whose bypass redirects the demand (in which
// case the redirected location's definition chain is followed), or not
// exist at all (region-live-in value). bypassAt reports the engine's
// bypass roles of the entry at a global position.
func checkDataClosure(t *testing.T, label string, tr *tracer.Trace, sl *Slice, opts Options, bypassAt func(g int) (bypassInfo, bool)) {
	t.Helper()
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
	type dk struct {
		l tracer.Loc
		g int
	}
	checked := make(map[dk]bool)
	var walk func(l tracer.Loc, g int)
	walk = func(l tracer.Loc, g int) {
		if checked[dk{l, g}] {
			return
		}
		checked[dk{l, g}] = true
		for d := g - 1; d >= 0; d-- {
			if !definesAt(d, l) {
				continue
			}
			ref := tr.Global[d]
			if sl.Contains(ref) {
				return // closure holds: the source is in the slice
			}
			if opts.PruneSaveRestore {
				if bp, ok := bypassAt(d); ok {
					switch {
					case bp.role == bypassRestore && bp.reg == l:
						walk(bp.slot, d)
						return
					case bp.role == bypassSave && bp.slot == l:
						walk(bp.reg, d)
						return
					}
				}
			}
			t.Fatalf("%s: closure violated: member demand for loc %v resolves to non-member %+v (global %d)",
				label, l, ref, d)
		}
		// No preceding definition: the value is live-in to the region.
	}
	for _, m := range sl.Members {
		g, ok := tr.GlobalPosOf(m)
		if !ok {
			t.Fatalf("%s: member %+v outside global trace", label, m)
		}
		for _, l := range tracer.Uses(tr.Entry(m), buf[:0]) {
			walk(l, g)
		}
	}
}

// checkControlClosure: every member's dynamic control parent (when
// inside the sliced region) is a member. parent is a control-parent
// column: the parent's global position of the entry at each global
// position, -1 for none.
func checkControlClosure(t *testing.T, label string, tr *tracer.Trace, sl *Slice, parent []int32) {
	t.Helper()
	critPos, _ := tr.GlobalPosOf(sl.Criterion)
	for _, m := range sl.Members {
		g, _ := tr.GlobalPosOf(m)
		if pg := int(parent[g]); pg >= 0 && pg <= critPos && !sl.Contains(tr.Global[pg]) {
			t.Fatalf("%s: control parent %+v of member %+v not in slice", label, tr.Global[pg], m)
		}
	}
}

// parentColumn lays a sequential forward pass's per-thread parents out
// as a control-parent column over global positions.
func parentColumn(tr *tracer.Trace, fwd *forward) []int32 {
	col := make([]int32, len(tr.Global))
	for g, ref := range tr.Global {
		col[g] = -1
		if p, ok := fwd.parentOf(ref); ok {
			if pg, ok := tr.GlobalPosOf(p); ok {
				col[g] = int32(pg)
			}
		}
	}
	return col
}

// checkSliceWellFormed: members ascend in global order and end at the
// criterion; every dependence edge connects members, and data edges name
// a location their target actually defines.
func checkSliceWellFormed(t *testing.T, label string, tr *tracer.Trace, sl *Slice) {
	t.Helper()
	if len(sl.Members) == 0 {
		t.Fatalf("%s: empty slice", label)
	}
	prev := -1
	for _, m := range sl.Members {
		g, ok := tr.GlobalPosOf(m)
		if !ok {
			t.Fatalf("%s: member %+v outside trace", label, m)
		}
		if g <= prev {
			t.Fatalf("%s: members not in ascending global order at %+v", label, m)
		}
		prev = g
	}
	if last := sl.Members[len(sl.Members)-1]; last != sl.Criterion {
		t.Fatalf("%s: last member %+v is not the criterion %+v", label, last, sl.Criterion)
	}
	var buf [8]tracer.Loc
	for i, d := range sl.Deps() {
		if !sl.Contains(d.From) || !sl.Contains(d.To) {
			t.Fatalf("%s: dep %d %+v has non-member endpoint", label, i, d)
		}
		gf, _ := tr.GlobalPosOf(d.From)
		gt, _ := tr.GlobalPosOf(d.To)
		if gt >= gf && d.From != d.To {
			t.Fatalf("%s: dep %d %+v does not point backward (%d -> %d)", label, i, d, gf, gt)
		}
		if d.Kind == DepData {
			defines := false
			for _, l := range tracer.Defs(tr.Entry(d.To), buf[:0]) {
				if l == d.Loc {
					defines = true
				}
			}
			if !defines {
				t.Fatalf("%s: data dep %d %+v names loc %v its target does not define", label, i, d, d.Loc)
			}
		}
	}
}

// TestSliceClosureProperties checks the closure properties on both
// engines across a population of generated programs and option sets.
func TestSliceClosureProperties(t *testing.T) {
	programs := int64(40)
	if testing.Short() {
		programs = 10
	}
	for seed := int64(1); seed <= programs; seed++ {
		prog, tr, window := propTrace(t, seed)
		opts := DefaultOptions()
		switch seed % 3 {
		case 1:
			opts.PruneSaveRestore = false
		case 2:
			opts.ControlDeps = false
		}

		crit, err := LastEventOf(tr, 0)
		if err != nil {
			t.Fatal(err)
		}

		seqEng, err := New(prog, tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		parEng, err := NewParallel(prog, tr, opts, ParallelOptions{Workers: 3, WindowSize: window})
		if err != nil {
			t.Fatal(err)
		}

		seqBypass := func(g int) (bypassInfo, bool) {
			bp, ok := seqEng.fwd.bypass[tr.Global[g]]
			return bp, ok
		}
		for _, eng := range []struct {
			name     string
			q        querier
			bypassAt func(g int) (bypassInfo, bool)
			parent   []int32
		}{
			{"sequential", seqEng, seqBypass, parentColumn(tr, seqEng.fwd)},
			{"parallel", parEng, parEng.bypassAtPos, parEng.parent},
		} {
			label := fmt.Sprintf("seed %d %s (opts %+v)", seed, eng.name, opts)
			sl, err := eng.q.Slice(crit)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkSliceWellFormed(t, label, tr, sl)
			checkDataClosure(t, label, tr, sl, opts, eng.bypassAt)
			if opts.ControlDeps {
				checkControlClosure(t, label, tr, sl, eng.parent)
			}
		}
	}
}
