package slice

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/tracer"
)

// defColumns is the parallel engine's dependence store: for every global
// position, the reaching definition of each location the entry uses (in
// tracer.Uses order) followed by the previous definition of each location
// it defines (in tracer.Defs order), as global positions, -1 where there
// is none. A query reads a demand's next candidate from here instead of
// searching a per-location index. Locations are not stored: re-decoding
// them from the entry is cheaper than the memory they would take.
//
// The columns are flat, exactly sized int32 arrays, one set per window.
// Their values are a function of the trace alone, so they are identical
// for any worker count or window size.
type defColumns struct {
	size int // window length: position g is entry g%size of win[g/size]
	win  []winColumns
	defs int64 // stored definitions
}

// winColumns holds one window's links: link[off[i]:off[i+1]] belong to
// the window's i-th entry.
type winColumns struct {
	off  []int32
	link []int32
}

// links returns the entry at global position g's reaching definitions of
// its uses followed by the previous definitions of its defs.
func (c *defColumns) links(g int) []int32 {
	wi := g / c.size
	w, i := &c.win[wi], g-wi*c.size
	return w.link[w.off[i]:w.off[i+1]]
}

// useDef returns the reaching definition of location l, which the entry
// e at global position g uses, or -1 when l is not among its uses. The
// bypass redirect asks for the saved register of a PUSH or the slot of
// a POP; when that is not a tracked use (RZ or SP), no entry ever
// defines it, so -1 is its reaching definition too.
func (c *defColumns) useDef(e *tracer.Entry, g int, l tracer.Loc) int32 {
	var buf [8]tracer.Loc
	for k, u := range tracer.Uses(e, buf[:0]) {
		if u == l {
			return c.links(g)[k]
		}
	}
	return -1
}

// prevDef returns the previous definition of location l, which the entry
// e at global position g defines, or -1 when l is not among its defs.
func (c *defColumns) prevDef(e *tracer.Entry, g int, l tracer.Loc) int32 {
	var buf [8]tracer.Loc
	links := c.links(g)
	base := len(links) - len(tracer.Defs(e, buf[:0]))
	for k, d := range tracer.Defs(e, buf[:0]) {
		if d == l {
			return links[base+k]
		}
	}
	return -1
}

// windowCarry is what a window's build leaves for the stitch: the
// locations whose reaching definition lies before the window (carry-ins,
// in placeholder order) and the last definition in the window of every
// location it defines.
type windowCarry struct {
	in   []tracer.Loc
	out  []locDef
	defs int64
}

type locDef struct {
	loc tracer.Loc
	pos int32
}

// buildColumns computes the columns in one parallel pass per window and
// a stitch in window order. A window resolves every use and definition
// whose reaching definition lies inside it; the others are carry-ins,
// stored as placeholders (-2-k for the window's k-th carried location)
// until the stitch, which walks the windows in order with the last
// definition of every location so far, patches the placeholders and then
// folds in the window's own last definitions.
func buildColumns(ctx context.Context, tr *tracer.Trace, locals [][]tracer.Entry, space tracer.LocSpace, windows []tracer.Window, size, workers int) (*defColumns, error) {
	c := &defColumns{size: size, win: make([]winColumns, len(windows))}
	carries := make([]windowCarry, len(windows))
	scratch := make([]*colScratch, max(1, workers))
	err := runPool(ctx, len(windows), workers, func(worker, i int) {
		sc := scratch[worker]
		if sc == nil {
			sc = newColScratch(space)
			scratch[worker] = sc
		}
		c.win[i], carries[i] = sc.window(tr, locals, windows[i], int32(i+1))
	})
	if err != nil {
		return nil, err
	}

	// The stitch: before window i, last holds (position+1) of every
	// location's latest definition in windows 0..i-1, 0 for none.
	last := make([]int32, space.Total())
	over := make(map[tracer.Loc]int32)
	var resolved []int32
	for i := range carries {
		ci := &carries[i]
		resolved = resolved[:0]
		for _, l := range ci.in {
			var v int32
			if j, ok := space.Index(l); ok {
				v = last[j]
			} else {
				v = over[l]
			}
			resolved = append(resolved, v-1)
		}
		if len(resolved) > 0 {
			link := c.win[i].link
			for k, v := range link {
				if v < -1 {
					link[k] = resolved[-2-v]
				}
			}
		}
		for _, d := range ci.out {
			if j, ok := space.Index(d.loc); ok {
				last[j] = d.pos + 1
			} else {
				over[d.loc] = d.pos + 1
			}
		}
		c.defs += ci.defs
	}
	return c, nil
}

// colScratch is one build worker's reusable state: a dense table over
// the location space holding, per location, its last definition in the
// window being built (or its carry-in placeholder), valid where stamp
// equals the window's stamp, so windows need no clearing between them.
// Out-of-space locations use over/overVals, cleared per window.
type colScratch struct {
	space    tracer.LocSpace
	cur      int32
	last     []int32
	stamp    []int32
	over     map[tracer.Loc]int32 // index into overVals
	overVals []int32
	link     []int32
	carried  []tracer.Loc
	defined  []tracer.Loc
}

func newColScratch(space tracer.LocSpace) *colScratch {
	n := space.Total()
	return &colScratch{
		space: space,
		last:  make([]int32, n),
		stamp: make([]int32, n),
		over:  make(map[tracer.Loc]int32),
	}
}

// slot returns l's table cell for the current window and whether the
// window has not touched l before. The pointer is valid until the next
// slot call.
func (sc *colScratch) slot(l tracer.Loc) (*int32, bool) {
	if i, ok := sc.space.Index(l); ok {
		fresh := sc.stamp[i] != sc.cur
		sc.stamp[i] = sc.cur
		return &sc.last[i], fresh
	}
	k, ok := sc.over[l]
	if !ok {
		k = int32(len(sc.overVals))
		sc.over[l] = k
		sc.overVals = append(sc.overVals, 0)
	}
	return &sc.overVals[k], !ok
}

// reaching returns l's definition reaching the current position of the
// window: a position inside the window, or a carry-in placeholder when
// the window has not defined l yet.
func (sc *colScratch) reaching(l tracer.Loc) (*int32, int32) {
	p, fresh := sc.slot(l)
	if fresh {
		*p = -2 - int32(len(sc.carried))
		sc.carried = append(sc.carried, l)
	}
	return p, *p
}

// window builds window w's columns. stamp must be unique per window
// among those this scratch builds.
func (sc *colScratch) window(tr *tracer.Trace, locals [][]tracer.Entry, w tracer.Window, stamp int32) (winColumns, windowCarry) {
	sc.cur = stamp
	clear(sc.over)
	sc.overVals, sc.link = sc.overVals[:0], sc.link[:0]
	sc.carried, sc.defined = sc.carried[:0], sc.defined[:0]
	off := make([]int32, w.Len()+1)
	var buf [8]tracer.Loc
	var defs int64
	for g := w.Lo; g < w.Hi; g++ {
		ref := tr.Global[g]
		e := &locals[ref.Tid][ref.Pos]
		for _, l := range tracer.Uses(e, buf[:0]) {
			_, v := sc.reaching(l)
			sc.link = append(sc.link, v)
		}
		for _, l := range tracer.Defs(e, buf[:0]) {
			p, v := sc.reaching(l)
			sc.link = append(sc.link, v)
			if v < 0 {
				sc.defined = append(sc.defined, l) // first definition in the window
			}
			*p = int32(g)
			defs++
		}
		off[g-w.Lo+1] = int32(len(sc.link))
	}
	carry := windowCarry{in: slices.Clone(sc.carried), out: make([]locDef, len(sc.defined)), defs: defs}
	for k, l := range sc.defined {
		p, _ := sc.slot(l)
		carry.out[k] = locDef{loc: l, pos: *p}
	}
	return winColumns{off: off, link: slices.Clone(sc.link)}, carry
}

// runPool runs job(worker, i) for every i in [0, n) on up to workers
// goroutines; worker (0 <= worker < max(1, workers)) identifies the
// goroutine, so jobs can keep per-worker scratch. Cancellation is polled
// via buildCancelled before each job: a cancelled ctx stops handing out
// jobs and runPool returns ctx's error.
func runPool(ctx context.Context, n, workers int, job func(worker, i int)) error {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := buildCancelled(ctx); err != nil {
				return err
			}
			job(0, i)
		}
		return buildCancelled(ctx)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || buildCancelled(ctx) != nil {
					return
				}
				job(w, i)
			}
		}()
	}
	wg.Wait()
	return buildCancelled(ctx)
}
