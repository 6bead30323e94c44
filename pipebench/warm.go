package main

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/tracer"
)

// warmQuery is two users slicing against engines that are already built:
// set-up records, traces and builds a parallel engine for blackscholes
// (deep slices) and mgrid (save/restore-heavy); the window is slice
// queries only, in batches of four. Half the criteria are the paper's
// last reads, the other half reads drawn uniformly from the whole region,
// so slice depth varies. The recordings are fixed: which of a region's last reads slice
// deep depends on the schedule, so every seed queries the same engines
// and the seed draws the criteria.
type warmQuery struct {
	engines []warmEngine
	probeIn probeInput
	kept    []reservoir[warmRecord] // per client
}

var warmPrograms = []string{"blackscholes", "mgrid"}

// warmSchedSeed is the engines' recording seed.
const warmSchedSeed = 1

type warmEngine struct {
	sess      *core.Session
	lastReads []tracer.Ref
	reads     []tracer.Ref // every read in the region, in global order
}

type warmRecord struct {
	engine int
	crit   tracer.Ref
	sl     *slice.Slice
}

func (w *warmQuery) clients() int { return 2 }

func (w *warmQuery) setup(env *runEnv) error {
	ks, err := compileKernels(warmPrograms, openEnded)
	if err != nil {
		return err
	}
	slice.ResetEngineCache()
	cfg.ResetGraphCache()
	*w = warmQuery{kept: make([]reservoir[warmRecord], w.clients())}
	for i := range w.kept {
		w.kept[i].k = checkSample
	}
	spec := pinplay.RegionSpec{LengthMain: env.cfg.size.warmMain}
	for _, k := range ks {
		lc := pinplay.LogConfig{Seed: warmSchedSeed, Input: k.input, RandSeed: warmSchedSeed}
		if w.probeIn.prog == nil {
			w.probeIn = probeInput{prog: k.prog, lc: lc, spec: spec}
		}
		sess, err := core.RecordRegion(k.prog, lc, spec)
		if err != nil {
			return err
		}
		sess.SetParallelWorkers(env.cfg.nproc)
		tr, err := sess.Trace()
		if err != nil {
			return err
		}
		if _, err := sess.ParallelSlicer(); err != nil {
			return err
		}
		e := warmEngine{sess: sess, lastReads: slice.LastReadsInRegion(tr, paperCriteria)}
		for _, ref := range tr.Global {
			if ev := tr.Entry(ref); ev.EffAddr >= 0 && !ev.MemIsWrite {
				e.reads = append(e.reads, ref)
			}
		}
		if len(e.lastReads) == 0 {
			return fmt.Errorf("%s: no read in the region", k.prog.Name)
		}
		w.engines = append(w.engines, e)
	}
	return nil
}

// op slices a batch of four criteria, a last read and a uniformly drawn
// read on each engine, in seeded order; each engine's last reads are dealt
// from a seeded deck. A single query can take a millisecond, where
// scheduler and GC jitter is a tenth of the latency; a batch keeps the
// operation well above it.
func (w *warmQuery) op(c *client) error {
	var batch [4]warmRecord
	for i, pair := range c.rng.Perm(len(batch)) {
		e := &w.engines[pair/2]
		batch[i].engine = pair / 2
		if pair%2 == 0 {
			batch[i].crit = e.lastReads[c.draw(1+pair/2, len(e.lastReads))]
		} else {
			batch[i].crit = e.reads[c.rng.IntN(len(e.reads))]
		}
	}
	c.start("queries")
	for i := range batch {
		e, crit := w.engines[batch[i].engine], batch[i].crit
		sl, err := call(c, "slice.query", func() (*slice.Slice, error) { return e.sess.SliceFor(crit) })
		if err != nil {
			return err
		}
		batch[i].sl = sl
	}
	c.stop()
	if j := w.kept[c.id].slot(c.pick); j >= 0 {
		w.kept[c.id].items[j] = batch[c.pick.IntN(len(batch))]
	}
	return nil
}

// check compares every sampled query's slice with the sequential
// slicer's over the same trace.
func (w *warmQuery) check() ([]string, error) {
	var bad []string
	seq := make([]*slice.Slicer, len(w.engines))
	for _, kept := range w.kept {
		for _, r := range kept.items {
			e := w.engines[r.engine]
			if seq[r.engine] == nil {
				tr, err := e.sess.Trace()
				if err != nil {
					return nil, err
				}
				if seq[r.engine], err = slice.New(e.sess.Prog, tr, slice.DefaultOptions()); err != nil {
					return nil, err
				}
			}
			want, err := seq[r.engine].Slice(r.crit)
			if err != nil {
				return nil, err
			}
			if got, ref := slice.Summarize(r.sl).Digest, slice.Summarize(want).Digest; got != ref {
				bad = append(bad, fmt.Sprintf("warm-query %s %v: parallel slice %s, sequential %s", e.sess.Prog.Name, r.crit, got, ref))
			}
		}
	}
	return bad, nil
}

func (w *warmQuery) probe() probeInput { return w.probeIn }

func (w *warmQuery) layerCounters(map[string]float64) {}

func (w *warmQuery) pid() string { return "self" }

func (w *warmQuery) close() error { return nil }
