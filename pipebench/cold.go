package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/tracer"
	"repro/internal/workloads"
)

// openEnded is the work-size input for region recordings: the program
// would run (effectively) forever and the logger cuts the region.
const openEnded int64 = 1 << 40

// kernel is one benchmark program compiled for a run.
type kernel struct {
	name  string // the workload registry's name
	prog  *isa.Program
	input []int64
}

// compileKernels compiles the named workload programs from source. It
// does not go through the workload registry's compile-once cache, so a
// repeated set-up pays for compilation again.
func compileKernels(names []string, size int64) ([]kernel, error) {
	out := make([]kernel, len(names))
	for i, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		prog, err := cc.CompileSource(w.Name+".c", w.Source)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", name, err)
		}
		out[i] = kernel{name: name, prog: prog, input: w.Input(w.DefaultThreads, size)}
	}
	return out, nil
}

// suiteNames are the 13 PARSEC-like and SPEC OMP-like kernels.
func suiteNames() []string {
	var names []string
	for _, w := range append(workloads.Parsec(), workloads.SpecOMP()...) {
		names = append(names, w.Name)
	}
	return names
}

// schedSeed draws a scheduling seed, which also seeds the program's
// rand() stream.
func schedSeed(rng *rand.Rand) int64 { return rng.Int64N(1 << 40) }

// reservoir keeps a uniform sample of k items from a stream of unknown
// length (Vitter's algorithm R).
type reservoir[T any] struct {
	k     int
	seen  int
	items []T
}

// slot returns the index the next item is stored at, or -1 when the
// sample does not keep it.
func (r *reservoir[T]) slot(rng *rand.Rand) int {
	r.seen++
	if len(r.items) < r.k {
		var zero T
		r.items = append(r.items, zero)
		return len(r.items) - 1
	}
	if j := rng.IntN(r.seen); j < r.k {
		return j
	}
	return -1
}

// coldSession is one user's paper-style debug sessions, back to back: each
// records a fresh region of a kernel, saves and reloads the pinball,
// collects the trace, builds the parallel engine, slices the last ten
// reads, and relogs and replays the first slice's execution slice. Every
// session's scheduling seed is fresh, so the engine cache always misses.
type coldSession struct {
	kernels []kernel
	main    int64
	nproc   int
	path    string // where each session saves its pinball
	kept    reservoir[coldRecord]
	probeLC pinplay.LogConfig
}

// coldRecord is one sampled slice of one session, enough to redo the
// session and check the slice against the sequential slicer.
type coldRecord struct {
	kernel int
	lc     pinplay.LogConfig
	id     string // the reloaded pinball's ID
	crit   tracer.Ref
	digest string
}

func (w *coldSession) clients() int { return 1 }

func (w *coldSession) setup(env *runEnv) error {
	ks, err := compileKernels(suiteNames(), openEnded)
	if err != nil {
		return err
	}
	// Each session's engine is new, so one resident engine is enough and
	// keeps the process's memory at about two sessions' worth.
	slice.ResetEngineCache()
	slice.SetEngineCacheCap(1)
	cfg.ResetGraphCache()
	*w = coldSession{
		kernels: ks,
		main:    env.cfg.size.coldMain,
		nproc:   env.cfg.nproc,
		path:    env.scratch("session.pinball"),
		kept:    reservoir[coldRecord]{k: checkSample},
	}
	// One untimed session, the same for every seed, lets first-use costs
	// (encoder type tables, heap growth) settle before the window.
	fixed := rand.New(rand.NewPCG(0, 0))
	warm := &client{rng: fixed, pick: fixed}
	if err := w.op(warm); err != nil {
		return fmt.Errorf("warm-up session: %w", err)
	}
	w.kept = reservoir[coldRecord]{k: checkSample}
	s := schedSeed(env.rng)
	w.probeLC = pinplay.LogConfig{Seed: s, Input: ks[0].input, RandSeed: s}
	return nil
}

func (w *coldSession) op(c *client) error {
	// Kernels run in a fresh seeded order every cycle of the suite, so a
	// window of any length covers the suite evenly.
	k := c.draw(0, len(w.kernels))
	prog := w.kernels[k].prog
	s := schedSeed(c.rng)
	lc := pinplay.LogConfig{Seed: s, Input: w.kernels[k].input, RandSeed: s}

	c.start("session")
	pb, err := call(c, "pinplay.record", func() (*pinball.Pinball, error) {
		return pinplay.Log(prog, lc, pinplay.RegionSpec{LengthMain: w.main})
	})
	if err != nil {
		return err
	}
	if err := do(c, "pinball.save", func() error { return pb.Save(w.path) }); err != nil {
		return err
	}
	sess, err := call(c, "core.load", func() (*core.Session, error) { return core.LoadSession(prog, w.path) })
	if err != nil {
		return err
	}
	sess.SetParallelWorkers(w.nproc)
	tr, err := call(c, "core.trace", sess.Trace)
	if err != nil {
		return err
	}
	if _, err := call(c, "slice.build", sess.ParallelSlicer); err != nil {
		return err
	}
	crits, _ := call(c, "slice.criteria", func() ([]tracer.Ref, error) {
		return slice.LastReadsInRegion(tr, paperCriteria), nil
	})
	if len(crits) == 0 {
		return fmt.Errorf("%s: no read in the region", prog.Name)
	}
	slices := make([]*slice.Slice, len(crits))
	for i, crit := range crits {
		if slices[i], err = call(c, "slice.query", func() (*slice.Slice, error) { return sess.SliceFor(crit) }); err != nil {
			return err
		}
	}
	spb, err := call(c, "pinplay.relog", func() (*pinball.Pinball, error) {
		spb, _, err := sess.ExecutionSlice(slices[0])
		return spb, err
	})
	if err != nil {
		return err
	}
	if err := do(c, "pinplay.slice_replay", func() error {
		_, err := pinplay.ReplaySlice(prog, spb, nil)
		return err
	}); err != nil {
		return err
	}
	c.stop()

	if j := w.kept.slot(c.pick); j >= 0 {
		i := c.pick.IntN(len(crits))
		w.kept.items[j] = coldRecord{kernel: k, lc: lc, id: sess.Pinball.ID(), crit: crits[i], digest: slice.Summarize(slices[i]).Digest}
	}
	return nil
}

// check redoes each sampled session: the recording must reproduce the
// reloaded pinball's ID, and the sampled parallel slice must match the
// sequential slicer's on the re-collected trace.
func (w *coldSession) check() ([]string, error) {
	var bad []string
	for _, r := range w.kept.items {
		prog := w.kernels[r.kernel].prog
		pb, err := pinplay.Log(prog, r.lc, pinplay.RegionSpec{LengthMain: w.main})
		if err != nil {
			return nil, err
		}
		if id := pb.ID(); id != r.id {
			bad = append(bad, fmt.Sprintf("cold-session %s seed %d: reloaded pinball %s, recording gives %s", prog.Name, r.lc.Seed, r.id, id))
			continue
		}
		want, err := sequentialDigest(prog, pb, r.crit)
		if err != nil {
			return nil, err
		}
		if want != r.digest {
			bad = append(bad, fmt.Sprintf("cold-session %s seed %d: parallel slice %s, sequential %s", prog.Name, r.lc.Seed, r.digest, want))
		}
	}
	return bad, nil
}

// sequentialDigest slices crit with the sequential reference slicer.
func sequentialDigest(prog *isa.Program, pb *pinball.Pinball, crit tracer.Ref) (string, error) {
	tr, err := core.Open(prog, pb).Trace()
	if err != nil {
		return "", err
	}
	seq, err := slice.New(prog, tr, slice.DefaultOptions())
	if err != nil {
		return "", err
	}
	sl, err := seq.Slice(crit)
	if err != nil {
		return "", err
	}
	return slice.Summarize(sl).Digest, nil
}

func (w *coldSession) probe() probeInput {
	return probeInput{prog: w.kernels[0].prog, lc: w.probeLC, spec: pinplay.RegionSpec{LengthMain: w.main}}
}

func (w *coldSession) layerCounters(map[string]float64) {}

func (w *coldSession) pid() string { return "self" }

func (w *coldSession) close() error { return nil }
