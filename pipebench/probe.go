package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/store"
)

// probeInput is the representative recording a traced run's layer probe
// measures: one of the workload's own programs at the workload's region
// size.
type probeInput struct {
	prog *isa.Program
	lc   pinplay.LogConfig
	spec pinplay.RegionSpec
}

// cost is one probed call: wall time, allocations, and the live heap it
// left behind.
type cost struct {
	ns, allocs, retained float64
}

// measure runs f between two garbage collections, so allocation counts and
// the retained heap belong to f alone. The collections lie outside the
// timed part.
func measure(f func() error) (cost, error) {
	var a, b, c runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	runtime.GC()
	runtime.ReadMemStats(&c)
	return cost{
		ns:       float64(d.Nanoseconds()),
		allocs:   float64(b.Mallocs - a.Mallocs),
		retained: float64(int64(c.HeapAlloc) - int64(a.HeapAlloc)),
	}, err
}

// probeLayers calls every in-process layer once on the probe input, in
// pipeline order, and returns each layer's unit costs. Every workload's
// traced run probes every layer, so a layer a workload's window bypasses
// still has its cost on record.
func probeLayers(dir string, in probeInput, workers int) (map[string]float64, error) {
	m := map[string]float64{}
	fail := func(layer string, err error) (map[string]float64, error) {
		return nil, fmt.Errorf("%s: %w", layer, err)
	}

	var pb *pinball.Pinball
	c, err := measure(func() (err error) { pb, err = pinplay.Log(in.prog, in.lc, in.spec); return })
	if err != nil {
		return fail("pinplay.record", err)
	}
	instrs := float64(pb.RegionInstrs)
	m["pinplay.log_ns_per_instr"] = c.ns / instrs
	m["pinplay.log_allocs_per_instr"] = c.allocs / instrs

	var data []byte
	if c, err = measure(func() (err error) { data, err = pb.EncodeBytes(); return }); err != nil {
		return fail("pinball.encode", err)
	}
	m["pinball.encode_ns_per_instr"] = c.ns / instrs
	m["pinball.bytes_per_instr"] = float64(len(data)) / instrs
	if c, err = measure(func() error { _, err := pinball.Decode(data); return err }); err != nil {
		return fail("pinball.decode", err)
	}
	m["pinball.decode_ns_per_instr"] = c.ns / instrs

	path := dir + "/probe.pinball"
	if err := pb.Save(path); err != nil {
		return fail("pinball.save", err)
	}
	if c, err = measure(func() error { _, err := core.LoadSession(in.prog, path); return err }); err != nil {
		return fail("core.load", err)
	}
	m["core.load_ms"] = c.ns / 1e6

	st, err := store.Open(dir + "/probe-store")
	if err != nil {
		return fail("store.open", err)
	}
	var put *store.PutResult
	if c, err = measure(func() (err error) { put, err = st.Put(data, store.PutMeta{Program: in.prog.Name}); return }); err != nil {
		return fail("store.put", err)
	}
	m["store.put_ms"] = c.ns / 1e6
	if c, err = measure(func() error { _, err := st.Get(put.Digest); return err }); err != nil {
		return fail("store.get", err)
	}
	m["store.get_ms"] = c.ns / 1e6

	var rep *pinplay.ReplayReport
	if c, err = measure(func() (err error) { _, rep, err = pinplay.ReplayWith(in.prog, pb, pinplay.ReplayOptions{}); return }); err != nil {
		return fail("pinplay.replay", err)
	}
	replayNs := c.ns / instrs
	m["pinplay.replay_ns_per_instr"] = replayNs
	m["pinplay.checkpoints_checked"] = float64(rep.Checked)

	sess := core.Open(in.prog, pb)
	if c, err = measure(func() error { _, err := sess.Trace(); return err }); err != nil {
		return fail("core.trace", err)
	}
	tr, _ := sess.Trace()
	m["core.trace_ns_per_instr"] = c.ns / instrs
	m["core.trace_heap_bytes_per_instr"] = c.retained / instrs
	m["core.trace_allocs_per_instr"] = c.allocs / instrs
	m["tracer.overhead_ns_per_instr"] = c.ns/instrs - replayNs

	// The engine is built directly, not through the engine cache, so the
	// probe measures a build even when the window already cached one for
	// this recording.
	var eng *slice.ParallelSlicer
	popts := slice.ParallelOptions{Workers: workers, WindowSize: pinplay.WindowSize(pb)}
	if c, err = measure(func() (err error) {
		eng, err = slice.NewParallel(in.prog, tr, slice.DefaultOptions(), popts)
		return
	}); err != nil {
		return fail("slice.build", err)
	}
	es := eng.Stats()
	m["slice.build_ns_per_instr"] = c.ns / instrs
	m["slice.build_heap_bytes_per_instr"] = c.retained / instrs
	m["slice.shards"] = float64(es.Shards)
	m["slice.index_defs"] = float64(es.IndexDefs)

	crits := slice.LastReadsInRegion(tr, paperCriteria)
	if len(crits) == 0 {
		return fail("slice.criteria", fmt.Errorf("no read in the probe region"))
	}
	var qs []time.Duration
	var members int
	var first *slice.Slice
	for _, crit := range crits {
		t0 := time.Now()
		sl, err := eng.Slice(crit)
		if err != nil {
			return fail("slice.query", err)
		}
		qs = append(qs, time.Since(t0))
		members += len(sl.Members)
		if first == nil {
			first = sl
		}
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	n := float64(len(crits))
	m["slice.query_ms_p50"] = ms(percentile(qs, 50))
	m["slice.query_ms_max"] = ms(qs[len(qs)-1])
	m["slice.index_steps_per_query"] = float64(eng.Stats().IndexSteps-es.IndexSteps) / n
	m["slice.members_per_query"] = float64(members) / n

	var spb *pinball.Pinball
	if c, err = measure(func() (err error) { spb, _, err = sess.ExecutionSlice(first); return }); err != nil {
		return fail("pinplay.relog", err)
	}
	m["pinplay.relog_ms"] = c.ns / 1e6
	m["pinplay.slice_kept_ratio"] = float64(spb.TotalQuantumInstrs()) / float64(pb.TotalQuantumInstrs())
	if c, err = measure(func() error { _, err := pinplay.ReplaySlice(in.prog, spb, nil); return err }); err != nil {
		return fail("pinplay.slice_replay", err)
	}
	m["pinplay.slice_replay_ms"] = c.ns / 1e6
	return m, nil
}

// paperCriteria is the paper's slicing-criteria count per region: the
// last ten reads, spread across threads.
const paperCriteria = 10
