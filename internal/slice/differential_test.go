package slice_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cc"
	"repro/internal/dualslice"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/progfuzz"
	"repro/internal/slice"
	"repro/internal/tracer"
)

// querier is what both engines answer, so one check can range over
// the sequential reference and the column engine.
type querier interface {
	Slice(crit tracer.Ref) (*slice.Slice, error)
}

// The differential harness: the parallel sharded engine must produce
// bit-identical slices to the sequential slicer — same members, same
// exemplar dependence edges in the same order, same bypass counts — for
// every program, criterion, option set and worker count. Programs come
// from the progfuzz generator, so every run covers hundreds of distinct
// control-flow/dataflow shapes, and any mismatch reproduces from its
// seed.

// fuzzProgram builds, logs and traces one seeded progfuzz program.
func fuzzProgram(t *testing.T, seed int64) (*isa.Program, *pinball.Pinball, *tracer.Trace) {
	t.Helper()
	cfg := progfuzz.Config{
		Seed:    seed,
		Stmts:   6 + int(seed%7),
		Funcs:   int(seed % 3),
		Threads: seed%4 == 0,
	}
	src := progfuzz.Generate(cfg)
	prog, err := cc.CompileSource(fmt.Sprintf("fuzz%d.c", seed), src)
	if err != nil {
		t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
	}
	pb, err := pinplay.Log(prog, pinplay.LogConfig{Seed: seed, MeanQuantum: 5}, pinplay.RegionSpec{})
	if err != nil {
		t.Fatalf("seed %d: log: %v", seed, err)
	}
	m := pinplay.NewReplayMachine(prog, pb, nil)
	col := tracer.NewCollector()
	m.SetTracer(col)
	total := pb.TotalQuantumInstrs()
	for i := int64(0); i < total && m.StepOne(); i++ {
	}
	tr := col.Trace()
	if err := tr.BuildGlobal(); err != nil {
		t.Fatalf("seed %d: global trace: %v", seed, err)
	}
	return prog, pb, tr
}

// optionsForSeed rotates through the precision configurations.
func optionsForSeed(seed int64) slice.Options {
	opts := slice.DefaultOptions()
	switch seed % 5 {
	case 1:
		opts.PruneSaveRestore = false
	case 2:
		opts.ControlDeps = false
	case 3:
		opts.DisableRefinement = true
	case 4:
		opts.UseJumpTables = true
	}
	return opts
}

// mustEqualSlices fails the test unless the two slices are identical in
// every observable field (LP counters excepted: the parallel engine
// does not do LP block skipping, which is the point).
func mustEqualSlices(t *testing.T, label string, seq, par *slice.Slice) {
	t.Helper()
	if seq.Criterion != par.Criterion {
		t.Fatalf("%s: criterion %+v vs %+v", label, seq.Criterion, par.Criterion)
	}
	if len(seq.Members) != len(par.Members) {
		t.Fatalf("%s: %d members sequential, %d parallel", label, len(seq.Members), len(par.Members))
	}
	for i := range seq.Members {
		if seq.Members[i] != par.Members[i] {
			t.Fatalf("%s: member %d: %+v vs %+v", label, i, seq.Members[i], par.Members[i])
		}
	}
	seqDeps, parDeps := seq.Deps(), par.Deps()
	if len(seqDeps) != len(parDeps) {
		t.Fatalf("%s: %d dep edges sequential, %d parallel", label, len(seqDeps), len(parDeps))
	}
	for i := range seqDeps {
		if seqDeps[i] != parDeps[i] {
			t.Fatalf("%s: dep %d: %+v vs %+v", label, i, seqDeps[i], parDeps[i])
		}
	}
	if seq.Stats.Members != par.Stats.Members ||
		seq.Stats.TraceLen != par.Stats.TraceLen ||
		seq.Stats.PrunedBypasses != par.Stats.PrunedBypasses ||
		seq.Stats.VerifiedPairs != par.Stats.VerifiedPairs ||
		seq.Stats.CFGRefinements != par.Stats.CFGRefinements {
		t.Fatalf("%s: stats differ:\nseq %+v\npar %+v", label, seq.Stats, par.Stats)
	}
	for _, m := range seq.Members {
		if !par.Contains(m) {
			t.Fatalf("%s: parallel Contains misses member %+v", label, m)
		}
	}
}

// criteriaOf picks the slice criteria a differential case exercises:
// the program's last event, the latest reads across threads, and reads
// sampled across the region. Last reads of small programs have tiny
// slices; mid-region reads reach into loops and calls.
func criteriaOf(t *testing.T, tr *tracer.Trace) []tracer.Ref {
	t.Helper()
	crit, err := slice.LastEventOf(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := []tracer.Ref{crit}
	out = append(out, slice.LastReadsInRegion(tr, 2)...)
	return append(out, midRegionReads(tr, 6)...)
}

// midRegionReads samples up to n memory reads evenly spaced over the
// region's reads in global order: a deterministic sampler.
func midRegionReads(tr *tracer.Trace, n int) []tracer.Ref {
	var reads []tracer.Ref
	for _, r := range tr.Global {
		if e := tr.Entry(r); e.EffAddr >= 0 && !e.MemIsWrite {
			reads = append(reads, r)
		}
	}
	if len(reads) <= n {
		return reads
	}
	out := make([]tracer.Ref, n)
	for i := range out {
		out[i] = reads[(2*i+1)*len(reads)/(2*n)]
	}
	return out
}

// TestDifferentialSeqVsParallel runs the main differential sweep: 200
// seeded programs (a reduced set under -short), each sliced at several
// criteria by both engines with rotating options and worker counts.
func TestDifferentialSeqVsParallel(t *testing.T) {
	programs := int64(200)
	if testing.Short() {
		programs = 25
	}
	cases := 0
	for seed := int64(1); seed <= programs; seed++ {
		prog, pb, tr := fuzzProgram(t, seed)
		opts := optionsForSeed(seed)

		seqEng, err := slice.New(prog, tr, opts)
		if err != nil {
			t.Fatalf("seed %d: sequential slicer: %v", seed, err)
		}
		parEng, err := slice.NewParallel(prog, tr, opts, slice.ParallelOptions{
			Workers:    1 + int(seed%8),
			WindowSize: pinplay.WindowSize(pb),
		})
		if err != nil {
			t.Fatalf("seed %d: parallel engine: %v", seed, err)
		}

		for ci, crit := range criteriaOf(t, tr) {
			label := fmt.Sprintf("seed %d crit %d (opts %+v)", seed, ci, opts)
			seqSl, err := seqEng.Slice(crit)
			if err != nil {
				t.Fatalf("%s: sequential: %v", label, err)
			}
			parSl, err := parEng.Slice(crit)
			if err != nil {
				t.Fatalf("%s: parallel: %v", label, err)
			}
			mustEqualSlices(t, label, seqSl, parSl)
			cases++

			// Exclusion regions (the §4 execution-slice input) must come
			// out identical too — they are derived from the member set.
			if ci == 0 {
				seqEx := slice.BuildExclusions(tr, seqSl)
				parEx := slice.BuildExclusions(tr, parSl)
				if len(seqEx) != len(parEx) {
					t.Fatalf("%s: %d exclusions sequential, %d parallel", label, len(seqEx), len(parEx))
				}
				for i := range seqEx {
					if seqEx[i] != parEx[i] {
						t.Fatalf("%s: exclusion %d: %+v vs %+v", label, i, seqEx[i], parEx[i])
					}
				}
			}
		}
	}
	t.Logf("differential sweep: %d slice pairs compared across %d programs", cases, programs)
}

// TestDifferentialDualSlice checks the engines agree end-to-end through
// dual slicing: two schedules of the same racy program, sliced at the
// same criterion by each engine, must yield identical diffs.
func TestDifferentialDualSlice(t *testing.T) {
	seeds := []int64{4, 8, 12, 16, 20}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		// seed%4==0 gives a threaded program; two different log seeds give
		// two schedules of it.
		progA, pbA, trA := fuzzProgram(t, seed)
		cfg := progfuzz.Config{Seed: seed, Stmts: 6 + int(seed%7), Funcs: int(seed % 3), Threads: true}
		src := progfuzz.Generate(cfg)
		progB, err := cc.CompileSource(fmt.Sprintf("fuzz%d.c", seed), src)
		if err != nil {
			t.Fatal(err)
		}
		pbB, err := pinplay.Log(progB, pinplay.LogConfig{Seed: seed + 1000, MeanQuantum: 3}, pinplay.RegionSpec{})
		if err != nil {
			t.Fatal(err)
		}
		mB := pinplay.NewReplayMachine(progB, pbB, nil)
		colB := tracer.NewCollector()
		mB.SetTracer(colB)
		for i, total := int64(0), pbB.TotalQuantumInstrs(); i < total && mB.StepOne(); i++ {
		}
		trB := colB.Trace()
		if err := trB.BuildGlobal(); err != nil {
			t.Fatal(err)
		}

		critA, err := slice.LastEventOf(trA, 0)
		if err != nil {
			t.Fatal(err)
		}
		critB, err := slice.LastEventOf(trB, 0)
		if err != nil {
			t.Fatal(err)
		}

		opts := slice.DefaultOptions()
		sliceBoth := func(q func(prog *isa.Program, tr *tracer.Trace, pb *pinball.Pinball) querier) *dualslice.Diff {
			slA, err := q(progA, trA, pbA).Slice(critA)
			if err != nil {
				t.Fatal(err)
			}
			slB, err := q(progB, trB, pbB).Slice(critB)
			if err != nil {
				t.Fatal(err)
			}
			return dualslice.Compare(progA, trA, slA, trB, slB)
		}

		seqDiff := sliceBoth(func(prog *isa.Program, tr *tracer.Trace, pb *pinball.Pinball) querier {
			s, err := slice.New(prog, tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
		parDiff := sliceBoth(func(prog *isa.Program, tr *tracer.Trace, pb *pinball.Pinball) querier {
			s, err := slice.NewParallel(prog, tr, opts, slice.ParallelOptions{Workers: 4, WindowSize: pinplay.WindowSize(pb)})
			if err != nil {
				t.Fatal(err)
			}
			return s
		})

		if !seqDiff.Equal(parDiff) {
			var sb, pbuf bytes.Buffer
			seqDiff.WriteText(&sb)
			parDiff.WriteText(&pbuf)
			t.Fatalf("seed %d: dual-slice diffs differ:\n--- sequential ---\n%s--- parallel ---\n%s",
				seed, sb.String(), pbuf.String())
		}
	}
}

// TestParallelWorkerCountInvariance: the same engine inputs with
// different worker counts must produce identical slices (worker count
// only changes build scheduling, never results).
func TestParallelWorkerCountInvariance(t *testing.T) {
	prog, pb, tr := fuzzProgram(t, 8) // threaded program
	crit, err := slice.LastEventOf(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	var base *slice.Slice
	for _, workers := range []int{1, 2, 4, 8, 16} {
		eng, err := slice.NewParallel(prog, tr, slice.DefaultOptions(), slice.ParallelOptions{
			Workers:    workers,
			WindowSize: pinplay.WindowSize(pb),
		})
		if err != nil {
			t.Fatal(err)
		}
		sl, err := eng.Slice(crit)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = sl
			continue
		}
		mustEqualSlices(t, fmt.Sprintf("workers=%d", workers), base, sl)
	}
}

// TestParallelSmallWindows shards at an adversarially tiny window size,
// so cross-window stitching is exercised on nearly every dependence.
func TestParallelSmallWindows(t *testing.T) {
	for _, seed := range []int64{3, 4, 7, 11} {
		prog, _, tr := fuzzProgram(t, seed)
		crit, err := slice.LastEventOf(tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		seqEng, err := slice.New(prog, tr, slice.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		seqSl, err := seqEng.Slice(crit)
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []int{1, 3, 17} {
			parEng, err := slice.NewParallel(prog, tr, slice.DefaultOptions(), slice.ParallelOptions{
				Workers:    4,
				WindowSize: window,
			})
			if err != nil {
				t.Fatal(err)
			}
			parSl, err := parEng.Slice(crit)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualSlices(t, fmt.Sprintf("seed %d window %d", seed, window), seqSl, parSl)
		}
	}
}

// TestEngineCache: same pinball identity and options hit the cache;
// changed options miss; cached engines answer identically.
func TestEngineCache(t *testing.T) {
	slice.ResetEngineCache()
	defer slice.ResetEngineCache()

	prog, pb, tr := fuzzProgram(t, 5)
	key := slice.KeyOf(prog, pb)
	if key == (slice.EngineKey{}) {
		t.Fatal("pinball has an empty cache key")
	}
	opts := slice.DefaultOptions()
	popts := slice.ParallelOptions{Workers: 2, WindowSize: pinplay.WindowSize(pb)}

	e1, err := slice.CachedParallel(key, prog, have(tr), opts, popts)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := slice.CachedParallel(key, prog, have(tr), opts, popts)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("second CachedParallel call built a new engine")
	}
	st := slice.GetEngineCacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("cache stats after hit: %+v", st)
	}

	other := opts
	other.ControlDeps = false
	e3, err := slice.CachedParallel(key, prog, have(tr), other, popts)
	if err != nil {
		t.Fatal(err)
	}
	if e3 == e1 {
		t.Error("different options returned the cached engine")
	}
	if st := slice.GetEngineCacheStats(); st.Misses != 2 || st.Entries != 2 {
		t.Errorf("cache stats after options change: %+v", st)
	}

	// The zero key bypasses the cache entirely.
	e4, err := slice.CachedParallel(slice.EngineKey{}, prog, have(tr), opts, popts)
	if err != nil {
		t.Fatal(err)
	}
	if e4 == e1 {
		t.Error("uncacheable build returned the cached engine")
	}
	if st := slice.GetEngineCacheStats(); st.Entries != 2 {
		t.Errorf("uncacheable build polluted the cache: %+v", st)
	}

	crit, err := slice.LastEventOf(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := e1.Slice(crit)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e2.Slice(crit)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSlices(t, "cached engine", s1, s2)
}
