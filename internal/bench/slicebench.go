package bench

import (
	"runtime"
	"slices"
	"time"

	"repro/internal/cfg"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/tracer"
	"repro/internal/workloads"
)

// SliceBenchIterations is the number of cyclic-debugging iterations the
// benchmark replays per workload: the paper's usage model is repeated
// replay-and-slice sessions over one recorded region, so engine cost is
// measured across a short session sequence, not a single query burst.
const SliceBenchIterations = 5

// SliceBenchRow is one workload's sequential-vs-parallel slicing
// measurement over a cyclic-debugging session sequence: engine build
// cost (the sequential slicer rebuilds its forward pass every session,
// the parallel engine is served from the process-lifetime cache after
// the first), per-query cost normalised to ns per traced instruction,
// shard/cache accounting, and the verified speedup.
type SliceBenchRow struct {
	Workload    string `json:"workload"`
	TraceLen    int    `json:"trace_len"`
	Criteria    int    `json:"criteria"`
	Iterations  int    `json:"iterations"`
	Workers     int    `json:"workers"`
	Shards      int    `json:"shards"`
	IndexDefs   int64  `json:"index_defs"`
	SliceInstrs int64  `json:"slice_instrs"` // total members across criteria, one iteration

	// Build and query seconds are totals across all iterations.
	SeqBuildSec float64 `json:"seq_build_sec"`
	ParBuildSec float64 `json:"par_build_sec"`
	SeqQuerySec float64 `json:"seq_query_sec"`
	ParQuerySec float64 `json:"par_query_sec"`

	// NsPerInstr normalises total engine cost (build + queries) over the
	// traced instructions, the paper's slicing-overhead unit.
	SeqNsPerInstr float64 `json:"seq_ns_per_instr"`
	ParNsPerInstr float64 `json:"par_ns_per_instr"`
	// Speedup is sequential total time over parallel total time.
	Speedup float64 `json:"speedup"`

	// CFGCacheHitRate is the shared CFG cache's hit rate over this run;
	// EngineCacheHit reports whether every iteration after the first was
	// served from the process-lifetime engine cache.
	CFGCacheHitRate float64 `json:"cfg_cache_hit_rate"`
	EngineCacheHit  bool    `json:"engine_cache_hit"`

	Identical bool `json:"identical"` // parallel slices matched sequential bit-for-bit
}

// SliceBenchReport is the JSON document written to BENCH_slice.json.
type SliceBenchReport struct {
	RegionLen int64           `json:"region_len"`
	Threads   int64           `json:"threads"`
	GoMaxProc int             `json:"gomaxprocs"`
	Rows      []SliceBenchRow `json:"rows"`
}

// sameSlice compares two slices field by field (LP counters excepted).
func sameSlice(a, b *slice.Slice) bool {
	if a.Criterion != b.Criterion || !slices.Equal(a.Members, b.Members) || !slices.Equal(a.Deps(), b.Deps()) {
		return false
	}
	return a.Stats.PrunedBypasses == b.Stats.PrunedBypasses &&
		a.Stats.VerifiedPairs == b.Stats.VerifiedPairs &&
		a.Stats.CFGRefinements == b.Stats.CFGRefinements
}

// SliceBench measures the parallel sharded engine against the sequential
// slicer on region traces of cfg.RegionLenLarge instructions (the
// paper-scaled "1M instruction" configuration), slicing cfg.Slices
// criteria per iteration across SliceBenchIterations cyclic-debugging
// iterations. Each iteration models one replay-debug session over the
// recorded region: the sequential slicer re-runs its forward pass and
// builds fresh (exactly as core.Session does when a session opens),
// while the parallel engine is fetched through CachedParallel — a cold
// build on the first iteration, process-lifetime cache hits after.
// Every parallel slice is checked bit-identical to its sequential
// counterpart, so the benchmark doubles as a large-trace differential
// test.
func SliceBench(cfg Config, workers int) (*SliceBenchReport, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg.printf("Parallel slicing engine: %d workers vs sequential, %dk-instruction regions, %d debug iterations\n",
		workers, cfg.RegionLenLarge/1000, SliceBenchIterations)
	cfg.printf("%-14s | %-10s | %-22s | %-22s | %-8s | %-6s\n",
		"Workload", "instrs", "seq build+query (s)", "par build+query (s)", "speedup", "equal")

	report := &SliceBenchReport{
		RegionLen: cfg.RegionLenLarge,
		Threads:   cfg.Threads,
		GoMaxProc: runtime.GOMAXPROCS(0),
	}
	// Two workloads keep the experiment quick while covering distinct
	// dependence shapes (branch-heavy and array-heavy kernels).
	names := []string{"blackscholes", "swaptions"}
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		pb, _, err := logRegion(w, &cfg, warmupSkip, cfg.RegionLenLarge)
		if err != nil {
			return nil, err
		}
		prog, err := w.Program()
		if err != nil {
			return nil, err
		}
		tr, _, err := collectTrace(prog, pb)
		if err != nil {
			return nil, err
		}
		// The paper's criterion set: the last reads spread across threads.
		crits := slice.LastReadsInRegion(tr, cfg.Slices)

		// Sequential sessions: every iteration rebuilds the slicer (the
		// forward pass has no home to survive a session) and slices every
		// criterion. The first iteration's slices are kept as the
		// reference for the differential check.
		var seqBuild, seqQuery time.Duration
		seqSlices := make([]*slice.Slice, len(crits))
		for it := 0; it < SliceBenchIterations; it++ {
			start := time.Now()
			seqEng, err := slice.New(prog, tr, slice.DefaultOptions())
			if err != nil {
				return nil, err
			}
			seqBuild += time.Since(start)
			start = time.Now()
			for i, c := range crits {
				sl, err := seqEng.Slice(c)
				if err != nil {
					return nil, err
				}
				if it == 0 {
					seqSlices[i] = sl
				}
			}
			seqQuery += time.Since(start)
		}

		// Parallel sessions: every iteration fetches the engine through
		// the process-lifetime cache — the first builds, the rest hit —
		// and runs the same queries. Every slice of every iteration is
		// checked against the sequential reference.
		cfgBefore := cfg2Stats()
		popts := slice.ParallelOptions{Workers: workers, WindowSize: pinplay.WindowSize(pb)}
		key := slice.KeyOf(prog, pb)
		have := func() (*tracer.Trace, error) { return tr, nil }
		var parBuild, parQuery time.Duration
		var parEng *slice.ParallelSlicer
		identical := true
		cacheHits := 0
		var members int64
		for it := 0; it < SliceBenchIterations; it++ {
			start := time.Now()
			eng, err := slice.CachedParallel(key, prog, have, slice.DefaultOptions(), popts)
			if err != nil {
				return nil, err
			}
			parBuild += time.Since(start)
			if it > 0 && eng == parEng {
				cacheHits++
			}
			parEng = eng
			start = time.Now()
			for i, c := range crits {
				sl, err := parEng.Slice(c)
				if err != nil {
					return nil, err
				}
				if it == 0 {
					members += int64(sl.Stats.Members)
				}
				if !sameSlice(seqSlices[i], sl) {
					identical = false
				}
			}
			parQuery += time.Since(start)
		}
		cfgAfter := cfg2Stats()

		seqTotal := seqBuild + seqQuery
		parTotal := parBuild + parQuery
		st := parEng.Stats()
		row := SliceBenchRow{
			Workload:    w.Name,
			TraceLen:    len(tr.Global),
			Criteria:    len(crits),
			Iterations:  SliceBenchIterations,
			Workers:     st.Workers,
			Shards:      st.Shards,
			IndexDefs:   st.IndexDefs,
			SliceInstrs: members,

			SeqBuildSec: seconds(seqBuild),
			ParBuildSec: seconds(parBuild),
			SeqQuerySec: seconds(seqQuery),
			ParQuerySec: seconds(parQuery),

			SeqNsPerInstr: float64(seqTotal.Nanoseconds()) / float64(max(1, len(tr.Global))),
			ParNsPerInstr: float64(parTotal.Nanoseconds()) / float64(max(1, len(tr.Global))),
			Speedup:       seconds(seqTotal) / seconds(parTotal),

			EngineCacheHit: cacheHits == SliceBenchIterations-1,
			Identical:      identical,
		}
		if lookups := (cfgAfter.Hits - cfgBefore.Hits) + (cfgAfter.Misses - cfgBefore.Misses); lookups > 0 {
			row.CFGCacheHitRate = float64(cfgAfter.Hits-cfgBefore.Hits) / float64(lookups)
		}
		report.Rows = append(report.Rows, row)
		cfg.printf("%-14s | %10d | %10.3f + %7.4f | %10.3f + %7.4f | %7.2fx | %v\n",
			row.Workload, row.TraceLen, row.SeqBuildSec, row.SeqQuerySec,
			row.ParBuildSec, row.ParQuerySec, row.Speedup, row.Identical)
	}
	return report, nil
}

// cfg2Stats snapshots the shared CFG cache counters.
func cfg2Stats() cfg.CacheStats { return cfg.GraphCacheStats() }
