package slice

import (
	"repro/internal/fnv1a"
	"repro/internal/isa"
	"repro/internal/lru"
	"repro/internal/tracer"
)

// Process-lifetime engine cache. A cyclic-debugging session replays the
// same pinball region many times, and every replay yields a bit-identical
// trace (that is the point of deterministic replay) — so the parallel
// engine built over one replay, i.e. the forward-pass metadata plus the
// stitched dependence columns, is reusable for every later slice query on
// the same recording. The cache keys on the pinball's content identity
// (pinball.ID) plus a fingerprint of the slicing options, because the
// options change the forward pass (refinement, jump tables, save/restore
// candidates) and hence the engine.
//
// The cache is a size-bounded LRU with single-flight loading: a session
// daemon serving many concurrent clients keeps only the hottest engines
// resident (an engine can be tens of megabytes), and concurrent sessions
// asking for the same engine share one build instead of racing N
// builders for the same shards.

// optionsFingerprint digests the option fields that shape the engine.
func optionsFingerprint(opts Options, popts ParallelOptions) uint64 {
	h := fnv1a.Offset
	h = fnv1a.Fold(h, int64(opts.MaxSave))
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	h = fnv1a.Fold(h, b(opts.PruneSaveRestore))
	h = fnv1a.Fold(h, b(opts.ControlDeps))
	h = fnv1a.Fold(h, b(opts.UseJumpTables))
	h = fnv1a.Fold(h, b(opts.DisableRefinement))
	h = fnv1a.Fold(h, int64(opts.LPBlock))
	h = fnv1a.Fold(h, int64(popts.WindowSize))
	return h
}

type engineKey struct {
	pinballID string
	opts      uint64
}

// DefaultEngineCacheCap bounds the engine cache: an interactive
// debugging session touches a handful of (recording, options) pairs; a
// session daemon raises or lowers the cap to its memory budget with
// SetEngineCacheCap.
const DefaultEngineCacheCap = 64

var sharedEngines = lru.New[engineKey, *ParallelSlicer](DefaultEngineCacheCap)

// CachedParallel returns the parallel engine for (pinballID, opts),
// building and caching it on first use. pinballID must identify the
// recording's content (pinball.Pinball.ID); callers replaying the same
// pinball get the already-built engine, paying the forward pass and the
// shard build once per process (concurrent first callers share a single
// build). An empty pinballID disables caching (the trace has no durable
// identity to key on).
func CachedParallel(pinballID string, prog *isa.Program, tr *tracer.Trace, opts Options, popts ParallelOptions) (*ParallelSlicer, error) {
	if pinballID == "" {
		return NewParallel(prog, tr, opts, popts)
	}
	key := engineKey{pinballID: pinballID, opts: optionsFingerprint(opts, popts)}
	return sharedEngines.GetOrLoad(key, func() (*ParallelSlicer, error) {
		return NewParallel(prog, tr, opts, popts)
	})
}

// EngineCacheStats reports the engine cache counters.
type EngineCacheStats struct {
	Entries   int
	Hits      int64
	Misses    int64
	Evictions int64
}

// GetEngineCacheStats returns the shared engine cache's counters.
func GetEngineCacheStats() EngineCacheStats {
	st := sharedEngines.Stats()
	return EngineCacheStats{
		Entries:   st.Entries,
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
	}
}

// SetEngineCacheCap bounds the number of resident engines (minimum 1),
// evicting least-recently-used engines immediately if over the new cap.
func SetEngineCacheCap(n int) { sharedEngines.SetCap(n) }

// EngineCacheCap returns the current engine-cache capacity.
func EngineCacheCap() int { return sharedEngines.Cap() }

// ResetEngineCache empties the shared engine cache and counters (tests).
func ResetEngineCache() { sharedEngines.Reset() }
