package slice

import (
	"repro/internal/cfg"
	"repro/internal/fnv1a"
	"repro/internal/isa"
	"repro/internal/lru"
	"repro/internal/pinball"
	"repro/internal/tracer"
)

// Process-lifetime engine cache. A cyclic-debugging session replays the
// same pinball region many times, and every replay yields a bit-identical
// trace (that is the point of deterministic replay) — so the parallel
// engine built over one replay, i.e. the forward-pass metadata plus the
// stitched dependence columns, is reusable for every later slice query on
// the same recording, and so is the trace it was built over: a session
// holding a recording whose engine is resident adopts the engine's trace
// instead of replaying (core.Session.Trace). The cache keys on an
// EngineKey, which pins down everything the replayed trace depends on,
// plus a fingerprint of the slicing options, because the options change
// the forward pass (refinement, jump tables, save/restore candidates)
// and hence the engine.
//
// The cache is a size-bounded LRU with single-flight loading: a session
// daemon serving many concurrent clients keeps only the hottest engines
// resident (an engine can be tens of megabytes), and concurrent sessions
// asking for the same engine share one build instead of racing N
// builders for the same shards.

// EngineKey identifies a recording, replayed by one program, for the
// engine cache. The pinball's digest alone is not enough: a pinball
// names its program but does not hold its code, so two programs
// compiled under one name would share an entry, and a session adopting
// the cached trace would then answer for the wrong execution without
// replaying. The zero EngineKey disables caching.
type EngineKey struct {
	Pinball uint64 // pinball.Digest of the session's own (possibly gapped) pinball: every field
	Code    uint64 // cfg.Fingerprint of the program
}

// KeyOf returns the engine-cache key for replaying pb with prog. Pass
// the pinball as opened, not a bridged copy, so eviction sets and
// retained window hashes count.
func KeyOf(prog *isa.Program, pb *pinball.Pinball) EngineKey {
	return EngineKey{Pinball: pb.Digest(), Code: cfg.Fingerprint(prog)}
}

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
	rec  EngineKey
	opts uint64
}

// DefaultEngineCacheCap bounds the engine cache: an interactive
// debugging session touches a handful of (recording, options) pairs; a
// session daemon raises or lowers the cap to its memory budget with
// SetEngineCacheCap.
const DefaultEngineCacheCap = 64

var sharedEngines = lru.New[engineKey, *ParallelSlicer](DefaultEngineCacheCap)

// CachedParallel returns the parallel engine for (key, opts), building
// and caching it on first use over the trace load returns. load runs
// only on a miss; it must return the trace of the recording key names,
// gap overlay included, because every later caller with the same key
// takes the engine's Trace as its own (core.Session.Trace) instead of
// replaying. Concurrent first callers share one load and build. A
// caller never takes another caller's failure as its own: load runs
// under its caller's replay limits, so when a shared load fails, a
// waiter tries again with its own load. The zero key disables caching.
func CachedParallel(key EngineKey, prog *isa.Program, load func() (*tracer.Trace, error), opts Options, popts ParallelOptions) (*ParallelSlicer, error) {
	var loaded bool
	build := func() (*ParallelSlicer, error) {
		loaded = true
		tr, err := load()
		if err != nil {
			return nil, err
		}
		return NewParallel(prog, tr, opts, popts)
	}
	if key == (EngineKey{}) {
		return build()
	}
	k := engineKey{rec: key, opts: optionsFingerprint(opts, popts)}
	for {
		eng, err := sharedEngines.GetOrLoad(k, build)
		if err == nil || loaded {
			return eng, err
		}
	}
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
