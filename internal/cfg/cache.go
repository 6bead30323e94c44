package cfg

import (
	"repro/internal/fnv1a"
	"repro/internal/isa"
	"repro/internal/lru"
)

// Process-lifetime CFG cache. Building a function's CFG and its
// post-dominator tree is a pure function of (code, function range,
// indirect-target sets), so graphs can be shared across analyzers,
// sessions and repeated slice queries of a cyclic-debugging session.
// The cache key folds a fingerprint of the program code, the function
// entry and a digest of the observed indirect targets inside the
// function; a refinement that adds a target simply keys a new entry, so
// stale graphs are never returned (no invalidation protocol needed —
// superseded entries just stop being requested).

// Fingerprint digests a program's name and code so cache keys
// distinguish programs beyond their name. It is recomputed on every call
// (microseconds for the largest workloads) rather than memoised per
// *isa.Program: a daemon compiles a fresh Program for every request, and
// a memo keyed by pointer would pin each of them for the process
// lifetime.
func Fingerprint(prog *isa.Program) uint64 {
	h := fnv1a.Offset
	for _, b := range []byte(prog.Name) {
		h = fnv1a.Fold(h, int64(b))
	}
	for _, in := range prog.Code {
		h = fnv1a.Fold(h, int64(in.Op))
		h = fnv1a.Fold(h, int64(in.Rd))
		h = fnv1a.Fold(h, int64(in.Rs1))
		h = fnv1a.Fold(h, int64(in.Rs2))
		h = fnv1a.Fold(h, in.Imm)
	}
	return h
}

// graphKey identifies one cached FuncGraph.
type graphKey struct {
	prog    uint64 // program fingerprint
	entry   int64  // function entry pc
	targets uint64 // digest of the indirect-target sets inside the function
}

// targetsDigest folds the (sorted) indirect-target map an analyzer
// passes to Build.
func targetsDigest(targets map[int64][]int64) uint64 {
	h := fnv1a.Offset
	// Fold order must be deterministic: iterate jump pcs in sorted order.
	// The per-pc target lists are already sorted by the analyzer.
	pcs := make([]int64, 0, len(targets))
	for pc := range targets {
		pcs = append(pcs, pc)
	}
	for i := 1; i < len(pcs); i++ { // insertion sort; sets are tiny
		for j := i; j > 0 && pcs[j] < pcs[j-1]; j-- {
			pcs[j], pcs[j-1] = pcs[j-1], pcs[j]
		}
	}
	for _, pc := range pcs {
		h = fnv1a.Fold(h, pc)
		for _, t := range targets[pc] {
			h = fnv1a.Fold(h, t)
		}
	}
	return h
}

// DefaultGraphCacheCap bounds the graph cache. Unlike the pre-LRU map
// (dropped wholesale when full), the LRU evicts per-graph, so a daemon
// serving many programs keeps its hottest CFGs resident.
const DefaultGraphCacheCap = 8192

var sharedGraphs = lru.New[graphKey, *FuncGraph](DefaultGraphCacheCap)

// CacheStats reports the process-lifetime CFG cache counters.
type CacheStats struct {
	Entries   int
	Hits      int64
	Misses    int64
	Evictions int64
}

// CachedGraph returns the graph for key, building it through build on
// first use. Concurrent callers of the same key share one build
// (single-flight) — analyzers in different sessions race to the same
// function graphs when concurrent slice sessions study one program.
func CachedGraph(key graphKey, build func() (*FuncGraph, error)) (*FuncGraph, error) {
	return sharedGraphs.GetOrLoad(key, build)
}

// SetGraphCacheCap bounds the number of resident graphs (minimum 1),
// evicting least-recently-used graphs immediately if over the new cap.
func SetGraphCacheCap(n int) { sharedGraphs.SetCap(n) }

// GraphCacheCap returns the current graph-cache capacity.
func GraphCacheCap() int { return sharedGraphs.Cap() }

// GraphCacheStats returns the shared cache's current counters.
func GraphCacheStats() CacheStats {
	st := sharedGraphs.Stats()
	return CacheStats{
		Entries:   st.Entries,
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
	}
}

// ResetGraphCache empties the shared cache and counters (tests).
func ResetGraphCache() { sharedGraphs.Reset() }
