// Package fnv1a is the word-folded FNV-1a hash behind the system's
// fingerprints: divergence-checkpoint and ring-window hashes, pinball
// content ids, slice digests and cache keys. Each 64-bit word is folded
// whole (not byte by byte), so the values differ from hash/fnv's; they
// are persisted in pinballs and compared across processes, so neither
// constant may change.
package fnv1a

// Offset is the initial (empty) hash value.
const Offset uint64 = 14695981039346656037

const prime uint64 = 1099511628211

// Fold extends h with one word.
func Fold(h uint64, v int64) uint64 { return (h ^ uint64(v)) * prime }
