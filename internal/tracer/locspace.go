package tracer

import "repro/internal/vm"

// Window is one contiguous global-trace range [Lo, Hi). The parallel
// slicing engine shards the trace into windows (bounded by the pinball's
// checkpoint cadence, see pinplay.WindowSize) and computes each
// window's dependence shard on its own worker.
type Window struct {
	Lo, Hi int
}

// Len returns the number of trace entries in the window.
func (w Window) Len() int { return w.Hi - w.Lo }

// SplitWindows cuts a trace of n entries into windows of the given size
// (the last window may be shorter). size <= 0 falls back to
// DefaultLPBlock. n == 0 yields no windows.
func SplitWindows(n, size int) []Window {
	if size <= 0 {
		size = DefaultLPBlock
	}
	out := make([]Window, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Window{Lo: lo, Hi: hi})
	}
	return out
}

// Extents accumulates the location-space extents of a set of trace
// entries: the highest accessed address below vm.StackBase, the highest
// stack offset and the highest thread id, each -1 when none was seen.
// Extents of disjoint entry sets merge by maximum, so per-window or
// per-thread scans combine into the whole trace's LocSpace in any order.
type Extents struct {
	MaxLow   int64
	MaxStack int64
	MaxTid   int32
}

// NewExtents returns the extents of no entries.
func NewExtents() Extents { return Extents{MaxLow: -1, MaxStack: -1, MaxTid: -1} }

// Observe widens the extents to cover e.
func (x *Extents) Observe(e *Entry) {
	if int32(e.Tid) > x.MaxTid {
		x.MaxTid = int32(e.Tid)
	}
	if a := e.EffAddr; a >= 0 {
		if a >= vm.StackBase {
			x.MaxStack = max(x.MaxStack, a-vm.StackBase)
		} else {
			x.MaxLow = max(x.MaxLow, a)
		}
	}
}

// Merge widens the extents to cover o's entries too.
func (x *Extents) Merge(o Extents) {
	x.MaxLow = max(x.MaxLow, o.MaxLow)
	x.MaxStack = max(x.MaxStack, o.MaxStack)
	x.MaxTid = max(x.MaxTid, o.MaxTid)
}

// Space returns the dense location space covering the extents. Regions
// wider than denseCap are left out (their locations report false from
// Index and must use a map fallback).
func (x Extents) Space() LocSpace {
	ls := LocSpace{StackLo: vm.StackBase}
	if x.MaxLow >= 0 && x.MaxLow < denseCap {
		ls.MemSpan = x.MaxLow + 1
	}
	if x.MaxStack >= 0 && x.MaxStack < denseCap {
		ls.StackSpan = x.MaxStack + 1
	}
	ls.RegSpan = (int64(x.MaxTid) + 1) << 8
	return ls
}

// LocSpace describes the compact regions of the dependence-location
// space observed in a trace — globals+heap (below vm.StackBase), the
// stack area, and per-thread registers — so tables over locations can be
// direct-indexed instead of hashed. Index maps a location into
// [0, Total()); locations outside the observed regions (only possible
// for untouched addresses) report false and must use a map fallback.
type LocSpace struct {
	MemSpan   int64 // low addresses [0, MemSpan)
	StackLo   int64 // base of the stack region (vm.StackBase)
	StackSpan int64 // stack addresses [StackLo, StackLo+StackSpan)
	RegSpan   int64 // register ids (tid<<8|reg) in [0, RegSpan)
}

// Total returns the dense table size the space requires.
func (ls LocSpace) Total() int64 { return ls.MemSpan + ls.StackSpan + ls.RegSpan }

// Index returns l's dense table index, or false when l lies outside the
// space's regions.
func (ls LocSpace) Index(l Loc) (int, bool) {
	if l < 0 {
		return 0, false
	}
	if l&regLocBase != 0 {
		if r := int64(l &^ regLocBase); r < ls.RegSpan {
			return int(ls.MemSpan + ls.StackSpan + r), true
		}
		return 0, false
	}
	a := int64(l)
	if a >= ls.StackLo {
		if s := a - ls.StackLo; s < ls.StackSpan {
			return int(ls.MemSpan + s), true
		}
		return 0, false
	}
	if a < ls.MemSpan {
		return int(a), true
	}
	return 0, false
}

// LocAt is the inverse of Index: it reconstructs the location at dense
// table index i. It exists for callers that must externalise a
// direct-indexed table keyed by this space — the windowed slice query
// serialises its live demand set as (location, requester) pairs when a
// shard boundary hands the computation to another process.
func (ls LocSpace) LocAt(i int) Loc {
	n := int64(i)
	if n < ls.MemSpan {
		return Loc(n)
	}
	n -= ls.MemSpan
	if n < ls.StackSpan {
		return Loc(ls.StackLo + n)
	}
	return regLocBase | Loc(n-ls.StackSpan)
}

// denseCap bounds each dense region: location ranges wider than this
// stay on the map fallback rather than allocating huge tables.
const denseCap = 1 << 21
