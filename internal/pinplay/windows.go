package pinplay

import (
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/tracer"
	"repro/internal/vm"
)

// CollectTrace replays pb with the tracing pintool attached, under
// limits, and returns the region's trace with its global order built.
// It is the one place a trace is collected from a recording: sessions
// load their engine through it, and the sequential reference slicer's
// callers use it to get a trace of their own replay.
func CollectTrace(prog *isa.Program, pb *pinball.Pinball, limits vm.Limits) (*tracer.Trace, error) {
	col := tracer.NewRegionCollector(pb.Quanta)
	if _, _, err := ReplayWith(prog, pb, ReplayOptions{Tracer: col, Limits: limits}); err != nil {
		return nil, err
	}
	tr := col.Trace()
	if err := tr.BuildGlobal(); err != nil {
		return nil, err
	}
	return tr, nil
}

// TraceWindows shards a region trace of traceLen entries into the
// windows the parallel slicing engine processes concurrently. The
// window size is the pinball's divergence-checkpoint cadence
// (CheckpointEvery, per PR-1), so shard boundaries line up with the
// granularity at which replays are already validated: a divergence is
// pinned to one checkpoint window, and the dependence shards a cached
// engine holds for the other windows remain trustworthy. Pinballs
// recorded without checkpoints fall back to the default cadence.
func TraceWindows(pb *pinball.Pinball, traceLen int) []tracer.Window {
	return tracer.SplitWindows(traceLen, WindowSize(pb))
}

// WindowSize returns the pinball's shard-window size: the recorded
// divergence-checkpoint cadence, or the default cadence for pinballs
// recorded without checkpoints.
func WindowSize(pb *pinball.Pinball) int {
	every := int64(pinball.DefaultCheckpointEvery)
	if pb != nil && pb.CheckpointEvery > 0 {
		every = pb.CheckpointEvery
	}
	return int(every)
}

// CheckpointWindowsOf returns, per thread, the per-thread instruction
// ranges [from, to) covered by consecutive recorded checkpoints — the
// replay-validation windows of the pinball. Tools use it to reason
// about which part of a trace a divergence report invalidates.
func CheckpointWindowsOf(pb *pinball.Pinball) map[int][][2]int64 {
	out := make(map[int][][2]int64)
	last := make(map[int]int64)
	for _, cp := range pb.Checkpoints {
		from := last[cp.Tid]
		out[cp.Tid] = append(out[cp.Tid], [2]int64{from, cp.Seq})
		last[cp.Tid] = cp.Seq
	}
	return out
}
