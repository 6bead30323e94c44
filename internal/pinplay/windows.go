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

// WindowSize returns the pinball's shard-window size: the recorded
// divergence-checkpoint cadence, or the default cadence for pinballs
// recorded without checkpoints. Shard boundaries so line up with the
// granularity at which replays are validated: a divergence is pinned to
// one checkpoint window, and a cached engine's shards for the other
// windows stay trustworthy.
func WindowSize(pb *pinball.Pinball) int {
	every := int64(pinball.DefaultCheckpointEvery)
	if pb != nil && pb.CheckpointEvery > 0 {
		every = pb.CheckpointEvery
	}
	return int(every)
}
