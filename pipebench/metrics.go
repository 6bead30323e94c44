package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units; the smoke test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, the same for every workload.
// An operation is the workload's unit of user-visible work: a debug
// session (cold-session), a batch of four slice queries (warm-query), a
// capture or a reopen (capture-reopen), a daemon request (daemon-mix).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p75_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"rss_p50_mb", "MB"},
}

// layerNames are the span names: one per layer call the workloads make,
// plus benchLayer for the generator's own time inside an operation.
var layerNames = []string{
	"pinplay.record",       // pinplay.Log
	"pinball.save",         // Pinball.Save
	"core.load",            // core.LoadSession
	"pinball.encode",       // Pinball.EncodeBytes
	"pinball.decode",       // pinball.Decode
	"store.put",            // store.Store.Put
	"store.get",            // store.Store.Get
	"pinplay.replay",       // pinplay.ReplayWith, untraced
	"core.trace",           // core.Session.Trace
	"slice.build",          // core.Session.ParallelSlicer
	"slice.criteria",       // slice.LastReadsInRegion
	"slice.query",          // core.Session.SliceFor
	"pinplay.relog",        // core.Session.ExecutionSlice
	"pinplay.slice_replay", // pinplay.ReplaySlice
	"sessiond.slice",       // sessiond.Client.Do, op slice
	"sessiond.replay",      // sessiond.Client.Do, op replay
	"sessiond.record",      // sessiond.Client.Do, op record
	benchLayer,
}

// perLayer are the traced run's metrics. The <layer>.self_pct shares and
// the window counters describe the timed window; the rest come from the
// layer probe that runs after it (see probe.go).
var perLayer = append(selfPctDefs(), []metricDef{
	// Window counters.
	{"bench.spans", "count"},
	{"bench.tracing_overhead_pct", "%"},
	{"slice.engine_cache_hit_ratio", "ratio"},
	{"cfg.graph_cache_hit_ratio", "ratio"},
	{"store.shared_bytes_ratio", "ratio"},
	{"store.existed_ratio", "ratio"},
	{"pinplay.checkpoints_per_replay", "count"},
	{"sessiond.shed_count", "count"},
	{"supervisor.attempts_per_request", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_pct", "%"},
	// Layer probe.
	{"pinplay.log_ns_per_instr", "ns/instr"},
	{"pinplay.log_allocs_per_instr", "allocs/instr"},
	{"pinball.encode_ns_per_instr", "ns/instr"},
	{"pinball.bytes_per_instr", "B/instr"},
	{"pinball.decode_ns_per_instr", "ns/instr"},
	{"core.load_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"pinplay.replay_ns_per_instr", "ns/instr"},
	{"pinplay.checkpoints_checked", "count"},
	{"core.trace_ns_per_instr", "ns/instr"},
	{"core.trace_heap_bytes_per_instr", "B/instr"},
	{"core.trace_allocs_per_instr", "allocs/instr"},
	{"tracer.overhead_ns_per_instr", "ns/instr"},
	{"slice.build_ns_per_instr", "ns/instr"},
	{"slice.build_heap_bytes_per_instr", "B/instr"},
	{"slice.shards", "count"},
	{"slice.index_defs", "count"},
	{"slice.query_ms_p50", "ms"},
	{"slice.query_ms_max", "ms"},
	{"slice.index_steps_per_query", "count"},
	{"slice.members_per_query", "count"},
	{"pinplay.relog_ms", "ms"},
	{"pinplay.slice_replay_ms", "ms"},
	{"pinplay.slice_kept_ratio", "ratio"},
}...)

// workloadCounters are the window counters only some workloads produce
// (workload.layerCounters); a workload that bypasses the layer reports 0.
var workloadCounters = []string{
	"store.shared_bytes_ratio",
	"store.existed_ratio",
	"pinplay.checkpoints_per_replay",
	"sessiond.shed_count",
	"supervisor.attempts_per_request",
}

func selfPctDefs() []metricDef {
	defs := make([]metricDef, len(layerNames))
	for i, l := range layerNames {
		defs[i] = metricDef{l + ".self_pct", "%"}
	}
	return defs
}
