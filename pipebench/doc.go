// Command pipebench is the pipeline benchmark: it drives DrDebug's
// record → pinball → store → replay/trace → engine → query → daemon chain
// through the program's own calls and reports what one cyclic-debugging
// iteration costs its user, end to end and layer by layer.
//
// Run it from the repository root; the script builds this command and
// cmd/drserved from source into .bench_build/ and runs one workload:
//
//	bash pipebench/run.sh --workload cold-session --seed 1 --seconds 20 --trace 0
//	bash pipebench/run.sh --workload daemon-mix --seed 1 --seconds 20 --trace 1
//	bash pipebench/run.sh --runs 10 --workload all --seconds 20
//
// The seed is the only input: the program's inputs (scheduling seeds,
// criteria, requests) are drawn from it, and the same seed gives the same
// inputs. A run sets up three times (setup_s is their median), runs the
// workload's clients for --seconds, checks the outputs, and prints a
// summary, a "facts" line (workload, seed, nproc, GOMAXPROCS, Go version,
// operation and sample counts) and, last, one JSON object:
//
//	{"correct": true, "attempted": 140, "failed": 0, "metrics": {...}}
//
// An operation that fails and an output that does not match its reference
// both count in "failed"; either makes "correct" false and the exit code
// 1. GOMAXPROCS and the parallel slicer's workers are set to the number of
// CPUs.
//
// # Workloads
//
// Every workload is a closed loop: a client sends its next operation only
// after the previous one completed, as a debugging user waits for each
// answer. Mixes are dealt from seeded shuffled decks, so a window of any
// length holds the same proportions.
//
//   - cold-session, 1 client. Each operation is one paper-style debug
//     session on one of the 13 PARSEC-like and SPEC OMP-like kernels, in a
//     seeded order that covers the suite every 13 sessions: record a
//     50k-main-instruction region (~200k instructions) with a fresh
//     scheduling seed, save and reload the pinball, collect the trace,
//     build the parallel engine, slice the paper's last ten reads, then
//     relog the first slice into an execution slice and replay it. Trace
//     collection and engine build dominate, so a compact-trace or
//     replay-cursor change must show here. Fresh seeds make the engine
//     cache miss every time.
//   - warm-query, 2 clients sharing two engines. Set-up records, traces and
//     builds engines for blackscholes (deep slices) and mgrid
//     (save/restore-heavy) at 100k main instructions. Each operation is a
//     batch of four slice queries, one per engine at one of the paper's
//     last reads and one per engine at a read drawn uniformly from the
//     region; a single query can be so short that scheduler jitter is a
//     tenth of it. Nothing but queries runs (DefIndex lookups, demand
//     sets, scratch pooling), so a query-side change shows here and a
//     trace-side change must not.
//   - capture-reopen, 1 client. 25% captures (record a 250k-main region,
//     encode, store.Put) and 75% reopens (store.Get a stored digest,
//     decode, replay untraced with checkpoint validation). A third of the
//     captures repeat an earlier program and seed and take the store's
//     dedup path. Work is in the VM, pinplay, pinball and store with
//     writes beside reads; the slicer is bypassed, so slicer changes must
//     not move it.
//   - daemon-mix, 2 connections to a child drserved with a store. Set-up
//     stores three 50k-main pinballs (blackscholes hot at 60%, canneal and
//     mgrid at 20%) and warms each with one slice. Requests name pinballs
//     by digest: 60% slice (a variable or a source-line criterion, parallel
//     engine), 25% replay, 15% record. This is the serving path:
//     admission, digest resolve, the supervisor, the engine and CFG
//     caches and the per-request re-trace. The fleet is out of scope; a
//     coordinator and workers on two cores would measure the scheduler.
//
// warm-query's engines and daemon-mix's stored pinballs are fixed
// recordings: how deep a region's last reads slice, and how many
// instructions a region holds, depend on the recorded schedule, so a
// seed-drawn recording would move every latency with the seed. There the
// seed draws the queries and requests; elsewhere it also draws every
// recording's scheduling seed.
//
// # End-to-end metrics
//
// Every workload reports the same five, from an untraced run. An
// operation is a session, a batch of four queries, a capture or reopen,
// or a request.
//
//	setup_s      median of the run's three set-ups (compile, record, build, start the daemon...)
//	op_p50_ms    median operation latency
//	op_p75_ms    75th-percentile operation latency. p90 has ten samples beyond it in
//	             every workload, but in cold-session it falls where galgel's slow
//	             sessions meet the rest and moved by up to a fifth between runs
//	ops_per_s    operations per second of client busy time
//	rss_p50_mb   median resident set of the process under test over the window, sampled
//	             every 5 ms (the drserved child for daemon-mix); the peak hinges on where
//	             a GC cycle falls and does not repeat from run to run
//
// Outputs are checked after the window, so the check adds no time to any
// metric; bookkeeping between operations is outside every operation's
// clock, and ops_per_s counts busy time only.
//
// # Output check
//
//   - cold-session: for a seeded sample of sessions, recording again gives
//     the reloaded pinball's ID and the sampled parallel slice's digest
//     equals the sequential slice.Slicer's.
//   - warm-query: a seeded sample of each client's queries matches the
//     sequential slicer.
//   - capture-reopen: every store.Get re-hashes to its digest, every
//     decoded pinball has the recorded ID(), every replay is
//     divergence-clean with Checked equal to the pinball's checkpoint
//     count, and the store reports existing content exactly for repeats.
//   - daemon-mix: every slice digest equals the in-process sequential
//     reference, every replay checked every checkpoint over the whole
//     region, and every recording matches an in-process recording of the
//     same input and seed.
//
// # Per-layer metrics
//
// A run with --trace 1 records a span around every layer call and prints
// the per-layer metrics instead. Three kinds:
//
//   - <layer>.self_pct: the layer's self time as a share of all operation
//     time in the window. bench.self_pct is the generator's own share.
//   - window counters: cache hit ratios, store dedup ratios, checkpoints
//     per replay, daemon sheds and supervisor attempts, GC cycles and
//     pause share, spans recorded and the tracer's own overhead (spans
//     times the measured cost of one span, as a share of operation time).
//     A counter whose layer the workload bypasses reads 0.
//   - probe costs: after the window, one representative recording of the
//     workload passes once through every in-process layer with a GC before
//     and after each call, giving ns, allocations and retained heap per
//     instruction. tracer.overhead_ns_per_instr is traced minus untraced
//     replay of the same pinball.
//
// Which end-to-end metric each layer should move, and where:
//
//	layer            metrics                                    should move              mostly on / bypassed by
//	pinplay record   pinplay.record.self_pct, log_*_per_instr   op_p50_ms                capture-reopen, cold-session / warm-query
//	pinball          pinball.{save,encode,decode}.self_pct,     op_p50_ms                capture-reopen, cold-session / warm-query
//	                 encode/decode_ns_per_instr, bytes_per_instr
//	store            store.{put,get}.self_pct, put_ms, get_ms,  op_p50_ms                capture-reopen / cold-session, warm-query
//	                 shared_bytes_ratio, existed_ratio
//	pinplay replay   pinplay.replay.self_pct, replay_ns_per_    op_p50_ms                capture-reopen, daemon-mix / warm-query
//	                 instr, checkpoints_*
//	core + tracer    core.{load,trace}.self_pct, core.trace_*,  op_p50_ms, rss_p50_mb   cold-session, daemon-mix / capture-reopen, warm-query
//	                 tracer.overhead_ns_per_instr
//	slice build      slice.build.self_pct, build_*, shards,     op_p50_ms, rss_p50_mb   cold-session / warm-query, daemon-mix (cache hit)
//	                 index_defs
//	slice query      slice.{criteria,query}.self_pct, query_ms_ op_p50_ms, op_p75_ms,    warm-query / capture-reopen
//	                 p50/max, index_steps/members_per_query     ops_per_s
//	pinplay relog    pinplay.{relog,slice_replay}.self_pct,     op_p50_ms                cold-session / the others
//	                 relog_ms, slice_replay_ms, slice_kept_ratio
//	lru + cfg        slice.engine_cache_hit_ratio,              op_p50_ms                warm-query (no lookups), cold-session (0 by design)
//	                 cfg.graph_cache_hit_ratio
//	sessiond         sessiond.{slice,replay,record}.self_pct,   ops_per_s, op_p75_ms     daemon-mix / the in-process workloads
//	+ supervisor     sessiond.shed_count, supervisor.attempts_per_request
//	runtime          runtime.gc_cycles, runtime.gc_pause_pct    op_p75_ms, rss_p50_mb   all
//
// For daemon-mix the spans are client-side, one per request: the split
// inside the daemon needs spans inside the program, and the cache ratios
// are the benchmark process's own (0 lookups). The vm, races, dualslice,
// debugger, fleet, matrix, maple and faultinject packages are either not
// exercised or not separable from outside: the VM runs inside every
// record, replay and trace call and shows as those layers' time.
//
// # Span file
//
// A traced run writes .bench_build/spans/<workload>-seed<n>.json:
//
//	{"workload": "...", "facts": {...}, "spans": [
//	  {"id": 0, "parent": -1, "client": 0, "op": 1, "name": "session", "start_ns": 1200, "end_ns": 98000000},
//	  {"id": 1, "parent": 0, "client": 0, "op": 1, "name": "pinplay.record", "start_ns": 1500, "end_ns": 6100000},
//	  ...]}
//
// A root span (parent -1) is one operation; its children are the layer
// calls it made, in order, and never overlap. Times are nanoseconds since
// the window opened. A span's self time is its duration minus its
// children's; summing self time by name gives the *.self_pct metrics, and
// the layers' self times add up to the operations' wall time.
//
// # Repeatability
//
// --runs N runs each workload N times in fresh processes, seeds seed to
// seed+N-1, and prints each end-to-end metric's quartiles and spread,
// (q3-q1)/median, computed as Python's statistics.quantiles does. A spread
// above the metric's bound in BENCHMARK.json is flagged and makes the
// exit code 1, except for setup_s, whose spread is only shown.
package main
