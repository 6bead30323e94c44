// Package sessiond is the fault-tolerant debugging session daemon
// behind cmd/drserved: a resident service that runs record / replay /
// slice / dual-slice sessions against pinballs on behalf of many
// concurrent clients. The paper's cyclic-debugging loop — record once,
// replay and slice many times — maps onto a long-lived server holding
// the hot slicing engines, but a resident process serving a misbehaving
// client population needs robustness controls the one-shot CLIs never
// did. sessiond layers them over internal/supervisor:
//
//   - admission control: a bounded session pool with a FIFO wait queue
//     and per-client concurrency caps; overflow is rejected with a typed
//     "overload" error (HTTP-503 style) instead of queueing unboundedly;
//   - per-session resource quotas: instruction budget, wall-clock
//     deadline and page cap, server-clamped between defaults and maxima
//     and enforced inside the VM via vm.Limits, with watchdog-driven
//     preemption of hung sessions;
//   - a per-pinball circuit breaker: after K consecutive session
//     failures on the same pinball content, further requests fail fast
//     with the cached failure until a cool-down expires, so one corrupt
//     pinball cannot monopolize the worker pool;
//   - retry with exponential backoff and jitter for transient failures
//     (the supervisor's classification decides transient vs permanent);
//   - graceful drain on shutdown: stop admitting, finish in-flight
//     sessions bounded by a drain deadline, then cancel stragglers;
//   - bounded shared caches: the process-lifetime slice-engine and CFG
//     caches sit behind size-capped LRUs with single-flight loading, so
//     concurrent sessions share hot engines without unbounded growth.
//
// The wire protocol is line-delimited JSON over TCP: one Request per
// line in, one Response per line out, answered in order per connection.
package sessiond

import (
	"encoding/json"

	"repro/internal/slice"
	"repro/internal/supervisor"
)

// Ops a request can ask for.
const (
	OpRecord    = "record"
	OpReplay    = "replay"
	OpSlice     = "slice"
	OpDualSlice = "dualslice"
	OpHealth    = "health" // liveness/readiness probe; never queued
	OpStats     = "stats"  // server counters; never queued

	// Fleet ops (ProtoV2). Worker-to-coordinator: OpRegister announces a
	// worker and its capacity, OpHeartbeat refreshes its liveness,
	// OpSteal asks for a pending shard task, OpFetch submits a finished
	// task's result and fetches the next one in the same round trip.
	// Coordinator-to-worker: OpSliceShard advances one window range of a
	// distributed slice query.
	OpRegister   = "register"
	OpHeartbeat  = "heartbeat"
	OpSteal      = "steal"
	OpFetch      = "fetch"
	OpSliceShard = "slice_shard"

	// Store ops: fetch-by-digest against the content-addressed pinball
	// store (internal/store). OpStorePut uploads pinball bytes (the
	// coordinator replicates the put to the rendezvous owner and its
	// successor), OpStoreFetch downloads validated bytes by digest,
	// OpStoreStat returns the entry's metadata, OpStoreLocate asks the
	// coordinator which workers are ranked to hold a digest (workers use
	// it to find re-fetch peers when their own copy is damaged).
	OpStorePut    = "store_put"
	OpStoreFetch  = "store_fetch"
	OpStoreStat   = "store_stat"
	OpStoreLocate = "store_locate"
)

// Wire protocol versions. A request's Proto field is 0 or ProtoV1 for
// the PR-5 session protocol; ProtoV2 adds the fleet ops. Servers answer
// v1 requests unchanged — the extension is strictly additive — and
// reject fleet ops from clients that did not declare ProtoV2, so a v1
// client can never half-join a fleet.
const (
	ProtoV1 = 1
	ProtoV2 = 2

	ProtoCurrent = ProtoV2
)

// Typed error codes (Response.Code when OK is false) — the failure
// matrix clients program against.
const (
	CodeOverload    = "overload"     // session pool and wait queue full, or per-client cap hit
	CodeQuota       = "quota"        // requested resources exceed the server's maxima
	CodeCircuitOpen = "circuit_open" // pinball's breaker is open; Error carries the cached failure
	CodeDraining    = "draining"     // server is shutting down and admits no new sessions
	CodeBadRequest  = "bad_request"  // malformed or incomplete request
	CodeCorrupt     = "corrupt"      // pinball failed to load (and salvage, if requested)
	CodeDivergence  = "divergence"   // replay left the recorded execution
	CodeLimit       = "limit"        // an execution quota was exhausted mid-session
	CodeTimeout     = "timeout"      // the watchdog preempted a hung session
	CodePanic       = "panic"        // a session phase panicked (isolated)
	CodeInternal    = "internal"     // any other failure
	CodeNoWorkers   = "no_workers"   // fleet coordinator has no live worker to route to
	// CodeStoreUnavailable types store failures that are about
	// availability, not content: no store is configured on this daemon,
	// the digest exists nowhere in the fleet, or every peer that might
	// hold it is unreachable. Content damage stays CodeCorrupt — a
	// corrupt-and-unhealable object is the pinball's fault, and opens
	// its circuit like any other corruption.
	CodeStoreUnavailable = "store_unavailable"
)

// Annotation codes (Response.Code when OK is true and the result is
// degraded in some way).
const (
	CodeSalvaged = "salvaged" // the pinball was damaged; results come from its salvaged prefix
	CodeDegraded = "degraded" // replay recovered only to its last good checkpoint
	// CodeRedispatched marks an answer that is correct but arrived only
	// after the fleet re-dispatched work away from a dead or straggling
	// worker — scripts can detect degraded service (ExitFleetDegraded).
	CodeRedispatched = "redispatched"
	// CodeEstimated marks a result carrying estimated flight-recorder
	// content: the session bridged evicted ring windows and at least one
	// failed hash verification, so parts of the answer are best-effort
	// estimates (ExitEstimated).
	CodeEstimated = "estimated"
	// CodeHealed marks an answer that is correct but required the store's
	// self-healing path first: the local copy of the requested digest was
	// damaged or absent and was repaired by a peer re-fetch before the
	// session ran. Like CodeRedispatched it maps to ExitFleetDegraded —
	// the answer is right, the infrastructure limped.
	CodeHealed = "healed"
)

// Request is one client request, one JSON object per line.
type Request struct {
	// ID is echoed on the response so clients can match pipelined
	// requests to answers.
	ID string `json:"id,omitempty"`
	// Op selects the session kind (OpRecord ... OpStats).
	Op string `json:"op"`
	// Client identifies the requester for per-client concurrency caps.
	// Empty means the connection's remote address.
	Client string `json:"client,omitempty"`

	// Program source: exactly one of File (server-local .c/.s path) or
	// Workload (built-in name) for ops that replay or record.
	File     string `json:"file,omitempty"`
	Workload string `json:"workload,omitempty"`

	// Pinball is the server-local pinball path (replay/slice; the
	// failing run for dualslice). PassingPinball is dualslice's passing
	// run.
	Pinball        string `json:"pinball,omitempty"`
	PassingPinball string `json:"passing_pinball,omitempty"`
	// Digest names the pinball by content digest instead of path: the
	// daemon resolves it against its content-addressed store, healing a
	// damaged or absent local copy from fleet peers before the session
	// runs. Exactly one of Pinball or Digest for ops that load a pinball.
	// For store ops, Digest is the object being fetched/statted/located.
	Digest string `json:"digest,omitempty"`
	// Blob carries pinball file bytes on OpStorePut (base64 on the wire)
	// and store metadata recorded with the entry.
	Blob         []byte `json:"blob,omitempty"`
	StoreProgram string `json:"store_program,omitempty"`
	StoreKind    string `json:"store_kind,omitempty"`
	// StoreNoHeal marks a store_fetch made by a peer healing its own
	// copy: the serving daemon answers from local validated bytes only,
	// never healing recursively — two daemons with damaged copies must
	// fail typed, not chase each other.
	StoreNoHeal bool `json:"store_no_heal,omitempty"`
	// Salvage permits loading a damaged pinball via its salvaged prefix;
	// the response is then annotated CodeSalvaged.
	Salvage bool `json:"salvage,omitempty"`

	// Slice criterion: Var (last read of a global), or Tid/Line/Nth (a
	// dynamic source-line instance), else the recorded failure point.
	// Var also names dualslice's compared variable.
	Var  string `json:"var,omitempty"`
	Tid  int    `json:"tid,omitempty"`
	Line int    `json:"line,omitempty"`
	Nth  int    `json:"nth,omitempty"`
	// Workers is the worker count that builds the slicing engine on a
	// cache miss (0 = all CPUs).
	Workers int `json:"workers,omitempty"`

	// Record parameters: where to save the pinball, program input and
	// scheduling seed.
	Out         string  `json:"out,omitempty"`
	Input       []int64 `json:"input,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	MeanQuantum int64   `json:"mean_quantum,omitempty"`

	// Requested quotas; 0 means the server default, values above the
	// server maxima are rejected with CodeQuota.
	Budget     int64 `json:"budget,omitempty"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	MaxPages   int   `json:"max_pages,omitempty"`

	// Proto declares the sender's protocol version; 0 means ProtoV1.
	// Fleet ops require ProtoV2.
	Proto int `json:"proto,omitempty"`

	// Fleet fields (ProtoV2). Worker names the sending worker on
	// register/heartbeat/steal/fetch; Addr/Capacity describe it at
	// registration; Load is the heartbeat's current session count.
	Worker   string `json:"fleet_worker,omitempty"`
	Addr     string `json:"fleet_addr,omitempty"`
	Capacity int    `json:"fleet_capacity,omitempty"`
	Load     int    `json:"fleet_load,omitempty"`
	// TaskID/TaskState/TaskErr return a completed task on OpFetch:
	// TaskState is the full Response JSON the worker produced for the
	// task's request, TaskErr a worker-side transport failure when no
	// response could be produced at all.
	TaskID    string          `json:"task_id,omitempty"`
	TaskState json.RawMessage `json:"task_state,omitempty"`
	TaskErr   string          `json:"task_err,omitempty"`
	// State is OpSliceShard's query continuation (empty = fresh query at
	// the request's criterion); ShardWindows is how many checkpoint
	// windows the shard should advance (0 = one).
	State        json.RawMessage `json:"state,omitempty"`
	ShardWindows int             `json:"shard_windows,omitempty"`
}

// Response is one server answer, one JSON object per line, in request
// order per connection.
type Response struct {
	ID string `json:"id,omitempty"`
	OK bool   `json:"ok"`
	// Code is the typed error code when OK is false, or a degradation
	// annotation (CodeSalvaged/CodeDegraded) when OK is true.
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
	// Result is the op-specific payload (ReplayResult, SliceResult,
	// DualSliceResult, RecordResult, HealthResult, StatsResult).
	Result json.RawMessage `json:"result,omitempty"`
	// Report is the supervisor's structured attempt log, when a session
	// ran at all.
	Report *supervisor.Report `json:"report,omitempty"`
}

// ReplayResult is OpReplay's payload. The Bridged/Estimated fields are
// the flight-recorder gap summary when the pinball had evicted windows.
type ReplayResult struct {
	Executed      int64 `json:"executed"`
	Checked       int   `json:"checked"`
	Degraded      bool  `json:"degraded,omitempty"`
	RecoveredStep int64 `json:"recovered_step,omitempty"`

	BridgedWindows   int   `json:"bridged_windows,omitempty"`
	BridgedInstrs    int64 `json:"bridged_instrs,omitempty"`
	EstimatedWindows int   `json:"estimated_windows,omitempty"`
}

// SliceResult is OpSlice's payload. Digest is the order-sensitive
// FNV-1a fold of the full result (dependence edges in append order,
// then members) — the fleet's bit-identity check against single-node
// answers.
type SliceResult struct {
	Members        int    `json:"members"`
	TraceLen       int    `json:"trace_len"`
	Deps           int    `json:"deps"`
	PrunedBypasses int    `json:"pruned_bypasses,omitempty"`
	Digest         string `json:"digest,omitempty"`
	// Prov is the member-level provenance breakdown for slices over
	// flight-recorder pinballs (nil for ordinary full traces), the one
	// slice.SummarizeProvenance derives from the finished query state:
	// member counts and the minimum member confidence. Edge counts stay
	// zero — a fleet's shard hops carry edges in digest form only, and a
	// single node answers from the same query state, so both agree.
	Prov *slice.ProvSummary `json:"provenance,omitempty"`
}

// DualSliceResult is OpDualSlice's payload.
type DualSliceResult struct {
	OnlyFailing int `json:"only_failing"`
	OnlyPassing int `json:"only_passing"`
	Common      int `json:"common"`
}

// RecordResult is OpRecord's payload.
type RecordResult struct {
	Pinball      string `json:"pinball"`
	RegionInstrs int64  `json:"region_instrs"`
	Checkpoints  int    `json:"checkpoints"`
}

// HealthResult is OpHealth's payload: Live is process liveness (always
// true in an answer), Ready is readiness (false once draining).
type HealthResult struct {
	Live     bool   `json:"live"`
	Ready    bool   `json:"ready"`
	Status   string `json:"status"` // "ok" or "draining"
	Active   int    `json:"active"`
	Queued   int    `json:"queued"`
	UptimeMS int64  `json:"uptime_ms"`
}

// BreakerState is one pinball circuit's live state in StatsResult:
// the content key ("digest:<hex>"), whether the circuit is open, the consecutive
// failure count, the cached failure code, and — while open — the
// cooldown deadline in Unix milliseconds.
type BreakerState struct {
	Pinball         string `json:"pinball"`
	Open            bool   `json:"open"`
	Consecutive     int    `json:"consecutive"`
	LastCode        string `json:"last_code,omitempty"`
	CooldownUntilMS int64  `json:"cooldown_until_ms,omitempty"`
}

// StatsResult is OpStats's payload. Active/Queued expose the admission
// pool's instantaneous load (queue depth is what a shedding fleet needs
// to debug), Breakers the per-pinball circuit states with cooldown
// deadlines.
type StatsResult struct {
	Received      int64          `json:"received"`
	Accepted      int64          `json:"accepted"`
	Rejected      int64          `json:"rejected"`
	Completed     int64          `json:"completed"`
	Failed        int64          `json:"failed"`
	Active        int            `json:"active"`
	Queued        int            `json:"queued"`
	BreakersOpen  int            `json:"breakers_open"`
	Breakers      []BreakerState `json:"breakers,omitempty"`
	EngineEntries int            `json:"engine_cache_entries"`
	EngineCap     int            `json:"engine_cache_cap"`
	EngineHits    int64          `json:"engine_cache_hits"`
	EngineMisses  int64          `json:"engine_cache_misses"`
	GraphEntries  int            `json:"graph_cache_entries"`
	GraphCap      int            `json:"graph_cache_cap"`
}

// RegisterResult is OpRegister's payload: the coordinator's accepted
// view of the worker plus the heartbeat cadence it expects.
type RegisterResult struct {
	Worker      string `json:"worker"`
	Proto       int    `json:"proto"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
}

// HeartbeatResult is OpHeartbeat's payload. Known is false when the
// coordinator has no registration for the worker (it was declared dead,
// or the coordinator restarted) — the worker must re-register.
type HeartbeatResult struct {
	Known bool `json:"known"`
}

// ShardTask is one unit of distributed work: a slice_shard request to
// execute locally, identified for result matching and re-dispatch
// accounting.
type ShardTask struct {
	ID  string   `json:"id"`
	Req *Request `json:"req"`
}

// TaskResult answers OpSteal and OpFetch: the next task to run, or nil
// when the queue is empty.
type TaskResult struct {
	Task *ShardTask `json:"task,omitempty"`
}

// ShardResult is OpSliceShard's payload: the successor query state,
// plus the final summary fields once Done.
type ShardResult struct {
	Done     bool            `json:"done"`
	Bound    int             `json:"bound"`
	State    json.RawMessage `json:"state"`
	Members  int             `json:"members,omitempty"`
	TraceLen int             `json:"trace_len,omitempty"`
	Deps     int64           `json:"deps,omitempty"`
	Pruned   int64           `json:"pruned,omitempty"`
	Digest   string          `json:"digest,omitempty"`
	// Prov is the member-level provenance breakdown when the sliced
	// recording was gapped (flight-recorder mode); nil otherwise.
	Prov *slice.ProvSummary `json:"provenance,omitempty"`
}

// SliceResult is the OpSlice answer of a Done shard: the whole-slice
// payload a single node and a fleet's shard chain both send.
func (r ShardResult) SliceResult() SliceResult {
	return SliceResult{
		Members:        r.Members,
		TraceLen:       r.TraceLen,
		Deps:           int(r.Deps),
		PrunedBypasses: int(r.Pruned),
		Digest:         r.Digest,
		Prov:           r.Prov,
	}
}

// StorePutResult is OpStorePut's payload. Replicas lists the workers
// that acknowledged the object when the put went through a coordinator
// (the rendezvous owner first, then best-effort successors).
type StorePutResult struct {
	Digest    string   `json:"digest"`
	Size      int64    `json:"size"`
	Chunks    int      `json:"chunks"`
	NewChunks int      `json:"new_chunks"`
	Existed   bool     `json:"existed,omitempty"`
	Replicas  []string `json:"replicas,omitempty"`
}

// StoreFetchResult is OpStoreFetch's payload: the validated file bytes.
// Healed reports that the serving daemon had to repair its copy first.
type StoreFetchResult struct {
	Digest string `json:"digest"`
	Size   int64  `json:"size"`
	Blob   []byte `json:"blob"`
	Healed bool   `json:"healed,omitempty"`
}

// StoreStatResult is OpStoreStat's payload: the store entry's metadata.
type StoreStatResult struct {
	Digest    string `json:"digest"`
	Size      int64  `json:"size"`
	Chunks    int    `json:"chunks"`
	Program   string `json:"program,omitempty"`
	Kind      string `json:"kind,omitempty"`
	AddedUnix int64  `json:"added_unix"`
	TouchUnix int64  `json:"touch_unix"`
	Pinned    bool   `json:"pinned"`
	Leased    bool   `json:"leased"`
}

// StoreLocateResult is OpStoreLocate's payload. From a coordinator,
// Addrs lists the live workers rendezvous-ranked to hold the digest
// (owner first) — the re-fetch candidates. From a worker, Holds reports
// whether its local store has a live entry for the digest.
type StoreLocateResult struct {
	Digest string   `json:"digest"`
	Addrs  []string `json:"addrs,omitempty"`
	Holds  bool     `json:"holds,omitempty"`
}

// encode marshals a result payload; a marshal failure becomes an
// internal error response (it cannot happen for the types above).
func encode(v any) json.RawMessage {
	data, err := json.Marshal(v)
	if err != nil {
		return json.RawMessage(`{}`)
	}
	return data
}
