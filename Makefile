GO ?= go

.PHONY: all build vet fmt-check test race verify bench bench-smoke chaos soak fleet-soak bench-durability ring-chaos bench-ring matrix-smoke store-chaos pipebench-test fuzz

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail if any Go file is not gofmt-formatted (lists the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Race-check the subsystems with real concurrency: replay/logging,
# the VM, the parallel slicing engine (plus its dual-slice consumer),
# the shared LRU caches, and the coordinator/worker fleet.
race:
	$(GO) test -race ./internal/pinplay/... ./internal/vm/... ./internal/slice/... ./internal/dualslice/... ./internal/lru/... ./internal/fleet/...

# Tier-1 verify (see ROADMAP.md).
verify: build vet test race

# The pipeline benchmark is a nested module that `go test ./...` skips:
# run its tests (every workload at toy size, untraced and traced) so a
# tracer, core or sessiond API change that breaks it fails here.
pipebench-test:
	cd pipebench && $(GO) test ./...

# Regenerate BENCH_slice.json (parallel slicing engine benchmark).
bench:
	$(GO) run ./cmd/drbench -experiment slicebench -workers 4

# One iteration of each parallel slicing-engine benchmark (build, and
# steady-state query with and without its dependence edges, on a
# blackscholes region), of each record, replay and trace-collection
# benchmark (the four mgrid kernel-region ones: record, validated and
# unverified replay, CollectTrace; and the checkpoint-cadence toys) and
# of the pinball encode and decode benchmarks (250k-main captures of
# canneal, mgrid and swaptions), so a change that breaks them fails
# here; the numbers themselves do not gate. -benchmem puts B/op and
# allocs/op in the log next to ns/op.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Parallel' -benchtime 1x -benchmem ./internal/slice/
	$(GO) test -run '^$$' -bench 'Replay|Log|Collect' -benchtime 1x -benchmem ./internal/pinplay/
	$(GO) test -run '^$$' -bench '^Benchmark(Encode|Decode)$$' -benchtime 1x -benchmem ./internal/pinball/

# Crash-injection suite under the race detector: torn files at every
# section boundary, injected tracer panics, stalled replays, persistent
# divergence — every fault must end in recovery or a typed error.
chaos:
	$(GO) test -race -count=1 ./internal/faultinject/... ./internal/supervisor/...

# Chaos soak against a live session daemon under the race detector:
# 32 concurrent clients, scheduled tracer panics/stalls, corrupt and
# tampered pinballs, quota violations, a breaker short-circuit phase and
# a graceful drain. SOAK_REQS scales the per-client request count.
SOAK_REQS ?= 12
soak:
	DRDEBUG_SOAK_REQS=$(SOAK_REQS) $(GO) test -race -count=1 -run TestChaosSoak -v ./internal/sessiond/

# Native fuzzing, FUZZTIME per target. Decode must fail with a typed
# error or round-trip its pinball's digest, and Salvage must fail typed
# or return a pinball that passes Validate; their seed corpus is every
# pinball kind's Save encoding, the version 2 and 3 fixtures and every file
# corruptor's output. A slice shard hop over an arbitrary wire query
# state (the state every daemon slice runs through) must reject it with
# ErrBadState or answer a state the next hop accepts; its seeds are real
# shard-chain states and the malformed states the shard tests pin. A
# store manifest replay must fail with ErrManifestCorrupt or, untorn,
# survive compaction with equal entries; its seeds are real manifests
# and the ones the store corruptors leave. A scenario-matrix spec must
# be rejected or decode to scenarios that each expand to at least one
# cell, with the same digest on a second decode; its seeds are the
# committed scenario files and the specs the matrix tests inline.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/pinball/
	$(GO) test -run '^$$' -fuzz '^FuzzSalvage$$' -fuzztime $(FUZZTIME) ./internal/pinball/
	$(GO) test -run '^$$' -fuzz '^FuzzSliceShardState$$' -fuzztime $(FUZZTIME) ./internal/slice/
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME) ./internal/matrix/

# Multi-process fleet chaos soak: a real drserved coordinator fronting
# three real drserved workers, 100 concurrent clients, one worker
# SIGKILLed and one SIGSTOPped mid-run. Every accepted request must end
# in a typed response and every completed slice must be bit-identical
# (by digest) to a single-node daemon's answer. FLEET_SOAK_REQS scales
# the per-client request count.
FLEET_SOAK_REQS ?= 3
fleet-soak:
	DRDEBUG_SOAK_REQS=$(FLEET_SOAK_REQS) $(GO) test -race -count=1 -run TestFleetChaosSoak -v ./internal/fleet/

# Regenerate BENCH_durability.json (crash-safe write overhead).
bench-durability:
	$(GO) run ./cmd/drbench -experiment durbench

# Flight-recorder chaos under the race detector: ring eviction and
# gap-bridging differential tests, tampered window hashes and resume
# recipes (every policy must yield a typed degraded outcome, never a
# clean exit), plus the ring scenario matrix (exact bridges, provenance
# slicing, ring fault rows) from scenarios/ring.json, whose grid goes to
# ring-grid.json.
ring-chaos:
	$(GO) test -race -count=1 -run 'Ring|Bridge|Gap' ./internal/pinplay/... ./internal/pinball/... ./internal/faultinject/... ./internal/core/... ./internal/slice/...
	$(GO) run -race ./cmd/drmatrix run -json ring-grid.json scenarios/ring.json

# Content-addressed store chaos under the race detector: the store
# corruptor matrix (bit-flipped chunk, torn manifest tail, dangling
# index entry, duplicate-digest collision — each caught as its declared
# typed sentinel; grid artifact written to store-grid.json), the store
# and LRU unit suites, the daemon's digest resolver ladder (clean hit,
# peer re-fetch, heal, salvage, GC between requests, shared first
# loads) and concurrent sessions sharing one decoded pinball, then the
# multi-process GC-under-load soak: a coordinator over three stored
# workers, digest-only clients, one worker SIGKILLed mid-fetch, one
# object corrupted under load and its worker restarted, and GC running
# concurrently. STORE_SOAK_REQS scales the soak.
STORE_SOAK_REQS ?= 3
store-chaos:
	DRDEBUG_STORE_GRID=$(CURDIR)/store-grid.json $(GO) test -race -count=1 -run 'TestStore' -v ./internal/faultinject/
	$(GO) test -race -count=1 ./internal/store/ ./internal/lru/
	$(GO) test -race -count=1 -run 'TestResolver' ./internal/sessiond/
	DRDEBUG_SOAK_REQS=$(STORE_SOAK_REQS) $(GO) test -race -count=1 -run TestStoreChaosSoak -v ./internal/fleet/

# Regenerate BENCH_ring.json (flight-recorder ring overhead).
bench-ring:
	$(GO) run ./cmd/drbench -experiment ringbench

# Bounded scenario-matrix smoke under the race detector: the Table 1
# bug kernels of scenarios/table1.json explored by Maple across 8 seeds
# each, with replay and slice-closure assertions, plus the matrix
# engine's own determinism tests. Writes the grid artifact to
# matrix-grid.json for CI upload.
matrix-smoke:
	$(GO) test -race -count=1 ./internal/matrix/
	$(GO) run -race ./cmd/drmatrix run -q -json matrix-grid.json scenarios/table1.json
