// Command drserved is the DrDebug session daemon: a resident service
// that runs record / replay / slice / dual-slice sessions over a
// line-delimited JSON TCP protocol, so the cyclic-debugging loop —
// record once, replay and slice many times — reuses hot slicing engines
// across requests instead of rebuilding them per CLI invocation.
//
// Server mode:
//
//	drserved -addr 127.0.0.1:7711 [-max-sessions 4] [-max-queue 16] ...
//
// The daemon admits a bounded number of concurrent sessions (excess
// requests queue FIFO up to -max-queue, then shed with a typed
// "overload" error), clamps every session's instruction budget,
// wall-clock deadline and page cap between server defaults and maxima,
// opens a per-pinball circuit breaker after -breaker-k consecutive
// failures on the same pinball content, and drains gracefully on
// SIGINT/SIGTERM: in-flight sessions finish within -drain-timeout, then
// stragglers are cancelled.
//
// Fleet mode splits the daemon into a coordinator fronting workers:
//
//	drserved -coordinator -addr 127.0.0.1:7700
//	drserved -addr 127.0.0.1:7711 -join 127.0.0.1:7700 -worker-name w1
//	drserved -addr 127.0.0.1:7712 -join 127.0.0.1:7700 -worker-name w2
//
// The coordinator speaks the same protocol a single daemon does, so
// clients point at it unchanged: it routes sessions to workers by
// pinball content (cache-hot), distributes slice queries as hedged
// shard chains, detects dead workers by missed heartbeats and
// re-dispatches their in-flight work, and sheds load fleet-wide.
//
// Client mode ("drsession"):
//
//	drserved -client 127.0.0.1:7711 -op replay -workload fft -pinball f.pinball
//	drserved -client 127.0.0.1:7711 -op slice -workload fft -pinball f.pinball -var sum
//	drserved -client 127.0.0.1:7711 -op health
//
// prints the response JSON on stdout and exits with the shared tool
// exit codes (cmd/internal/cli), plus 7 when the daemon refuses the
// request (overloaded, draining, no live worker, or the pinball's
// circuit is open) and 8 when the fleet answered correctly but only by
// re-dispatching away from a dead or straggling worker.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/sessiond"
	"repro/internal/store"
	"repro/internal/supervisor"
	"repro/internal/vm"
)

func main() {
	var (
		clientAddr = flag.String("client", "", "run as client against a daemon at this address")
		addr       = flag.String("addr", "127.0.0.1:7711", "server listen address")

		maxSessions  = flag.Int("max-sessions", 4, "concurrent session limit")
		maxQueue     = flag.Int("max-queue", 16, "FIFO wait queue length behind the pool")
		maxPerClient = flag.Int("max-per-client", 0, "per-client running+queued cap (0 = max-sessions)")

		defBudget   = flag.Int64("default-budget", 0, "default instruction budget (0 = server default)")
		maxBudget   = flag.Int64("max-budget", 0, "maximum instruction budget a request may ask for")
		defDeadline = flag.Duration("default-deadline", 0, "default per-session wall-clock deadline")
		maxDeadline = flag.Duration("max-deadline", 0, "maximum per-session wall-clock deadline")
		defPages    = flag.Int("default-pages", 0, "default per-session memory cap in VM pages")
		maxPages    = flag.Int("max-pages", 0, "maximum per-session memory cap in VM pages")

		breakerK        = flag.Int("breaker-k", 3, "consecutive failures that open a pinball's circuit")
		breakerCooldown = flag.Duration("breaker-cooldown", 30*time.Second, "how long an open circuit rejects before a trial")

		retries = flag.Int("retries", 3, "attempts per session for transient failures")
		backoff = flag.Duration("backoff", 10*time.Millisecond, "initial retry backoff (doubles per retry)")
		jitter  = flag.Float64("jitter", 0.2, "retry backoff jitter fraction in [0,1]")

		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown window for in-flight sessions")
		engineCache  = flag.Int("engine-cache", 0, "slice-engine LRU capacity (0 = default)")
		graphCache   = flag.Int("graph-cache", 0, "CFG LRU capacity (0 = default)")

		// Fleet modes.
		coordMode  = flag.Bool("coordinator", false, "run as fleet coordinator instead of a session daemon")
		join       = flag.String("join", "", "worker mode: register with the coordinator at this address")
		workerName = flag.String("worker-name", "", "fleet worker name (default: the listen address)")
		advertise  = flag.String("advertise", "", "address the coordinator should dial back (default: the listen address)")

		// Coordinator tuning.
		heartbeatEvery = flag.Duration("heartbeat-interval", 500*time.Millisecond, "coordinator: heartbeat cadence workers are told")
		heartbeatMiss  = flag.Int("heartbeat-miss", 4, "coordinator: missed beats before a worker is declared dead")
		hedgeAfter     = flag.Duration("hedge-after", time.Second, "coordinator: straggler deadline before a shard hop is hedged")
		shardWindows   = flag.Int("shard-windows", 4, "coordinator: checkpoint windows per distributed slice hop")

		// Content-addressed store.
		storeRoot = flag.String("store", "", "content-addressed pinball store root (enables digest-named sessions and store ops)")

		// Worker chaos (soak testing): stall every Nth session mid-replay.
		chaosStallEvery = flag.Int64("chaos-stall-every", 0, "inject a stall into every Nth session (0 = never; testing only)")
		chaosStallFor   = flag.Duration("chaos-stall-for", 30*time.Second, "how long an injected stall blocks")

		// Client-mode request fields.
		op       = flag.String("op", "health", "client op: record, replay, slice, dualslice, health, stats")
		file     = flag.String("file", "", "server-local mini-C (.c) or assembly (.s) source file")
		workload = flag.String("workload", "", "built-in workload: "+cli.WorkloadNames())
		pinballP = flag.String("pinball", "", "server-local pinball path (failing run for dualslice)")
		digest   = flag.String("digest", "", "pinball content digest (resolved via the daemon's store instead of a path)")
		passing  = flag.String("passing-pinball", "", "server-local passing-run pinball (dualslice)")
		salvage  = flag.Bool("salvage", false, "permit salvaging a damaged pinball")
		varName  = flag.String("var", "", "slice criterion / dualslice variable")
		tid      = flag.Int("tid", 0, "slice criterion thread")
		line     = flag.Int("line", 0, "slice criterion source line")
		nth      = flag.Int("nth", 1, "slice criterion line instance")
		workers  = flag.Int("workers", 0, "workers building a slicing engine (0 = all CPUs)")
		out      = flag.String("out", "", "record: where the daemon writes the pinball")
		input    = flag.String("input", "", "record: program input words, comma separated")
		seed     = flag.Int64("seed", 1, "record: scheduling seed")
		budget   = flag.Int64("budget", 0, "requested instruction budget (0 = server default)")
		deadline = flag.Duration("deadline", 0, "requested wall-clock deadline (0 = server default)")
		pages    = flag.Int("pages", 0, "requested memory cap in pages (0 = server default)")
		clientID = flag.String("client-id", "", "client identity for per-client caps (default: remote address)")
	)
	flag.Parse()

	if *clientAddr != "" {
		os.Exit(runClient(*clientAddr, &sessiond.Request{
			Op:             *op,
			Client:         *clientID,
			File:           *file,
			Workload:       *workload,
			Pinball:        *pinballP,
			Digest:         *digest,
			PassingPinball: *passing,
			Salvage:        *salvage,
			Var:            *varName,
			Tid:            *tid,
			Line:           *line,
			Nth:            *nth,
			Workers:        *workers,
			Out:            *out,
			Seed:           *seed,
			Budget:         *budget,
			DeadlineMS:     deadline.Milliseconds(),
			MaxPages:       *pages,
		}, *input))
	}

	if *coordMode {
		runCoordinator(*addr, fleet.Config{
			HeartbeatInterval: *heartbeatEvery,
			HeartbeatMiss:     *heartbeatMiss,
			MaxAttempts:       *retries,
			RetryBase:         *backoff,
			HedgeAfter:        *hedgeAfter,
			ShardWindows:      *shardWindows,
			DrainTimeout:      *drainTimeout,
			Logf:              log.Printf,
		}, *drainTimeout)
		return
	}

	var chaos func(op string) vm.Tracer
	if *chaosStallEvery > 0 {
		sc := &faultinject.SessionChaos{StallEveryN: *chaosStallEvery, StallFor: *chaosStallFor}
		chaos = sc.Tracer
		log.Printf("drserved: CHAOS enabled: stalling every %d sessions for %v", *chaosStallEvery, *chaosStallFor)
	}

	var st *store.Store
	var locator *fleet.CoordinatorLocator
	if *storeRoot != "" {
		var err error
		if st, err = store.Open(*storeRoot); err != nil {
			log.Fatalf("drserved: %v", err)
		}
		log.Printf("drserved: content store at %s", *storeRoot)
		if *join != "" {
			// Heal damaged digests from fleet peers; the locator learns our
			// own advertised address after the listener binds.
			locator = &fleet.CoordinatorLocator{Coordinator: *join}
		}
	}

	var loc sessiond.Locator
	if locator != nil {
		loc = locator
	}
	srv := sessiond.New(sessiond.Config{
		Store:   st,
		Locator: loc,
		Admission: sessiond.AdmissionConfig{
			MaxSessions:  *maxSessions,
			MaxQueue:     *maxQueue,
			MaxPerClient: *maxPerClient,
		},
		Quota: sessiond.QuotaConfig{
			DefaultBudget:   *defBudget,
			MaxBudget:       *maxBudget,
			DefaultDeadline: *defDeadline,
			MaxDeadline:     *maxDeadline,
			DefaultPages:    *defPages,
			MaxPages:        *maxPages,
		},
		Breaker: sessiond.BreakerConfig{K: *breakerK, Cooldown: *breakerCooldown},
		Supervisor: supervisor.Options{
			MaxAttempts: *retries,
			Backoff:     *backoff,
			Jitter:      *jitter,
		},
		DrainTimeout:   *drainTimeout,
		EngineCacheCap: *engineCache,
		GraphCacheCap:  *graphCache,
		Logf:           log.Printf,
		Chaos:          chaos,
	})

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("drserved: %v", err)
	}
	log.Printf("drserved: listening on %s", lis.Addr())

	if *join != "" {
		name := *workerName
		if name == "" {
			name = lis.Addr().String()
		}
		dialBack := *advertise
		if dialBack == "" {
			dialBack = lis.Addr().String()
		}
		if locator != nil {
			locator.SetSelf(dialBack)
		}
		agentCtx, agentCancel := context.WithCancel(context.Background())
		defer agentCancel()
		agent := fleet.NewAgent(srv, fleet.AgentConfig{
			Coordinator: *join,
			Name:        name,
			Addr:        dialBack,
			Capacity:    *maxSessions,
			Logf:        log.Printf,
		})
		go func() {
			if err := agent.Run(agentCtx); err != nil && agentCtx.Err() == nil {
				log.Printf("drserved: fleet agent: %v", err)
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()

	select {
	case sig := <-sigc:
		log.Printf("drserved: %v, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout+5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("drserved: shutdown: %v", err)
		}
		log.Printf("drserved: stopped")
	case err := <-done:
		if err != nil {
			log.Fatalf("drserved: %v", err)
		}
	}
}

// runCoordinator serves the fleet coordinator until a signal drains it.
func runCoordinator(addr string, cfg fleet.Config, drain time.Duration) {
	co := fleet.NewCoordinator(cfg)
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("drserved: %v", err)
	}
	log.Printf("drserved: coordinator listening on %s", lis.Addr())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- co.Serve(lis) }()
	select {
	case sig := <-sigc:
		log.Printf("drserved: coordinator %v, draining", sig)
		if err := co.Shutdown(drain); err != nil {
			log.Fatalf("drserved: coordinator shutdown: %v", err)
		}
		log.Printf("drserved: coordinator stopped")
	case err := <-done:
		if err != nil {
			log.Fatalf("drserved: %v", err)
		}
	}
}

// runClient performs one request against a daemon and returns the
// process exit code.
func runClient(addr string, req *sessiond.Request, input string) int {
	words, err := cli.ParseInput(input)
	if err != nil {
		return cli.Fail("drserved", err)
	}
	req.Input = words
	c, err := cli.DialSession(addr)
	if err != nil {
		return cli.Fail("drserved", err)
	}
	defer c.Close()
	resp, err := c.Do(req)
	if err != nil {
		return cli.Fail("drserved", err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return cli.Fail("drserved", err)
	}
	if !resp.OK {
		fmt.Fprintf(os.Stderr, "drserved: %s: %s\n", resp.Code, resp.Error)
	}
	return cli.SessionExitCode(resp)
}
