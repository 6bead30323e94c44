package sessiond

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"sync"
	"sync/atomic"
	"time"

	cfgpkg "repro/internal/cfg"
	"repro/internal/pinball"
	"repro/internal/slice"
	"repro/internal/store"
	"repro/internal/supervisor"
	"repro/internal/vm"
)

// Config assembles the server's robustness policy.
type Config struct {
	// Admission bounds the session pool and wait queue.
	Admission AdmissionConfig
	// Quota is the per-session resource policy.
	Quota QuotaConfig
	// Breaker tunes the per-pinball circuit breaker.
	Breaker BreakerConfig
	// Supervisor is the retry/backoff/watchdog policy sessions run
	// under. A zero Watchdog is derived per request from the session's
	// wall-clock quota, so a hung session is always preempted.
	Supervisor supervisor.Options
	// DrainTimeout bounds the graceful part of Shutdown: how long
	// in-flight sessions may finish before they are cancelled
	// (default 10s).
	DrainTimeout time.Duration
	// EngineCacheCap / GraphCacheCap resize the process-lifetime LRU
	// caches at construction (0 = leave the current caps).
	EngineCacheCap int
	GraphCacheCap  int
	// Store, when set, serves the store ops and lets sessions name
	// pinballs by content digest; nil daemons reject both with
	// CodeStoreUnavailable.
	Store *store.Store
	// Locator names fleet peers for digest re-fetch during healing
	// (nil = no peers; healing stops at salvage).
	Locator Locator
	// StoreRetry tunes the peer re-fetch ladder (zero = defaults).
	StoreRetry StoreRetry
	// Logf logs server events (nil = silent).
	Logf func(format string, args ...any)
	// Chaos, when set, supplies a fault-injection observer for replaying
	// ops — the chaos-soak tests' hook. nil in production.
	Chaos func(op string) vm.Tracer
}

func (c Config) withDefaults() Config {
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the sessiond instance: one per process, serving line-JSON
// requests over any number of TCP connections.
type Server struct {
	cfg      Config
	quota    QuotaConfig
	adm      *admission
	brk      *Breaker
	resolver *storeResolver // nil when no store is configured
	start    time.Time

	// hardCtx cancels every in-flight session when the drain deadline
	// expires; it rides into vm.Limits.Ctx.
	hardCtx    context.Context
	hardCancel context.CancelFunc

	received  atomic.Int64
	accepted  atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	draining  atomic.Bool

	// inflight counts requests between line-read and response-written;
	// Shutdown waits for it to reach zero before closing connections, so
	// a drain never cuts off a response already being produced.
	inflight atomic.Int64

	mu    sync.Mutex
	lis   net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// New builds a server from the config and applies the cache caps.
func New(c Config) *Server {
	c = c.withDefaults()
	if c.EngineCacheCap > 0 {
		slice.SetEngineCacheCap(c.EngineCacheCap)
	}
	if c.GraphCacheCap > 0 {
		cfgpkg.SetGraphCacheCap(c.GraphCacheCap)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        c,
		quota:      c.Quota.withDefaults(),
		adm:        newAdmission(c.Admission),
		brk:        NewBreaker(c.Breaker, nil),
		start:      time.Now(),
		hardCtx:    ctx,
		hardCancel: cancel,
		conns:      make(map[net.Conn]struct{}),
	}
	if c.Store != nil {
		s.resolver = newStoreResolver(c.Store, c.Locator, c.StoreRetry, c.Logf)
	}
	return s
}

// Serve accepts connections on lis until Shutdown closes it. It returns
// nil on a clean shutdown and the accept error otherwise.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			// Raced a drain: the listener is about to close; refuse.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// handleConn answers one connection's requests in order, one JSON
// object per line each way.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	enc := json.NewEncoder(conn)
	send := func(resp Response) {
		if err := enc.Encode(&resp); err != nil {
			s.cfg.Logf("sessiond: write to %s: %v", conn.RemoteAddr(), err)
		}
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		s.inflight.Add(1)
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			send(Response{OK: false, Code: CodeBadRequest, Error: "malformed request: " + err.Error()})
		} else {
			s.dispatch(&req, conn.RemoteAddr().String(), send)
		}
		s.inflight.Add(-1)
	}
}

// dispatch runs one request through the full admission pipeline and
// sends its response. Every path terminates in a typed response, and a
// session's response is written before its pool slot is released — so
// once the pool is idle during a drain, every admitted result is on the
// wire and none is lost.
func (s *Server) dispatch(req *Request, remote string, send func(Response)) {
	switch req.Op {
	case OpHealth:
		send(s.health(req))
		return
	case OpStats:
		send(s.stats(req))
		return
	}

	s.received.Add(1)
	client := req.Client
	if client == "" {
		client = remote
	}

	// Store ops answer directly from the local store — bounded I/O, no
	// session slot, no breaker (a fetch of a corrupt object heals or
	// fails typed; it is not a session failure against the content).
	switch req.Op {
	case OpStorePut, OpStoreFetch, OpStoreStat, OpStoreLocate:
		resp := s.storeOp(req)
		if resp.OK {
			s.completed.Add(1)
		} else {
			s.failed.Add(1)
		}
		send(resp)
		return
	}

	// Circuit breaker first: a known-bad pinball fails fast without
	// consuming a session slot.
	key := breakerKey(req)
	if open, code, msg := s.brk.Check(key); open {
		s.rejected.Add(1)
		send(Response{ID: req.ID, OK: false, Code: CodeCircuitOpen,
			Error: "circuit open for this pinball (last failure " + code + ": " + msg + ")"})
		return
	}

	// Quota resolution before admission: an impossible ask should not
	// occupy a queue slot.
	limits, deadline, err := s.quota.resolve(req, s.hardCtx)
	if err != nil {
		s.rejected.Add(1)
		send(s.failure(req, err, nil))
		return
	}

	// Admission: bounded pool, FIFO queue, per-client caps.
	if err := s.adm.acquire(s.hardCtx, client); err != nil {
		s.rejected.Add(1)
		send(s.failure(req, err, nil))
		return
	}
	defer s.adm.release(client)
	s.accepted.Add(1)

	// Resolve a digest-named pinball through the store before the
	// session runs: decode it once per process (healing from peers as
	// needed) and lease the entry so GC cannot collect it while the
	// session is live. Any degradation the resolution incurred annotates
	// the final answer.
	var pb *pinball.Pinball
	var resolveAnn string
	if req.Digest != "" && req.Op != OpRecord {
		if s.resolver == nil {
			s.failed.Add(1)
			send(Response{ID: req.ID, OK: false, Code: CodeStoreUnavailable,
				Error: "request names a digest but this daemon has no store (start with -store)"})
			return
		}
		if req.Pinball != "" {
			s.failed.Add(1)
			send(Response{ID: req.ID, OK: false, Code: CodeBadRequest,
				Error: "sessiond: bad request: pinball and digest are mutually exclusive"})
			return
		}
		var release func()
		var rerr error
		pb, resolveAnn, release, rerr = s.resolver.resolve(s.hardCtx, req.Digest, req.Salvage)
		if rerr != nil {
			s.failed.Add(1)
			code := storeErrorCode(rerr)
			if pinballAttributable(code) {
				s.brk.Failure(key, code, rerr.Error())
			}
			send(Response{ID: req.ID, OK: false, Code: code, Error: rerr.Error()})
			return
		}
		defer release()
	}

	sup := s.cfg.Supervisor
	if sup.Watchdog == 0 {
		// The watchdog backstops the vm deadline: it must outlast it, so
		// limit-bounded sessions fail as "limit", and only a session hung
		// outside the VM's stepping loop trips the watchdog.
		sup.Watchdog = deadline + 2*time.Second
	}
	if sup.RetryBudget == 0 {
		// Retries share the session's wall-clock allowance: however many
		// attempts the policy permits, their total (attempts plus backoff
		// sleeps) may not exceed twice the watchdog window, so a retrying
		// session can never outlive the quota deadline by more than one
		// extra attempt.
		sup.RetryBudget = 2 * sup.Watchdog
	}
	r := &runner{sup: sup, chaos: s.cfg.Chaos, pb: pb}
	res, err := r.run(req, limits)
	if err != nil {
		s.failed.Add(1)
		code := errorCode(err)
		if pinballAttributable(code) {
			s.brk.Failure(key, code, err.Error())
		}
		var rep *supervisor.Report
		if res != nil {
			rep = res.report
		}
		send(s.failure(req, err, rep))
		return
	}
	s.completed.Add(1)
	s.brk.Success(key)
	// The session's own degradation annotation wins; otherwise surface
	// what the store resolution had to do (healed / salvaged).
	ann := res.annotation
	if ann == "" {
		ann = resolveAnn
	}
	send(Response{ID: req.ID, OK: true, Code: ann, Result: res.result, Report: res.report})
}

// failure types an error into a response.
func (s *Server) failure(req *Request, err error, rep *supervisor.Report) Response {
	return Response{ID: req.ID, OK: false, Code: errorCode(err), Error: err.Error(), Report: rep}
}

func (s *Server) health(req *Request) Response {
	running, queued := s.adm.load()
	draining := s.draining.Load()
	status := "ok"
	if draining {
		status = "draining"
	}
	return Response{ID: req.ID, OK: true, Result: encode(HealthResult{
		Live:     true,
		Ready:    !draining,
		Status:   status,
		Active:   running,
		Queued:   queued,
		UptimeMS: time.Since(s.start).Milliseconds(),
	})}
}

func (s *Server) stats(req *Request) Response {
	eng := slice.GetEngineCacheStats()
	gph := cfgpkg.GraphCacheStats()
	running, queued := s.adm.load()
	return Response{ID: req.ID, OK: true, Result: encode(StatsResult{
		Received:      s.received.Load(),
		Accepted:      s.accepted.Load(),
		Rejected:      s.rejected.Load(),
		Completed:     s.completed.Load(),
		Failed:        s.failed.Load(),
		Active:        running,
		Queued:        queued,
		BreakersOpen:  s.brk.OpenCount(),
		Breakers:      s.brk.Snapshot(),
		EngineEntries: eng.Entries,
		EngineCap:     slice.EngineCacheCap(),
		EngineHits:    eng.Hits,
		EngineMisses:  eng.Misses,
		GraphEntries:  gph.Entries,
		GraphCap:      cfgpkg.GraphCacheCap(),
	})}
}

// Execute runs one request through the same pipeline dispatch uses and
// returns its response instead of writing it to a connection. It is the
// in-process entry the fleet worker agent uses for stolen tasks: the
// request still counts against admission, quotas, breakers and drain
// accounting, so a drain waits for stolen work exactly as it waits for
// connection-delivered work.
func (s *Server) Execute(req *Request, client string) Response {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	var out Response
	s.dispatch(req, client, func(resp Response) { out = resp })
	return out
}

// Load reports the admission pool's instantaneous running and queued
// session counts — what a fleet worker advertises in its heartbeats.
func (s *Server) Load() (running, queued int) { return s.adm.load() }

// Shutdown drains the server gracefully: stop admitting (queued waiters
// fail with ErrDraining, new requests get CodeDraining), let in-flight
// sessions finish within DrainTimeout, then cancel stragglers through
// the hard context, and finally close every connection. In-flight
// sessions that finish within the drain window deliver their responses
// — a drain loses no completed work. Returns nil when the server went
// idle, or ctx.Err() if ctx expired first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.adm.drain()
	s.mu.Lock()
	if s.lis != nil {
		s.lis.Close()
	}
	s.mu.Unlock()

	graceful := time.NewTimer(s.cfg.DrainTimeout)
	defer graceful.Stop()
	select {
	case <-s.adm.awaitIdle():
		s.cfg.Logf("sessiond: drained cleanly")
	case <-graceful.C:
		s.cfg.Logf("sessiond: drain deadline expired, cancelling in-flight sessions")
		s.hardCancel()
		select {
		case <-s.adm.awaitIdle():
		case <-ctx.Done():
			return ctx.Err()
		}
	case <-ctx.Done():
		s.hardCancel()
		return ctx.Err()
	}

	// Idle, but a handler may still be writing a response the pool no
	// longer accounts for (a rejection, or the final bytes of a
	// completed session). Wait those writes out before closing anything;
	// late arrivals during this phase are fast typed rejections, so the
	// counter converges.
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			s.hardCancel()
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}

	s.hardCancel()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
