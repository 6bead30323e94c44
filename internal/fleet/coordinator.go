package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sessiond"
	"repro/internal/supervisor"
)

// Config assembles the coordinator's routing and robustness policy.
type Config struct {
	// HeartbeatInterval is the cadence workers are told to beat at
	// (default 500ms). HeartbeatMiss beats without contact declare a
	// worker dead (default 4), so the detection window is
	// HeartbeatMiss × HeartbeatInterval.
	HeartbeatInterval time.Duration
	HeartbeatMiss     int

	// MaxAttempts bounds how many distinct workers one request is tried
	// on (default 3). Between attempts the coordinator sleeps a capped
	// decorrelated-jitter backoff drawn from [RetryBase, 3×prev] clipped
	// to RetryMax (defaults 10ms / 250ms).
	MaxAttempts int
	RetryBase   time.Duration
	RetryMax    time.Duration

	// HedgeAfter is the straggler deadline: a shard hop unanswered for
	// this long is offered to the steal queue so any idle worker can race
	// the straggler, first response wins (default 1s).
	HedgeAfter time.Duration
	// ShardDeadline backstops a hedged hop: if neither the push path nor
	// a stealer answers within it, the hop fails typed (default
	// 2×RequestTimeout).
	ShardDeadline time.Duration

	// RequestTimeout is the per-forward I/O deadline — a stalled worker
	// becomes a transport error, not a hang (default 60s). DialTimeout
	// bounds connection establishment (default 2s).
	RequestTimeout time.Duration
	DialTimeout    time.Duration

	// ShardWindows is how many checkpoint windows one distributed hop
	// advances (default 4). MinShardWorkers gates distribution: with
	// fewer live workers a slice query is forwarded whole (default 2).
	ShardWindows    int
	MinShardWorkers int

	// StealWait bounds an OpSteal long-poll (default 250ms).
	StealWait time.Duration

	// MaxInflight sheds load fleet-wide: session requests beyond it are
	// rejected with CodeOverload before touching any worker (default
	// 4 × the live fleet's summed capacity, recomputed per request;
	// negative disables shedding).
	MaxInflight int

	// DrainTimeout bounds Shutdown's graceful phase (default 10s).
	DrainTimeout time.Duration

	// Logf logs coordinator events (nil = silent).
	Logf func(format string, args ...any)

	// Now injects the clock. With the real clock (nil) the coordinator
	// runs its own dead-worker sweeper; with an injected one the test
	// drives Sweep explicitly, so detection timing is deterministic.
	Now func() time.Time
	// Sleep and Rand inject the backoff's timing and jitter (nil =
	// time.Sleep / math/rand).
	Sleep func(time.Duration)
	Rand  func() float64
	// Dial injects the worker transport — the chaos tests' partition
	// hook. nil = sessiond.DialTimeout.
	Dial func(addr string, timeout time.Duration) (*sessiond.Client, error)
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.HeartbeatMiss <= 0 {
		c.HeartbeatMiss = 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 250 * time.Millisecond
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.ShardDeadline <= 0 {
		c.ShardDeadline = 2 * c.RequestTimeout
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.ShardWindows <= 0 {
		c.ShardWindows = 4
	}
	if c.MinShardWorkers <= 0 {
		c.MinShardWorkers = 2
	}
	if c.StealWait <= 0 {
		c.StealWait = 250 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
	if c.Dial == nil {
		c.Dial = func(addr string, timeout time.Duration) (*sessiond.Client, error) {
			return sessiond.DialTimeout(addr, timeout)
		}
	}
	return c
}

// Coordinator fronts the fleet: a line-JSON TCP server that accepts the
// same session requests a drserved worker would, routes them to live
// workers, and answers fleet ops (register/heartbeat/steal/fetch) from
// the workers themselves.
type Coordinator struct {
	cfg   Config
	reg   *Registry
	wbrk  *sessiond.Breaker // keyed by worker name, transport failures only
	queue *stealQueue
	start time.Time

	received     atomic.Int64
	completed    atomic.Int64
	failed       atomic.Int64
	redispatches atomic.Int64
	sessions     atomic.Int64 // session ops between admission and response
	inflight     atomic.Int64 // requests between line-read and response-written
	draining     atomic.Bool
	taskSeq      atomic.Int64

	// tmu guards the fleet link state: stealable tasks by ID (for
	// OpFetch result matching) and the open per-worker connections (so a
	// dead worker's links can be severed, unblocking forwards instantly).
	tmu   sync.Mutex
	tasks map[string]*task
	links map[string]map[*sessiond.Client]struct{}

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	stop     chan struct{}
	stopOnce sync.Once
}

// NewCoordinator builds a coordinator. With a real clock it also runs
// the background dead-worker sweeper once Serve starts.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	timeout := time.Duration(cfg.HeartbeatMiss) * cfg.HeartbeatInterval
	return &Coordinator{
		cfg:   cfg,
		reg:   NewRegistry(timeout, cfg.Now),
		wbrk:  sessiond.NewBreaker(sessiond.BreakerConfig{K: workerBreakerK, Cooldown: workerBreakerCooldown}, cfg.Now),
		queue: newStealQueue(),
		start: time.Now(),
		tasks: make(map[string]*task),
		links: make(map[string]map[*sessiond.Client]struct{}),
		conns: make(map[net.Conn]struct{}),
		stop:  make(chan struct{}),
	}
}

// Registry exposes the worker registry (tests drive registration and
// sweeps through it).
func (co *Coordinator) Registry() *Registry { return co.reg }

// Serve accepts connections on lis until Shutdown closes it.
func (co *Coordinator) Serve(lis net.Listener) error {
	co.mu.Lock()
	co.lis = lis
	co.mu.Unlock()
	if co.cfg.Now == nil {
		co.wg.Add(1)
		go co.sweeper()
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			if co.draining.Load() {
				return nil
			}
			return err
		}
		co.mu.Lock()
		if co.draining.Load() {
			co.mu.Unlock()
			conn.Close()
			continue
		}
		co.conns[conn] = struct{}{}
		co.wg.Add(1)
		co.mu.Unlock()
		go co.handleConn(conn)
	}
}

// sweeper periodically declares missed-heartbeat workers dead.
func (co *Coordinator) sweeper() {
	defer co.wg.Done()
	tick := time.NewTicker(co.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-co.stop:
			return
		case <-tick.C:
			co.Sweep()
		}
	}
}

// Sweep declares every missed-heartbeat worker dead and severs its
// in-flight links, so a forward blocked on a dead worker fails over to
// the rendezvous successor after one backoff step instead of waiting
// out its I/O deadline. Exposed so injected-clock tests drive detection
// deterministically. Returns the newly dead workers.
func (co *Coordinator) Sweep() []WorkerInfo {
	dead := co.reg.Sweep()
	for _, w := range dead {
		co.cfg.Logf("fleet: worker %s (%s) missed %d heartbeats, declared dead",
			w.Name, w.Addr, co.cfg.HeartbeatMiss)
		co.severLinks(w.Name)
	}
	return dead
}

func (co *Coordinator) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		co.mu.Lock()
		delete(co.conns, conn)
		co.mu.Unlock()
		co.wg.Done()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	enc := json.NewEncoder(conn)
	var wmu sync.Mutex // steal long-polls answer concurrently with pipelined requests
	send := func(resp sessiond.Response) {
		wmu.Lock()
		defer wmu.Unlock()
		if err := enc.Encode(&resp); err != nil {
			co.cfg.Logf("fleet: write to %s: %v", conn.RemoteAddr(), err)
		}
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		co.inflight.Add(1)
		var req sessiond.Request
		if err := json.Unmarshal(line, &req); err != nil {
			send(sessiond.Response{OK: false, Code: sessiond.CodeBadRequest, Error: "malformed request: " + err.Error()})
		} else {
			co.dispatch(&req, send)
		}
		co.inflight.Add(-1)
	}
}

// dispatch answers one request: fleet ops locally, session ops by
// routing them to workers. Every path terminates in a typed response.
func (co *Coordinator) dispatch(req *sessiond.Request, send func(sessiond.Response)) {
	switch req.Op {
	case sessiond.OpHealth:
		send(co.health(req))
		return
	case sessiond.OpStats:
		send(co.stats(req))
		return
	case sessiond.OpRegister, sessiond.OpHeartbeat, sessiond.OpSteal, sessiond.OpFetch:
		if req.Proto < sessiond.ProtoV2 {
			send(sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeBadRequest,
				Error: fmt.Sprintf("op %q requires proto>=%d", req.Op, sessiond.ProtoV2)})
			return
		}
		send(co.fleetOp(req))
		return
	case sessiond.OpStorePut, sessiond.OpStoreFetch, sessiond.OpStoreStat, sessiond.OpStoreLocate:
		if req.Proto < sessiond.ProtoV2 {
			send(sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeBadRequest,
				Error: fmt.Sprintf("op %q requires proto>=%d", req.Op, sessiond.ProtoV2)})
			return
		}
		co.received.Add(1)
		resp := co.storeOp(req)
		if resp.OK {
			co.completed.Add(1)
		} else {
			co.failed.Add(1)
		}
		send(resp)
		return
	}

	// A session op. Shed before routing: drain refuses outright, and the
	// fleet-wide in-flight cap rejects what the workers' own admission
	// queues would only make wait.
	co.received.Add(1)
	if co.draining.Load() {
		co.failed.Add(1)
		send(sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeDraining,
			Error: "coordinator is draining"})
		return
	}
	if limit := co.inflightLimit(); limit >= 0 && co.sessions.Load() >= int64(limit) {
		co.failed.Add(1)
		send(sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeOverload,
			Error: fmt.Sprintf("fleet saturated: %d sessions in flight against capacity %d", co.sessions.Load(), co.reg.Capacity())})
		return
	}
	co.sessions.Add(1)
	resp := co.route(req)
	co.sessions.Add(-1)
	if resp.OK {
		co.completed.Add(1)
	} else {
		co.failed.Add(1)
	}
	send(resp)
}

// inflightLimit resolves the fleet-wide shedding threshold; -1 disables.
func (co *Coordinator) inflightLimit() int {
	if co.cfg.MaxInflight < 0 {
		return -1
	}
	if co.cfg.MaxInflight > 0 {
		return co.cfg.MaxInflight
	}
	total := co.reg.Capacity()
	if total == 0 {
		// No live workers: let route answer CodeNoWorkers, which is more
		// actionable than overload.
		return -1
	}
	return 4 * total
}

// fleetOp answers a worker-originated op.
func (co *Coordinator) fleetOp(req *sessiond.Request) sessiond.Response {
	switch req.Op {
	case sessiond.OpRegister:
		if req.Worker == "" || req.Addr == "" {
			return sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeBadRequest,
				Error: "register needs fleet_worker and fleet_addr"}
		}
		co.reg.Register(WorkerInfo{Name: req.Worker, Addr: req.Addr, Capacity: req.Capacity, Load: req.Load})
		co.wbrk.Success(req.Worker) // a fresh registration resets its transport history
		co.cfg.Logf("fleet: worker %s registered at %s (capacity %d)", req.Worker, req.Addr, req.Capacity)
		return sessiond.Response{ID: req.ID, OK: true, Result: encode(sessiond.RegisterResult{
			Worker:      req.Worker,
			Proto:       sessiond.ProtoCurrent,
			HeartbeatMS: co.cfg.HeartbeatInterval.Milliseconds(),
		})}
	case sessiond.OpHeartbeat:
		known := co.reg.Heartbeat(req.Worker, req.Load)
		return sessiond.Response{ID: req.ID, OK: true, Result: encode(sessiond.HeartbeatResult{Known: known})}
	case sessiond.OpSteal:
		t := co.queue.get(co.cfg.StealWait)
		return sessiond.Response{ID: req.ID, OK: true, Result: encode(co.handOut(t))}
	case sessiond.OpFetch:
		co.resolveFetch(req)
		return sessiond.Response{ID: req.ID, OK: true, Result: encode(co.handOut(co.queue.tryGet()))}
	}
	return sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeBadRequest, Error: "unknown fleet op " + req.Op}
}

// handOut wraps a task for the wire and counts the dispatch.
func (co *Coordinator) handOut(t *task) sessiond.TaskResult {
	if t == nil {
		return sessiond.TaskResult{}
	}
	t.dispatches.Add(1)
	return sessiond.TaskResult{Task: &sessiond.ShardTask{ID: t.id, Req: t.req}}
}

// resolveFetch matches a stolen task's result back to its waiter.
// Unknown task IDs (the push path already won, or the query moved on)
// are discarded — the worker's compute was the hedge's cost.
func (co *Coordinator) resolveFetch(req *sessiond.Request) {
	co.tmu.Lock()
	t := co.tasks[req.TaskID]
	co.tmu.Unlock()
	if t == nil {
		return
	}
	if req.TaskErr != "" {
		t.deliver(&sessiond.Response{OK: false, Code: sessiond.CodeInternal, Error: req.TaskErr})
		return
	}
	var resp sessiond.Response
	if err := json.Unmarshal(req.TaskState, &resp); err != nil {
		co.cfg.Logf("fleet: fetch for task %s carried malformed response: %v", req.TaskID, err)
		return
	}
	t.deliver(&resp)
}

// route answers one session request. Slice queries fan out as
// distributed shard chains when enough workers are live; everything
// else (and small fleets) forwards whole to the rendezvous owner.
func (co *Coordinator) route(req *sessiond.Request) sessiond.Response {
	key := sessiond.RouteKey(req)
	if req.Op == sessiond.OpSlice && (req.Pinball != "" || req.Digest != "") &&
		len(co.reg.Alive()) >= co.cfg.MinShardWorkers {
		return co.distributedSlice(req, key)
	}
	return co.forward(req, key)
}

// forward sends req whole to the rendezvous owner of key, failing over
// to the next-ranked live worker on transport errors (see failover).
// Typed failures pass through unchanged — they are the session's own
// answer, not the fleet's. A success that needed failover is annotated
// CodeRedispatched (unless the session already carries a stronger
// annotation like salvaged/degraded).
func (co *Coordinator) forward(req *sessiond.Request, key string) sessiond.Response {
	resp, retried, sent := co.failover(req, key, nil)
	if sent && retried {
		co.redispatches.Add(1)
		if resp.OK && resp.Code == "" {
			resp.Code = sessiond.CodeRedispatched
		}
	}
	resp.ID = req.ID
	return *resp
}

// failover is the pick → send → backoff loop of every push to a worker:
// it tries up to MaxAttempts distinct live workers in rendezvous order
// for key, sleeping a capped decorrelated-jitter backoff between
// attempts, until one answers. It returns that answer and whether it
// needed more than one attempt; when no worker answered (sent false) it
// returns the typed no-workers failure instead. With a hedged task t,
// every attempt counts as a dispatch and the loop stops once the task
// is answered elsewhere.
func (co *Coordinator) failover(req *sessiond.Request, key string, t *task) (resp *sessiond.Response, retried, sent bool) {
	tried := make(map[string]bool)
	var backoff time.Duration
	var lastErr error
	for attempt := 0; attempt < co.cfg.MaxAttempts && (t == nil || !t.done.Load()); attempt++ {
		if attempt > 0 {
			backoff = supervisor.DecorrelatedJitter(backoff, co.cfg.RetryBase, co.cfg.RetryMax, co.cfg.Rand)
			co.cfg.Sleep(backoff)
		}
		w, ok := co.pick(key, tried)
		if !ok {
			break
		}
		if t != nil {
			t.dispatches.Add(1)
		}
		resp, err := co.send(w, req, t)
		if err == nil {
			return resp, attempt > 0, true
		}
		switch {
		case t == nil:
			co.cfg.Logf("fleet: forward %s to %s failed: %v", req.Op, w.Name, err)
		case !t.done.Load():
			co.cfg.Logf("fleet: shard %s on %s failed: %v", t.id, w.Name, err)
		}
		tried[w.Name] = true
		lastErr = err
	}
	msg := "no live worker to route to"
	if lastErr != nil {
		msg = fmt.Sprintf("no worker answered after %d attempts: %v", co.cfg.MaxAttempts, lastErr)
	}
	return &sessiond.Response{OK: false, Code: sessiond.CodeNoWorkers, Error: msg}, false, false
}

// The per-worker transport circuit breaker: workerBreakerK consecutive
// transport failures (dial refused, connection severed, I/O deadline)
// take a worker out of routing for workerBreakerCooldown. A typed
// session failure is the pinball's fault, not the worker's, and is never
// charged here: one corrupt pinball must not take a healthy worker out
// of routing for everyone.
const (
	workerBreakerK        = 3
	workerBreakerCooldown = 5 * time.Second
)

// circuitOpen reports whether the worker's circuit is open (the router
// must skip it).
func (co *Coordinator) circuitOpen(name string) bool {
	open, _, _ := co.wbrk.Check(name)
	return open
}

// pick routes key to its best live worker, skipping already-tried
// workers and open circuits.
func (co *Coordinator) pick(key string, tried map[string]bool) (WorkerInfo, bool) {
	return co.reg.Route(key, func(name string) bool {
		return tried[name] || co.circuitOpen(name)
	})
}

// send performs one forward against one worker with a fresh connection
// and a per-request I/O deadline, charging transport failures (and only
// those) to the worker's circuit. The link is registered under the
// worker's name so a dead-worker sweep can sever it, and under t (when
// hedging) so the first response cancels it. A hedged attempt that
// fails after its task has its answer lost the race — the winner tore
// its connection down — and is not charged.
func (co *Coordinator) send(w WorkerInfo, req *sessiond.Request, t *task) (*sessiond.Response, error) {
	c, err := co.cfg.Dial(w.Addr, co.cfg.DialTimeout)
	if err != nil {
		co.wbrk.Failure(w.Name, "", "")
		return nil, err
	}
	co.trackLink(w.Name, c)
	defer co.untrackLink(w.Name, c)
	defer c.Close()
	var unhook func()
	if t != nil {
		unhook = t.onCancel(func() { c.Close() })
		defer unhook()
	}
	c.SetDeadline(time.Now().Add(co.cfg.RequestTimeout))
	resp, err := c.Do(req)
	if err != nil {
		if t == nil || !t.done.Load() {
			co.wbrk.Failure(w.Name, "", "")
		}
		return nil, err
	}
	co.wbrk.Success(w.Name)
	return resp, nil
}

func (co *Coordinator) trackLink(worker string, c *sessiond.Client) {
	co.tmu.Lock()
	set := co.links[worker]
	if set == nil {
		set = make(map[*sessiond.Client]struct{})
		co.links[worker] = set
	}
	set[c] = struct{}{}
	co.tmu.Unlock()
}

func (co *Coordinator) untrackLink(worker string, c *sessiond.Client) {
	co.tmu.Lock()
	if set := co.links[worker]; set != nil {
		delete(set, c)
		if len(set) == 0 {
			delete(co.links, worker)
		}
	}
	co.tmu.Unlock()
}

// severLinks closes every open connection to a dead worker; blocked
// forwards return transport errors immediately and fail over.
func (co *Coordinator) severLinks(worker string) {
	co.tmu.Lock()
	set := co.links[worker]
	delete(co.links, worker)
	co.tmu.Unlock()
	for c := range set {
		c.Close()
	}
}

// maxShardHops guards a shard chain against a state that stops making
// progress (it cannot happen — bounds strictly descend — but a wire-
// level bug must not become an infinite loop).
const maxShardHops = 1 << 20

// distributedSlice executes one slice query as a chain of slice_shard
// hops, each hedged across the fleet. The chain is sequential — hop N+1
// resumes from hop N's state — but different queries' chains interleave
// freely across workers, and within one hop the straggler hedge races
// two workers. The final hop's summary is bit-identity-checked against
// single-node runs via its digest.
func (co *Coordinator) distributedSlice(req *sessiond.Request, key string) sessiond.Response {
	var state json.RawMessage
	redispatched := false
	for hop := 0; hop < maxShardHops; hop++ {
		sreq := *req
		sreq.ID = ""
		sreq.Op = sessiond.OpSliceShard
		sreq.Proto = sessiond.ProtoCurrent
		sreq.State = state
		sreq.ShardWindows = co.cfg.ShardWindows
		resp, hopRedispatched := co.runShard(&sreq, key)
		redispatched = redispatched || hopRedispatched
		if !resp.OK {
			resp.ID = req.ID
			return resp
		}
		var sr sessiond.ShardResult
		if err := json.Unmarshal(resp.Result, &sr); err != nil {
			return sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeInternal,
				Error: "malformed shard result: " + err.Error()}
		}
		if sr.Done {
			code := resp.Code
			if redispatched {
				co.redispatches.Add(1)
				if code == "" {
					code = sessiond.CodeRedispatched
				}
			}
			return sessiond.Response{ID: req.ID, OK: true, Code: code, Report: resp.Report,
				Result: encode(sr.SliceResult())}
		}
		state = sr.State
	}
	return sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeInternal,
		Error: "shard chain exceeded hop limit"}
}

// runShard resolves one shard hop: push-dispatch to the rendezvous
// owner, offer to the steal queue if the push has not answered by the
// straggler deadline, first response wins. It reports whether the
// answer needed more than one dispatch.
func (co *Coordinator) runShard(sreq *sessiond.Request, key string) (sessiond.Response, bool) {
	t := newTask(strconv.FormatInt(co.taskSeq.Add(1), 10), sreq)
	co.tmu.Lock()
	co.tasks[t.id] = t
	co.tmu.Unlock()
	defer func() {
		co.tmu.Lock()
		delete(co.tasks, t.id)
		co.tmu.Unlock()
	}()

	go co.pushShard(t, key)

	hedge := time.NewTimer(co.cfg.HedgeAfter)
	defer hedge.Stop()
	select {
	case resp := <-t.respc:
		return *resp, t.dispatches.Load() > 1
	case <-hedge.C:
	}

	// Straggler: put the hop up for stealing so any idle worker can race
	// the push path. Execution is idempotent, so the duplicate is safe;
	// whichever answer lands first wins and cancels the other.
	co.queue.put(t)
	backstop := time.NewTimer(co.cfg.ShardDeadline)
	defer backstop.Stop()
	select {
	case resp := <-t.respc:
		return *resp, t.dispatches.Load() > 1
	case <-backstop.C:
		t.deliver(&sessiond.Response{OK: false, Code: sessiond.CodeTimeout,
			Error: "shard unanswered past the hedge backstop"})
		return *<-t.respc, t.dispatches.Load() > 1
	}
}

// pushShard is a hop's push path: the failover loop, delivering into
// the task so a stolen duplicate can win instead. If every push attempt
// fails on transport and the task was never offered for stealing, the
// push delivers the typed failure itself — nobody else will.
func (co *Coordinator) pushShard(t *task, key string) {
	resp, _, sent := co.failover(t.req, key, t)
	if !sent && t.offered.Load() {
		return // a stealer may still answer; the backstop bounds the wait
	}
	t.deliver(resp)
}

func (co *Coordinator) health(req *sessiond.Request) sessiond.Response {
	draining := co.draining.Load()
	status := "ok"
	if draining {
		status = "draining"
	}
	return sessiond.Response{ID: req.ID, OK: true, Result: encode(sessiond.HealthResult{
		Live:     true,
		Ready:    !draining && len(co.reg.Alive()) > 0,
		Status:   status,
		Active:   len(co.reg.Alive()),
		Queued:   co.queue.depth(),
		UptimeMS: time.Since(co.start).Milliseconds(),
	})}
}

// stats reuses the sessiond stats shape with fleet meanings: Active is
// live workers, Queued the steal-queue depth, BreakersOpen the open
// per-worker circuits, Rejected the re-dispatch count.
func (co *Coordinator) stats(req *sessiond.Request) sessiond.Response {
	return sessiond.Response{ID: req.ID, OK: true, Result: encode(sessiond.StatsResult{
		Received:     co.received.Load(),
		Accepted:     co.received.Load() - co.failed.Load(),
		Rejected:     co.redispatches.Load(),
		Completed:    co.completed.Load(),
		Failed:       co.failed.Load(),
		Active:       len(co.reg.Alive()),
		Queued:       co.queue.depth(),
		BreakersOpen: co.wbrk.OpenCount(),
	})}
}

// Shutdown drains the coordinator: stop admitting sessions (new ones
// get CodeDraining), wait for every in-flight response to flush, then
// close the listener and connections. In-flight routed sessions finish
// and deliver — a drain loses no accepted work.
func (co *Coordinator) Shutdown(deadline time.Duration) error {
	co.draining.Store(true)
	co.stopOnce.Do(func() { close(co.stop) })
	co.mu.Lock()
	if co.lis != nil {
		co.lis.Close()
	}
	co.mu.Unlock()

	expire := time.Now().Add(deadline)
	for co.inflight.Load() > 0 {
		if time.Now().After(expire) {
			co.cfg.Logf("fleet: drain deadline expired with %d requests in flight", co.inflight.Load())
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	co.mu.Lock()
	for c := range co.conns {
		c.Close()
	}
	co.mu.Unlock()
	done := make(chan struct{})
	go func() { co.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(deadline):
		return fmt.Errorf("fleet: connections did not close within drain deadline")
	}
}

// encode marshals a payload (mirror of sessiond's helper).
func encode(v any) json.RawMessage {
	data, err := json.Marshal(v)
	if err != nil {
		return json.RawMessage(`{}`)
	}
	return data
}
