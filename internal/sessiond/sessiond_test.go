package sessiond

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/store"
	"repro/internal/supervisor"
	"repro/internal/vm"

	drdebug "repro"
)

// daemonSrc is the recorded program the protocol tests run sessions
// against: a lock-guarded counter with read() input, so the pinball
// carries syscalls, order constraints and checkpoints, and "counter" is
// a sliceable global.
const daemonSrc = `
int counter;
int mtx;
int worker(int id) {
	int i;
	for (i = 0; i < 15; i++) {
		lock(&mtx);
		counter = counter + read();
		unlock(&mtx);
	}
	return 0;
}
int main() {
	int t = spawn(worker, 1);
	worker(0);
	join(t);
	write(counter);
	return 0;
}`

// daemonFixture lays out everything the daemon tests serve: the source
// file, an intact pinball, a salvageable torn journal and garbage files.
type daemonFixture struct {
	src      string
	good     string
	torn     string
	garbage  string
	garbage2 string
}

func makeDaemonFixture(t testing.TB) *daemonFixture {
	t.Helper()
	dir := t.TempDir()
	f := &daemonFixture{
		src:      filepath.Join(dir, "daemon.c"),
		good:     filepath.Join(dir, "good.pinball"),
		torn:     filepath.Join(dir, "torn.pinball"),
		garbage:  filepath.Join(dir, "garbage.pinball"),
		garbage2: filepath.Join(dir, "garbage2.pinball"),
	}
	if err := os.WriteFile(f.src, []byte(daemonSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := drdebug.CompileFile(f.src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	input := make([]int64, 64)
	for i := range input {
		input[i] = int64(i + 1)
	}
	cfg := pinplay.LogConfig{
		Seed: 7, MeanQuantum: 13, Input: input, CheckpointEvery: 8,
		JournalPath:   filepath.Join(dir, "daemon.journal"),
		JournalEvery:  64,
		JournalNoSync: true,
	}
	pb, err := pinplay.Log(prog, cfg, pinplay.RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	if err := pb.Save(f.good); err != nil {
		t.Fatal(err)
	}
	jdata, err := os.ReadFile(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := pinball.SectionOffsets(jdata)
	if err != nil || len(secs) < 3 {
		t.Fatalf("journal sections: %d, %v", len(secs), err)
	}
	if err := os.WriteFile(f.torn, jdata[:secs[len(secs)-1].Off], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f.garbage, []byte("not a pinball, not even close"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f.garbage2, []byte("a different kind of not-a-pinball"), 0o644); err != nil {
		t.Fatal(err)
	}
	return f
}

// startServer runs a server on a loopback listener and tears it down
// with the test.
func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, lis.Addr().String()
}

// testClient is a minimal line-JSON protocol client.
type testClient struct {
	t    testing.TB
	conn net.Conn
	enc  *json.Encoder
	sc   *bufio.Scanner
}

func dialT(t testing.TB, addr string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	return &testClient{t: t, conn: conn, enc: json.NewEncoder(conn), sc: sc}
}

// send fires a request without waiting for the answer.
func (c *testClient) send(req *Request) {
	c.t.Helper()
	if err := c.enc.Encode(req); err != nil {
		c.t.Fatalf("send: %v", err)
	}
}

// recv reads the next response.
func (c *testClient) recv() *Response {
	c.t.Helper()
	if !c.sc.Scan() {
		c.t.Fatalf("connection closed, scanner err: %v", c.sc.Err())
	}
	var resp Response
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		c.t.Fatalf("bad response %q: %v", c.sc.Text(), err)
	}
	return &resp
}

func (c *testClient) do(req *Request) *Response {
	c.t.Helper()
	c.send(req)
	return c.recv()
}

// fastSup is a retry policy quick enough for tests.
func fastSup() supervisor.Options {
	return supervisor.Options{MaxAttempts: 2, Backoff: time.Millisecond, BackoffMax: 5 * time.Millisecond}
}

func TestHealthAndStats(t *testing.T) {
	f := makeDaemonFixture(t)
	_, addr := startServer(t, Config{Supervisor: fastSup()})
	c := dialT(t, addr)

	resp := c.do(&Request{ID: "h1", Op: OpHealth})
	if !resp.OK || resp.ID != "h1" {
		t.Fatalf("health: %+v", resp)
	}
	var h HealthResult
	if err := json.Unmarshal(resp.Result, &h); err != nil {
		t.Fatal(err)
	}
	if !h.Live || !h.Ready || h.Status != "ok" || h.Active != 0 {
		t.Fatalf("health payload: %+v", h)
	}

	// One real session, then the counters must reflect it.
	if resp := c.do(&Request{Op: OpReplay, File: f.src, Pinball: f.good}); !resp.OK {
		t.Fatalf("replay: %+v", resp)
	}
	var s StatsResult
	resp = c.do(&Request{Op: OpStats})
	if err := json.Unmarshal(resp.Result, &s); err != nil {
		t.Fatal(err)
	}
	if s.Accepted != 1 || s.Completed != 1 || s.Failed != 0 {
		t.Fatalf("stats after one replay: %+v", s)
	}
}

// TestWarmSliceCountsOneEngineHit: slicing one pinball twice through the
// parallel engine counts one engine-cache miss, then one hit, in the
// stats payload, and both requests answer alike.
func TestWarmSliceCountsOneEngineHit(t *testing.T) {
	slice.ResetEngineCache()
	defer slice.ResetEngineCache()
	f := makeDaemonFixture(t)
	_, addr := startServer(t, Config{Supervisor: fastSup()})
	c := dialT(t, addr)

	var answers [2]SliceResult
	for i, want := range [2][2]int64{{0, 1}, {1, 1}} {
		resp := c.do(&Request{Op: OpSlice, File: f.src, Pinball: f.good, Var: "counter", Workers: 2})
		if !resp.OK {
			t.Fatalf("slice %d: %+v", i, resp)
		}
		if err := json.Unmarshal(resp.Result, &answers[i]); err != nil {
			t.Fatal(err)
		}
		var st StatsResult
		if err := json.Unmarshal(c.do(&Request{Op: OpStats}).Result, &st); err != nil {
			t.Fatal(err)
		}
		if got := [2]int64{st.EngineHits, st.EngineMisses}; got != want {
			t.Fatalf("after slice %d: engine cache hits, misses = %v, want %v", i, got, want)
		}
	}
	if answers[0] != answers[1] {
		t.Fatalf("warm slice answered %+v, cold %+v", answers[1], answers[0])
	}
}

func TestReplaySliceDualSliceOverTCP(t *testing.T) {
	f := makeDaemonFixture(t)
	_, addr := startServer(t, Config{Supervisor: fastSup()})
	c := dialT(t, addr)

	resp := c.do(&Request{ID: "r", Op: OpReplay, File: f.src, Pinball: f.good})
	if !resp.OK || resp.Code != "" {
		t.Fatalf("replay: %+v", resp)
	}
	var rr ReplayResult
	if err := json.Unmarshal(resp.Result, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Executed == 0 || rr.Checked == 0 || rr.Degraded {
		t.Fatalf("replay payload: %+v", rr)
	}

	resp = c.do(&Request{ID: "s", Op: OpSlice, File: f.src, Pinball: f.good, Var: "counter", Workers: 2})
	if !resp.OK {
		t.Fatalf("slice: %+v", resp)
	}
	var sr SliceResult
	if err := json.Unmarshal(resp.Result, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Members == 0 || sr.TraceLen == 0 {
		t.Fatalf("slice payload: %+v", sr)
	}

	resp = c.do(&Request{ID: "d", Op: OpDualSlice, File: f.src,
		Pinball: f.good, PassingPinball: f.good, Var: "counter"})
	if !resp.OK {
		t.Fatalf("dualslice: %+v", resp)
	}
	var dr DualSliceResult
	if err := json.Unmarshal(resp.Result, &dr); err != nil {
		t.Fatal(err)
	}
	// Identical runs must agree perfectly.
	if dr.OnlyFailing != 0 || dr.OnlyPassing != 0 || dr.Common == 0 {
		t.Fatalf("dualslice payload: %+v", dr)
	}

	// A salvaged pinball answers, annotated.
	resp = c.do(&Request{Op: OpReplay, File: f.src, Pinball: f.torn, Salvage: true})
	if !resp.OK || resp.Code != CodeSalvaged {
		t.Fatalf("salvaged replay: %+v", resp)
	}
}

func TestTypedRejections(t *testing.T) {
	f := makeDaemonFixture(t)
	_, addr := startServer(t, Config{
		Supervisor: fastSup(),
		Quota:      QuotaConfig{MaxBudget: 1 << 20},
	})
	c := dialT(t, addr)

	for _, tc := range []struct {
		name string
		req  *Request
		code string
	}{
		{"unknown-op", &Request{Op: "explode"}, CodeBadRequest},
		{"no-program", &Request{Op: OpReplay, Pinball: f.good}, CodeBadRequest},
		{"no-pinball", &Request{Op: OpReplay, File: f.src}, CodeBadRequest},
		{"quota-budget", &Request{Op: OpReplay, File: f.src, Pinball: f.good, Budget: 2 << 20}, CodeQuota},
		{"corrupt", &Request{Op: OpReplay, File: f.src, Pinball: f.garbage}, CodeCorrupt},
		{"corrupt-salvage", &Request{Op: OpReplay, File: f.src, Pinball: f.garbage, Salvage: true}, CodeCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := c.do(tc.req)
			if resp.OK || resp.Code != tc.code {
				t.Fatalf("%s: got ok=%v code=%q err=%q, want %s",
					tc.name, resp.OK, resp.Code, resp.Error, tc.code)
			}
		})
	}

	// A malformed line gets a typed answer too, and the connection
	// stays usable.
	if _, err := c.conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	if resp := c.recv(); resp.OK || resp.Code != CodeBadRequest {
		t.Fatalf("malformed line: %+v", resp)
	}
	if resp := c.do(&Request{Op: OpHealth}); !resp.OK {
		t.Fatalf("connection unusable after bad line: %+v", resp)
	}
}

// stallChaos injects a test-released stall into the first replay session
// and nothing into later ones. stalled closes once that session is
// blocked inside its replay: waiting on it, rather than on admission,
// guarantees the stall went to the request the test sent first. The
// returned unstall is idempotent and safe to both defer and call inline.
func stallChaos() (chaos func(op string) vm.Tracer, stalled <-chan struct{}, unstall func()) {
	release, blocked := make(chan struct{}), make(chan struct{})
	var used, closed atomic.Bool
	chaos = func(op string) vm.Tracer {
		if used.CompareAndSwap(false, true) {
			return &faultinject.StallTracer{After: 20, Release: release, Stalled: blocked}
		}
		return nil
	}
	unstall = func() {
		if closed.CompareAndSwap(false, true) {
			close(release)
		}
	}
	return chaos, blocked, unstall
}

// waitStalled waits for the stalled session of stallChaos.
func waitStalled(t *testing.T, stalled <-chan struct{}) {
	t.Helper()
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("the first session never reached its stall")
	}
}

func TestOverloadSheds(t *testing.T) {
	f := makeDaemonFixture(t)
	chaos, stalled, unstall := stallChaos()
	defer unstall()
	_, addr := startServer(t, Config{
		Supervisor: fastSup(),
		Admission:  AdmissionConfig{MaxSessions: 1, MaxQueue: -1}, // no queue
		Chaos:      chaos,
	})

	// Occupy the only slot with a stalled replay.
	c1 := dialT(t, addr)
	c1.send(&Request{ID: "slow", Op: OpReplay, File: f.src, Pinball: f.good})
	waitStalled(t, stalled)

	// Pool full, queue length 0: the next session is shed, typed.
	c2 := dialT(t, addr)
	resp := c2.do(&Request{ID: "shed", Op: OpReplay, File: f.src, Pinball: f.good})
	if resp.OK || resp.Code != CodeOverload {
		t.Fatalf("expected overload, got %+v", resp)
	}

	// Health still answers while the pool is saturated (never queued).
	if resp := c2.do(&Request{Op: OpHealth}); !resp.OK {
		t.Fatalf("health under load: %+v", resp)
	}

	// Releasing the stall completes the slow session normally.
	unstall()
	if resp := c1.recv(); !resp.OK || resp.ID != "slow" {
		t.Fatalf("slow session: %+v", resp)
	}
}

func TestPerClientCap(t *testing.T) {
	f := makeDaemonFixture(t)
	chaos, stalled, unstall := stallChaos()
	defer unstall()
	_, addr := startServer(t, Config{
		Supervisor: fastSup(),
		Admission:  AdmissionConfig{MaxSessions: 4, MaxQueue: 16, MaxPerClient: 1},
		Chaos:      chaos,
	})

	c1 := dialT(t, addr)
	c1.send(&Request{ID: "first", Op: OpReplay, Client: "alice", File: f.src, Pinball: f.good})
	waitStalled(t, stalled)

	// Pool has room, but alice is at her cap.
	c2 := dialT(t, addr)
	resp := c2.do(&Request{ID: "second", Op: OpReplay, Client: "alice", File: f.src, Pinball: f.good})
	if resp.OK || resp.Code != CodeOverload {
		t.Fatalf("expected per-client overload, got %+v", resp)
	}

	// A different client sails through.
	resp = c2.do(&Request{Op: OpReplay, Client: "bob", File: f.src, Pinball: f.good})
	if !resp.OK {
		t.Fatalf("bob blocked: %+v", resp)
	}
}

func TestCircuitBreaker(t *testing.T) {
	f := makeDaemonFixture(t)
	srv, addr := startServer(t, Config{
		Supervisor: fastSup(),
		Breaker:    BreakerConfig{K: 2, Cooldown: time.Hour},
	})
	c := dialT(t, addr)

	bad := &Request{Op: OpReplay, File: f.src, Pinball: f.garbage}
	for i := 0; i < 2; i++ {
		if resp := c.do(bad); resp.Code != CodeCorrupt {
			t.Fatalf("attempt %d: %+v", i, resp)
		}
	}
	// K failures recorded: the circuit is open and fails fast with the
	// cached diagnosis.
	resp := c.do(bad)
	if resp.OK || resp.Code != CodeCircuitOpen {
		t.Fatalf("expected circuit_open, got %+v", resp)
	}
	if resp.Error == "" {
		t.Fatal("circuit_open response carries no cached failure")
	}
	if n := srv.brk.OpenCount(); n != 1 {
		t.Fatalf("openCount = %d, want 1", n)
	}

	// Other pinballs are unaffected.
	if resp := c.do(&Request{Op: OpReplay, File: f.src, Pinball: f.good}); !resp.OK {
		t.Fatalf("good pinball tripped by unrelated breaker: %+v", resp)
	}

	// Same content under a different path shares the circuit.
	copied := filepath.Join(t.TempDir(), "copy.pinball")
	data, _ := os.ReadFile(f.garbage)
	if err := os.WriteFile(copied, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if resp := c.do(&Request{Op: OpReplay, File: f.src, Pinball: copied}); resp.Code != CodeCircuitOpen {
		t.Fatalf("copied corrupt content not short-circuited: %+v", resp)
	}
}

func TestBreakerCooldownAndReset(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(BreakerConfig{K: 2, Cooldown: time.Minute}, clock)

	b.Failure("pb", CodeCorrupt, "bad header")
	if open, _, _ := b.Check("pb"); open {
		t.Fatal("open before K failures")
	}
	b.Failure("pb", CodeCorrupt, "bad header")
	open, code, msg := b.Check("pb")
	if !open || code != CodeCorrupt || msg != "bad header" {
		t.Fatalf("after K failures: open=%v code=%q msg=%q", open, code, msg)
	}

	// Cooldown expiry lets a trial through...
	now = now.Add(2 * time.Minute)
	if open, _, _ := b.Check("pb"); open {
		t.Fatal("still open after cooldown")
	}
	// ...and one more failure re-opens immediately (count retained).
	b.Failure("pb", CodeDivergence, "window 3")
	if open, code, _ := b.Check("pb"); !open || code != CodeDivergence {
		t.Fatalf("trial failure did not re-open: open=%v code=%q", open, code)
	}

	// Success closes for good.
	b.Success("pb")
	if open, _, _ := b.Check("pb"); open {
		t.Fatal("open after success")
	}
	if n := b.OpenCount(); n != 0 {
		t.Fatalf("openCount = %d, want 0", n)
	}
}

// TestContentKeyPathMatchesDigest: naming a pinball by path or by its
// store digest yields one content key, so both share one circuit and
// one rendezvous owner.
func TestContentKeyPathMatchesDigest(t *testing.T) {
	f := makeDaemonFixture(t)
	data, err := os.ReadFile(f.good)
	if err != nil {
		t.Fatal(err)
	}
	byPath := &Request{Op: OpSlice, File: f.src, Pinball: f.good}
	byDigest := &Request{Op: OpSlice, File: f.src, Digest: store.Digest(data)}
	if p, d := RouteKey(byPath), RouteKey(byDigest); p != d {
		t.Errorf("RouteKey by path %q, by digest %q", p, d)
	}
	if p, d := breakerKey(byPath), breakerKey(byDigest); p != d || p == "" {
		t.Errorf("breakerKey by path %q, by digest %q", p, d)
	}
}

func TestGracefulDrain(t *testing.T) {
	f := makeDaemonFixture(t)
	chaos, stalled, unstall := stallChaos()
	defer unstall()
	srv, addr := startServer(t, Config{
		Supervisor:   fastSup(),
		DrainTimeout: 10 * time.Second,
		Chaos:        chaos,
	})

	// One session in flight, stalled under test control.
	c1 := dialT(t, addr)
	c1.send(&Request{ID: "inflight", Op: OpReplay, File: f.src, Pinball: f.good})
	waitStalled(t, stalled)

	// A second connection opened (and accepted — the probe proves it)
	// before the drain begins.
	c2 := dialT(t, addr)
	if resp := c2.do(&Request{Op: OpHealth}); !resp.OK {
		t.Fatalf("pre-drain health: %+v", resp)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Once draining, new sessions are refused with a typed code but
	// health keeps answering (readiness goes false).
	var h HealthResult
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := c2.do(&Request{Op: OpHealth})
		if err := json.Unmarshal(resp.Result, &h); err != nil {
			t.Fatal(err)
		}
		if !h.Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h.Status != "draining" {
		t.Fatalf("health while draining: %+v", h)
	}
	if resp := c2.do(&Request{Op: OpReplay, File: f.src, Pinball: f.good}); resp.OK || resp.Code != CodeDraining {
		t.Fatalf("expected draining rejection, got %+v", resp)
	}

	// The in-flight session finishes inside the drain window and its
	// result is delivered — drain loses nothing.
	unstall()
	if resp := c1.recv(); !resp.OK || resp.ID != "inflight" {
		t.Fatalf("in-flight result lost in drain: %+v", resp)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	f := makeDaemonFixture(t)
	chaos, stalled, unstall := stallChaos()
	defer unstall()
	srv, addr := startServer(t, Config{
		Supervisor:   fastSup(),
		DrainTimeout: 50 * time.Millisecond,
		Quota:        QuotaConfig{DefaultDeadline: 200 * time.Millisecond},
		Chaos:        chaos,
	})

	// The stalled session will not finish by itself: the tracer blocks
	// until `release` closes, which this test never does before drain.
	c1 := dialT(t, addr)
	c1.send(&Request{ID: "straggler", Op: OpReplay, File: f.src, Pinball: f.good})
	waitStalled(t, stalled)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	start := time.Now()
	err := srv.Shutdown(ctx)
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The watchdog (quota deadline + 2s) preempts the stalled attempt
	// after the 50ms drain window triggers the hard cancel; well under
	// the 15s budget either way.
	if elapsed := time.Since(start); elapsed > 12*time.Second {
		t.Fatalf("drain took %v", elapsed)
	}
	// The straggler still got a typed response before its connection
	// closed.
	resp := c1.recv()
	if resp.OK {
		t.Fatalf("cancelled straggler reported success: %+v", resp)
	}
	if resp.Code == "" {
		t.Fatalf("straggler response untyped: %+v", resp)
	}
}

func TestAdmissionFIFOAndAbandon(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxSessions: 1, MaxQueue: 4})
	if err := a.acquire(nil, "a"); err != nil {
		t.Fatal(err)
	}

	got := make(chan int, 2)
	for i := 1; i <= 2; i++ {
		i := i
		ready := make(chan struct{})
		go func() {
			close(ready)
			if err := a.acquire(nil, fmt.Sprintf("w%d", i)); err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			got <- i
		}()
		<-ready
		// Wait until the waiter is actually queued so FIFO order is
		// deterministic.
		for {
			if _, q := a.load(); q >= i {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	// A cancelled waiter leaves the queue without leaking its slot.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.acquire(ctx, "cancelled"); err != context.Canceled {
		t.Fatalf("cancelled acquire: %v", err)
	}

	a.release("a")
	if first := <-got; first != 1 {
		t.Fatalf("FIFO violated: waiter %d ran first", first)
	}
	a.release("w1")
	if second := <-got; second != 2 {
		t.Fatalf("FIFO violated: waiter %d ran second", second)
	}
	a.release("w2")
	if r, q := a.load(); r != 0 || q != 0 {
		t.Fatalf("not idle after releases: running=%d queued=%d", r, q)
	}
}
