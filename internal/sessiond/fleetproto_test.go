package sessiond

import (
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/slice"
)

// TestStatsJSONShape pins the stats payload's wire shape — the fields a
// fleet operator's tooling greps for. The admission gauges must always
// be present (not omitempty), and after a pinball failure the breakers
// array must carry the per-pinball state including the cooldown
// deadline once the circuit opens.
func TestStatsJSONShape(t *testing.T) {
	f := makeDaemonFixture(t)
	_, addr := startServer(t, Config{
		Supervisor: fastSup(),
		Breaker:    BreakerConfig{K: 1, Cooldown: time.Minute},
	})
	c := dialT(t, addr)

	// One corrupt-pinball failure opens the K=1 circuit.
	if resp := c.do(&Request{Op: OpReplay, File: f.src, Pinball: f.garbage}); resp.OK || resp.Code != CodeCorrupt {
		t.Fatalf("garbage pinball: %+v", resp)
	}

	resp := c.do(&Request{Op: OpStats})
	if !resp.OK {
		t.Fatalf("stats: %+v", resp)
	}
	var shape map[string]any
	if err := json.Unmarshal(resp.Result, &shape); err != nil {
		t.Fatalf("stats payload: %v", err)
	}
	for _, key := range []string{"received", "accepted", "rejected", "completed", "failed",
		"active", "queued", "breakers_open", "breakers",
		"engine_cache_entries", "engine_cache_cap", "engine_cache_hits", "engine_cache_misses", "graph_cache_entries", "graph_cache_cap"} {
		if _, ok := shape[key]; !ok {
			t.Fatalf("stats JSON missing %q: %s", key, resp.Result)
		}
	}
	brks, ok := shape["breakers"].([]any)
	if !ok || len(brks) != 1 {
		t.Fatalf("breakers shape: %v", shape["breakers"])
	}
	brk, ok := brks[0].(map[string]any)
	if !ok {
		t.Fatalf("breaker entry shape: %v", brks[0])
	}
	for _, key := range []string{"pinball", "open", "consecutive", "last_code", "cooldown_until_ms"} {
		if _, ok := brk[key]; !ok {
			t.Fatalf("breaker entry missing %q: %v", key, brk)
		}
	}
	if brk["open"] != true || brk["last_code"] != CodeCorrupt {
		t.Fatalf("breaker entry: %v", brk)
	}
	if ms, ok := brk["cooldown_until_ms"].(float64); !ok || ms <= 0 {
		t.Fatalf("cooldown deadline: %v", brk["cooldown_until_ms"])
	}

	// The typed view must agree with the raw shape.
	var st StatsResult
	if err := json.Unmarshal(resp.Result, &st); err != nil {
		t.Fatal(err)
	}
	if st.BreakersOpen != 1 || len(st.Breakers) != 1 || !st.Breakers[0].Open {
		t.Fatalf("typed stats: %+v", st)
	}
	if st.Breakers[0].Consecutive != 1 || st.Breakers[0].CooldownUntilMS == 0 {
		t.Fatalf("breaker state: %+v", st.Breakers[0])
	}
}

// TestSliceShardOverTCP chains slice_shard requests across the wire —
// the round trip every fleet hop makes — and checks the final digest
// against the whole-slice op's on the same server.
func TestSliceShardOverTCP(t *testing.T) {
	f := makeDaemonFixture(t)
	_, addr := startServer(t, Config{Supervisor: fastSup()})
	c := dialT(t, addr)

	whole := c.do(&Request{Op: OpSlice, File: f.src, Pinball: f.good, Var: "counter", Workers: 2})
	if !whole.OK {
		t.Fatalf("whole slice: %+v", whole)
	}
	var want SliceResult
	if err := json.Unmarshal(whole.Result, &want); err != nil {
		t.Fatal(err)
	}
	if want.Digest == "" {
		t.Fatalf("whole slice carries no digest: %+v", want)
	}

	// Fleet ops are gated on the protocol version.
	if resp := c.do(&Request{Op: OpSliceShard, File: f.src, Pinball: f.good, Var: "counter"}); resp.OK || resp.Code != CodeBadRequest {
		t.Fatalf("v1 slice_shard not rejected: %+v", resp)
	}

	var state json.RawMessage
	var got ShardResult
	for hop := 0; ; hop++ {
		if hop > 100 {
			t.Fatal("shard chain did not converge")
		}
		resp := c.do(&Request{
			Op: OpSliceShard, Proto: ProtoV2,
			File: f.src, Pinball: f.good, Var: "counter",
			Workers: 2, ShardWindows: 1, State: state,
		})
		if !resp.OK {
			t.Fatalf("hop %d: %+v", hop, resp)
		}
		if err := json.Unmarshal(resp.Result, &got); err != nil {
			t.Fatal(err)
		}
		if got.Done {
			break
		}
		state = got.State
	}
	if got.Digest != want.Digest || got.Members != want.Members ||
		int(got.Deps) != want.Deps || got.TraceLen != want.TraceLen {
		t.Fatalf("sharded result %+v != whole-slice %+v", got, want)
	}
}

// TestSliceShardRejectsMalformedState sends a shard state carrying an
// event position far outside the trace. The daemon must answer
// bad_request after one attempt, not panic and retry into internal, and
// keep serving the well-formed state.
func TestSliceShardRejectsMalformedState(t *testing.T) {
	f := makeDaemonFixture(t)
	var retries atomic.Int32
	sup := fastSup()
	sup.OnRetry = func(int, error) { retries.Add(1) }
	_, addr := startServer(t, Config{Supervisor: sup})
	c := dialT(t, addr)

	hop := func(state json.RawMessage) *Response {
		return c.do(&Request{
			Op: OpSliceShard, Proto: ProtoV2,
			File: f.src, Pinball: f.good, Var: "counter",
			Workers: 2, ShardWindows: 1, State: state,
		})
	}
	first := hop(nil)
	var sr ShardResult
	if !first.OK || json.Unmarshal(first.Result, &sr) != nil || sr.Done {
		t.Fatalf("first hop did not suspend: %+v", first)
	}
	var st slice.QueryState
	if err := json.Unmarshal(sr.State, &st); err != nil {
		t.Fatal(err)
	}
	st.Events = append(st.Events, 1<<30)
	bad, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	if resp := hop(bad); resp.OK || resp.Code != CodeBadRequest {
		t.Fatalf("malformed state: %+v, want %s", resp, CodeBadRequest)
	}
	if n := retries.Load(); n != 0 {
		t.Fatalf("malformed state retried %d times", n)
	}
	if resp := hop(sr.State); !resp.OK {
		t.Fatalf("well-formed state after the rejection: %+v", resp)
	}
}
