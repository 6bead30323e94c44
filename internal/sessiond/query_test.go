package sessiond

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	drdebug "repro"
	"repro/internal/core"
	"repro/internal/pinplay"
	"repro/internal/slice"
)

// querySrc is a racy counter whose region ends in a failing assert, so
// one recording answers all three criterion kinds: a global variable, a
// source line, and the recorded failure point.
const querySrc = `
int counter;
int mtx;
int flag;
int worker(int id) {
	int i;
	for (i = 0; i < 40; i++) {
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
	flag = counter;
	write(flag);
	assert(counter == 0);
	return 0;
}`

// lineOf returns the 1-based source line of the first line containing s.
func lineOf(t *testing.T, src, s string) int {
	t.Helper()
	for i, l := range strings.Split(src, "\n") {
		if strings.Contains(l, s) {
			return i + 1
		}
	}
	t.Fatalf("%q not in source", s)
	return 0
}

// queryFixture records querySrc twice — in full, and in flight-recorder
// mode with a ring budget tight enough to evict windows — and saves
// both pinballs.
func queryFixture(t *testing.T) (prog *drdebug.Program, src string, pinballs map[string]string) {
	t.Helper()
	dir := t.TempDir()
	src = filepath.Join(dir, "query.c")
	if err := os.WriteFile(src, []byte(querySrc), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := drdebug.CompileFile(src)
	if err != nil {
		t.Fatal(err)
	}
	input := make([]int64, 100)
	for i := range input {
		input[i] = int64(i + 1)
	}
	pinballs = map[string]string{}
	for _, kind := range []string{"full", "ring"} {
		cfg := pinplay.LogConfig{Seed: 9, MeanQuantum: 17, RandSeed: 3, Input: input, CheckpointEvery: 64}
		if kind == "ring" {
			cfg.RingBytes, cfg.JournalEvery = 400, 200
		}
		pb, err := pinplay.Log(prog, cfg, pinplay.RegionSpec{})
		if err != nil {
			t.Fatalf("%s log: %v", kind, err)
		}
		if pb.Failure == nil {
			t.Fatalf("%s recording captured no failure", kind)
		}
		if pb.Gapped() != (kind == "ring") {
			t.Fatalf("%s recording: gapped = %v", kind, pb.Gapped())
		}
		pinballs[kind] = filepath.Join(dir, kind+".pinball")
		if err := pb.Save(pinballs[kind]); err != nil {
			t.Fatal(err)
		}
	}
	return prog, src, pinballs
}

// TestDaemonSliceMatchesInProcessAndOracle: for a variable, a line and
// the failure criterion, on a full and a gapped ring pinball, the
// daemon's slice answer equals slice.Summarize of the in-process
// session's slice and the sequential oracle's digest, and its
// provenance is the in-process slice's member breakdown.
func TestDaemonSliceMatchesInProcessAndOracle(t *testing.T) {
	prog, src, pinballs := queryFixture(t)
	srv := New(Config{Supervisor: fastSup()})
	line := lineOf(t, querySrc, "write(flag)")

	for _, kind := range []string{"full", "ring"} {
		for _, tc := range []struct {
			name  string
			req   Request
			slice func(*core.Session) (*slice.Slice, error)
		}{
			{"var", Request{Var: "counter"}, func(s *core.Session) (*slice.Slice, error) { return s.SliceForVariable("counter") }},
			{"line", Request{Line: line}, func(s *core.Session) (*slice.Slice, error) { return s.SliceAtLine(0, int32(line), 1) }},
			{"failure", Request{}, func(s *core.Session) (*slice.Slice, error) { return s.SliceAtFailure() }},
		} {
			label := kind + "/" + tc.name
			req := tc.req
			req.Op, req.File, req.Pinball, req.Workers = OpSlice, src, pinballs[kind], 2
			resp := srv.Execute(&req, "t")
			if !resp.OK {
				t.Fatalf("%s: daemon slice: %+v", label, resp)
			}
			var got SliceResult
			if err := json.Unmarshal(resp.Result, &got); err != nil {
				t.Fatal(err)
			}

			sess, err := core.LoadSession(prog, pinballs[kind])
			if err != nil {
				t.Fatal(err)
			}
			sl, err := tc.slice(sess)
			if err != nil {
				t.Fatalf("%s: in-process slice: %v", label, err)
			}
			want := slice.Summarize(sl)
			if got.Digest != want.Digest || got.Members != want.Members || got.TraceLen != want.TraceLen ||
				int64(got.Deps) != want.Deps || int64(got.PrunedBypasses) != want.PrunedBypasses {
				t.Fatalf("%s: daemon %+v != in-process %+v", label, got, want)
			}
			if want.Members < 2 {
				t.Fatalf("%s: trivial slice (%d members) exercises nothing", label, want.Members)
			}

			tr, err := sess.Trace()
			if err != nil {
				t.Fatal(err)
			}
			seq, err := slice.New(prog, tr, slice.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := seq.Slice(sl.Criterion)
			if err != nil {
				t.Fatalf("%s: sequential oracle: %v", label, err)
			}
			if d := slice.Summarize(oracle).Digest; got.Digest != d {
				t.Fatalf("%s: daemon digest %s != sequential oracle %s", label, got.Digest, d)
			}

			if (got.Prov != nil) != (kind == "ring") || (sl.Prov != nil) != (kind == "ring") {
				t.Fatalf("%s: provenance daemon %+v, in-process %+v", label, got.Prov, sl.Prov)
			}
			if p := got.Prov; p != nil {
				if p.ExactMembers != sl.Prov.ExactMembers || p.BridgedMembers != sl.Prov.BridgedMembers ||
					p.EstimatedMembers != sl.Prov.EstimatedMembers {
					t.Fatalf("%s: daemon provenance %v, in-process members %v", label, p, sl.Prov)
				}
				if p.ExactEdges != 0 || p.BridgedEdges != 0 || p.EstimatedEdges != 0 {
					t.Fatalf("%s: member-level provenance carries edge counts: %v", label, p)
				}
			}
		}
	}
}

// TestDaemonSliceRejectsBadCriterionWithoutReplay: a criterion that does
// not resolve is the request's fault. An unknown variable is answered
// bad_request before the daemon builds (or fetches) an engine, so it
// costs no replay, and no criterion rejection is retried.
func TestDaemonSliceRejectsBadCriterionWithoutReplay(t *testing.T) {
	slice.ResetEngineCache()
	defer slice.ResetEngineCache()
	_, src, pinballs := queryFixture(t)
	var retries atomic.Int32
	sup := fastSup()
	sup.OnRetry = func(int, error) { retries.Add(1) }
	srv := New(Config{Supervisor: sup})
	resp := srv.Execute(&Request{Op: OpSlice, File: src, Pinball: pinballs["full"], Var: "no_such_var"}, "t")
	if resp.OK || resp.Code != CodeBadRequest || !strings.Contains(resp.Error, "no_such_var") {
		t.Fatalf("unknown variable: %+v", resp)
	}
	if st := slice.GetEngineCacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("rejected criterion touched the engine cache: %+v", st)
	}
	// A line that never executed resolves only against the trace.
	resp = srv.Execute(&Request{Op: OpSlice, File: src, Pinball: pinballs["full"], Line: 1}, "t")
	if resp.OK || resp.Code != CodeBadRequest {
		t.Fatalf("unexecuted line: %+v", resp)
	}
	if n := retries.Load(); n != 0 {
		t.Fatalf("criterion rejections retried %d times", n)
	}
}
