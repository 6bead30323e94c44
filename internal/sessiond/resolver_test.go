package sessiond

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// fakeLocator ranks the same peers for every digest.
type fakeLocator []string

func (l fakeLocator) Locate(string) []string { return l }

// resolverFixture is one daemon with a store, optionally a peer daemon
// holding the fixture pinball, and a dial hook that counts the peer
// fetches the daemon's resolver makes and can hold them at a gate.
type resolverFixture struct {
	*daemonFixture
	data   []byte // the intact pinball's file bytes
	digest string
	st     *store.Store
	srv    *Server
	dials  atomic.Int64
	gate   chan struct{} // nil: dials proceed at once
}

// newResolverFixture opens an empty store for the daemon under test;
// withPeer starts a second daemon whose store holds the pinball and
// ranks it as the only peer.
func newResolverFixture(t *testing.T, withPeer bool, cfg Config) *resolverFixture {
	t.Helper()
	f := &resolverFixture{daemonFixture: makeDaemonFixture(t)}
	data, err := os.ReadFile(f.good)
	if err != nil {
		t.Fatal(err)
	}
	f.data, f.digest = data, store.Digest(data)
	if f.st, err = store.Open(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if withPeer {
		peerStore, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := peerStore.Put(data, store.PutMeta{}); err != nil {
			t.Fatal(err)
		}
		_, addr := startServer(t, Config{Store: peerStore})
		cfg.Locator = fakeLocator{addr}
	}
	cfg.Store = f.st
	cfg.Supervisor = fastSup()
	cfg.StoreRetry = StoreRetry{Base: time.Millisecond, Max: 2 * time.Millisecond}
	f.srv = New(cfg)
	f.srv.resolver.dial = func(addr string, d time.Duration) (*Client, error) {
		f.dials.Add(1)
		if f.gate != nil {
			<-f.gate
		}
		return DialTimeout(addr, d)
	}
	return f
}

// put stores the intact pinball in the daemon's own store.
func (f *resolverFixture) put(t *testing.T) {
	t.Helper()
	if _, err := f.st.Put(f.data, store.PutMeta{}); err != nil {
		t.Fatal(err)
	}
}

// replay runs a replay session on the fixture digest.
func (f *resolverFixture) replay(client string) Response {
	return f.srv.Execute(&Request{Op: OpReplay, File: f.src, Digest: f.digest}, client)
}

// chunkObjects returns the object paths of digest's chunks in file
// order, read from the store's manifest (last add wins).
func chunkObjects(t *testing.T, root, digest string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(root, "manifest.db"))
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, line := range strings.Split(string(raw), "\n") {
		var rec struct {
			Op    string       `json:"op"`
			Entry *store.Entry `json:"entry"`
		}
		if json.Unmarshal([]byte(line), &rec) != nil || rec.Op != "add" || rec.Entry.Digest != digest {
			continue
		}
		paths = paths[:0]
		for _, c := range rec.Entry.Chunks {
			paths = append(paths, filepath.Join(root, "objects", c.Digest[:2], c.Digest))
		}
	}
	if len(paths) == 0 {
		t.Fatalf("no manifest add record for %s", digest)
	}
	return paths
}

// flipByte damages one chunk object in place.
func flipByte(t *testing.T, path string) {
	t.Helper()
	obj, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	obj[len(obj)/2] ^= 0x20
	if err := os.WriteFile(path, obj, 0o644); err != nil {
		t.Fatal(err)
	}
}

// nextSecond sleeps until the wall clock enters its next whole second,
// the resolution of the store's touch times.
func nextSecond() {
	time.Sleep(time.Until(time.Now().Truncate(time.Second).Add(time.Second)))
}

func wantCode(t *testing.T, label string, resp Response, ok bool, code string) {
	t.Helper()
	if resp.OK != ok || resp.Code != code {
		t.Fatalf("%s: ok=%v code=%q (%s), want ok=%v code=%q", label, resp.OK, resp.Code, resp.Error, ok, code)
	}
}

// TestResolverLadder drives the digest resolve/heal ladder in process,
// one rung per case, with a fake peer locator and a counting dial.
func TestResolverLadder(t *testing.T) {
	t.Run("clean-hit", func(t *testing.T) {
		f := newResolverFixture(t, false, Config{})
		f.put(t)
		wantCode(t, "first", f.replay("c"), true, "")
		// A warm session leases the entry and opens the cached pinball:
		// no store read, no decode. In a later second than the entry's
		// last touch, its lease appends exactly one touch record; a
		// store read would append a second one.
		manifest := filepath.Join(f.st.Root(), "manifest.db")
		before, _ := os.ReadFile(manifest)
		cached, _ := f.srv.resolver.cache.Get(f.digest)
		nextSecond()
		wantCode(t, "warm", f.replay("c"), true, "")
		after, _ := os.ReadFile(manifest)
		if added := after[len(before):]; bytes.Count(added, []byte("\n")) != 1 ||
			!bytes.Contains(added, []byte(`"op":"touch","digest":"`+f.digest+`"`)) {
			t.Errorf("a warm session appended to the manifest:\n%s\nwant one touch of %s", added, f.digest)
		}
		if v, _ := f.srv.resolver.cache.Get(f.digest); v.pb == nil || v.pb != cached.pb {
			t.Error("a warm session replaced the cached pinball")
		}
		if _, err := os.Stat(filepath.Join(f.st.Root(), "spool")); !os.IsNotExist(err) {
			t.Errorf("store root has a spool directory (stat err %v)", err)
		}
		if n := f.dials.Load(); n != 0 {
			t.Errorf("%d peer dials for a local hit", n)
		}
	})

	t.Run("not-found-refetch", func(t *testing.T) {
		f := newResolverFixture(t, true, Config{})
		wantCode(t, "first", f.replay("c"), true, CodeHealed)
		wantCode(t, "second", f.replay("c"), true, "")
		if n := f.dials.Load(); n != 1 {
			t.Errorf("%d peer dials, want 1", n)
		}
		if _, err := f.st.Stat(f.digest); err != nil {
			t.Errorf("re-fetched entry not stored locally: %v", err)
		}
	})

	t.Run("corrupt-chunk-healed", func(t *testing.T) {
		f := newResolverFixture(t, true, Config{})
		f.put(t)
		flipByte(t, chunkObjects(t, f.st.Root(), f.digest)[0])
		wantCode(t, "damaged", f.replay("c"), true, CodeHealed)
		wantCode(t, "after heal", f.replay("c"), true, "")
		if _, err := f.st.Verify(); err != nil {
			t.Errorf("store not clean after heal: %v", err)
		}
	})

	t.Run("unhealable-salvaged-sticky", func(t *testing.T) {
		f := newResolverFixture(t, false, Config{})
		f.put(t)
		objs := chunkObjects(t, f.st.Root(), f.digest)
		flipByte(t, objs[len(objs)-1])
		for i := 0; i < 3; i++ {
			wantCode(t, fmt.Sprintf("request %d", i), f.replay("c"), true, CodeSalvaged)
		}
		resp := f.srv.Execute(&Request{Op: OpSlice, File: f.src, Digest: f.digest, Var: "counter", Workers: 2}, "c")
		wantCode(t, "slice", resp, true, CodeSalvaged)
	})

	t.Run("no-peer-unavailable", func(t *testing.T) {
		f := newResolverFixture(t, false, Config{})
		// More requests than the breaker's threshold: availability
		// failures never open the digest's circuit.
		for i := 0; i < 4; i++ {
			wantCode(t, fmt.Sprintf("request %d", i), f.replay("c"), false, CodeStoreUnavailable)
		}
	})

	t.Run("gc-collected-reresolved", func(t *testing.T) {
		f := newResolverFixture(t, true, Config{})
		f.put(t)
		wantCode(t, "first", f.replay("c"), true, "")
		rep, err := f.st.GC(store.GCPolicy{MaxBytes: 1})
		if err != nil || len(rep.Evicted) != 1 {
			t.Fatalf("gc: %+v, %v", rep, err)
		}
		// The entry is gone: the next session must not run on the
		// resolution cached before the GC, but re-fetch and re-store it.
		wantCode(t, "after gc", f.replay("c"), true, CodeHealed)
		if n := f.dials.Load(); n != 1 {
			t.Errorf("%d peer dials, want 1", n)
		}
		if _, err := f.st.Stat(f.digest); err != nil {
			t.Errorf("collected entry not re-stored: %v", err)
		}
	})

	t.Run("served-digest-survives-gc", func(t *testing.T) {
		// GC's KeepLast ranks entries by last touch, in whole seconds.
		// The served digest is put and resolved, another entry is put a
		// second later, and a second after that five warm sessions open
		// the served digest from the resolver cache: their leases alone
		// must mark it as used.
		f := newResolverFixture(t, false, Config{})
		f.put(t)
		wantCode(t, "first", f.replay("c"), true, "")
		nextSecond()
		torn, err := os.ReadFile(f.torn)
		if err != nil {
			t.Fatal(err)
		}
		idle, err := f.st.Put(torn, store.PutMeta{})
		if err != nil {
			t.Fatal(err)
		}
		nextSecond()
		for i := 0; i < 5; i++ {
			wantCode(t, fmt.Sprintf("warm %d", i), f.replay("c"), true, "")
		}
		rep, err := f.st.GC(store.GCPolicy{KeepLast: 1})
		if err != nil || len(rep.Evicted) != 1 || rep.Evicted[0] != idle.Digest {
			t.Fatalf("gc: %+v, %v; want only the idle entry %s evicted", rep, err, idle.Digest)
		}
		wantCode(t, "after gc", f.replay("c"), true, "")
	})

	t.Run("concurrent-first-requests-share-one-load", func(t *testing.T) {
		const n = 4
		f := newResolverFixture(t, true, Config{Admission: AdmissionConfig{MaxSessions: n}})
		f.gate = make(chan struct{})
		resps := make([]Response, n)
		var wg sync.WaitGroup
		for i := range resps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resps[i] = f.replay(fmt.Sprintf("c%d", i))
			}(i)
		}
		// Hold the one peer fetch until every session has missed the
		// cache (n lookups) and one has started the shared load (one more
		// miss); the rest join that load, not a later cache hit.
		deadline := time.Now().Add(10 * time.Second)
		for f.srv.resolver.cache.Stats().Misses < n+1 {
			if time.Now().After(deadline) {
				t.Fatalf("cache misses %d, want %d", f.srv.resolver.cache.Stats().Misses, n+1)
			}
			time.Sleep(time.Millisecond)
		}
		close(f.gate)
		wg.Wait()
		for i, resp := range resps {
			wantCode(t, fmt.Sprintf("request %d", i), resp, true, CodeHealed)
		}
		if d := f.dials.Load(); d != 1 {
			t.Errorf("%d peer dials for %d concurrent first requests, want 1", d, n)
		}
	})

	t.Run("wrong-program", func(t *testing.T) {
		f := newResolverFixture(t, false, Config{})
		f.put(t)
		resp := f.srv.Execute(&Request{Op: OpReplay, Workload: "blackscholes", Digest: f.digest}, "c")
		wantCode(t, "wrong program", resp, false, CodeInternal)
		if !strings.Contains(resp.Error, "was recorded from") {
			t.Errorf("error %q does not name the program mismatch", resp.Error)
		}
	})

	t.Run("undecodable-bytes", func(t *testing.T) {
		// Bytes that hash to their digest but do not decode: the stored
		// content itself is broken, so no peer can heal it.
		putTorn := func(t *testing.T, cfg Config) (*resolverFixture, string) {
			f := newResolverFixture(t, false, cfg)
			torn, err := os.ReadFile(f.torn)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.st.Put(torn, store.PutMeta{})
			if err != nil {
				t.Fatal(err)
			}
			return f, res.Digest
		}
		t.Run("corrupt-opens-circuit", func(t *testing.T) {
			f, digest := putTorn(t, Config{Breaker: BreakerConfig{K: 1}})
			req := &Request{Op: OpReplay, File: f.src, Digest: digest}
			wantCode(t, "first", f.srv.Execute(req, "c"), false, CodeCorrupt)
			wantCode(t, "second", f.srv.Execute(req, "c"), false, CodeCircuitOpen)
		})
		t.Run("salvage", func(t *testing.T) {
			f, digest := putTorn(t, Config{})
			for _, op := range []string{OpReplay, OpSlice} {
				byDigest := f.srv.Execute(&Request{Op: op, File: f.src, Digest: digest, Salvage: true, Var: "counter", Workers: 2}, "c")
				byPath := f.srv.Execute(&Request{Op: op, File: f.src, Pinball: f.torn, Salvage: true, Var: "counter", Workers: 2}, "c")
				wantCode(t, op+" by digest", byDigest, true, CodeSalvaged)
				wantCode(t, op+" by path", byPath, true, CodeSalvaged)
				if !bytes.Equal(byDigest.Result, byPath.Result) {
					t.Errorf("%s: salvaged answer by digest %s, by path %s", op, byDigest.Result, byPath.Result)
				}
			}
		})
	})
}

// TestResolverSharedPinballRace runs concurrent slice and replay
// sessions on one digest, so every session opens the same cached
// decoded pinball; under -race it proves sessions only read it.
func TestResolverSharedPinballRace(t *testing.T) {
	const n = 8
	f := newResolverFixture(t, false, Config{Admission: AdmissionConfig{MaxSessions: n}})
	f.put(t)
	resps := make([]Response, n)
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := &Request{Op: OpSlice, File: f.src, Digest: f.digest, Var: "counter", Workers: 2}
			if i%2 == 1 {
				req = &Request{Op: OpReplay, File: f.src, Digest: f.digest}
			}
			resps[i] = f.srv.Execute(req, fmt.Sprintf("c%d", i))
		}(i)
	}
	wg.Wait()
	var want SliceResult
	for i, resp := range resps {
		wantCode(t, fmt.Sprintf("session %d", i), resp, true, "")
		if i%2 == 1 {
			continue
		}
		var got SliceResult
		if err := json.Unmarshal(resp.Result, &got); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
		} else if got.Digest != want.Digest || got.Members != want.Members {
			t.Errorf("session %d slice %+v, session 0 %+v", i, got, want)
		}
	}
}
