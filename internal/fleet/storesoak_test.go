package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pinplay"
	"repro/internal/sessiond"
	"repro/internal/store"

	drdebug "repro"
)

// TestStoreChaosSoak is the content-addressed store's multi-process
// acceptance soak: a real drserved coordinator over three real workers,
// each backed by its own store root, with every client referencing the
// recording by digest only — no pinball paths cross the wire. Mid-run:
//
//   - one worker is SIGKILLed (taking its replica with it);
//   - a chunk object on a surviving replica is bit-flipped under load;
//   - GC runs concurrently against a live worker's store root.
//
// The invariants: every accepted request either completes correctly
// (healed replicas annotated, results digest-identical to a single-node
// daemon resolving the same digest) or fails typed — never a transport
// error, never silently wrong bytes; and GC reclaims only unpinned,
// unreferenced entries — the pinned decoy and the in-use digest survive.
//
// Scale: DRDEBUG_SOAK_REQS (make store-chaos) sets requests per client
// and raises the client count to 100.
func TestStoreChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process soak skipped in -short")
	}
	clients, reqsPerClient := 20, 2
	if s := os.Getenv("DRDEBUG_SOAK_REQS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad DRDEBUG_SOAK_REQS=%q", s)
		}
		clients, reqsPerClient = 100, n
	}

	f := makeFleetFixture(t)
	data, err := os.ReadFile(f.good)
	if err != nil {
		t.Fatal(err)
	}
	digest := store.Digest(data)

	// Single-node reference: the same digest resolved through a local
	// store by an in-process daemon.
	refStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refStore.Put(data, store.PutMeta{Kind: "soak"}); err != nil {
		t.Fatal(err)
	}
	refCfg := fastWorkerConfig()
	refCfg.Store = refStore
	ref := sessiond.New(refCfg)
	refResp := ref.Execute(&sessiond.Request{Op: sessiond.OpSlice, File: f.src, Digest: digest, Var: "counter", Workers: 2}, "ref")
	if !refResp.OK {
		t.Fatalf("single-node digest slice: %+v", refResp)
	}
	var want sessiond.SliceResult
	if err := json.Unmarshal(refResp.Result, &want); err != nil {
		t.Fatal(err)
	}

	// The fleet: coordinator + three workers, each with its own store.
	bin := buildDrserved(t)
	storeDir := t.TempDir()
	roots := [3]string{}
	for i := range roots {
		roots[i] = filepath.Join(storeDir, fmt.Sprintf("w%d", i+1))
	}
	coord, coordAddr := startDaemon(t, bin, "coordinator",
		"-coordinator", "-addr", "127.0.0.1:0",
		"-heartbeat-interval", "100ms", "-heartbeat-miss", "3",
		"-hedge-after", "500ms", "-shard-windows", "4",
		"-retries", "3", "-backoff", "5ms",
		"-drain-timeout", "10s")
	_ = coord
	var workers [3]*exec.Cmd
	var workerAddrs [3]string
	startWorker := func(i int) {
		workers[i], workerAddrs[i] = startDaemon(t, bin, fmt.Sprintf("w%d", i+1),
			"-addr", "127.0.0.1:0", "-join", coordAddr,
			"-worker-name", fmt.Sprintf("w%d", i+1),
			"-store", roots[i],
			"-max-sessions", "8", "-max-queue", "32")
	}
	for i := range workers {
		startWorker(i)
	}

	// Wait until all three workers registered, then seed the store
	// through the coordinator: the put lands on the digest's rendezvous
	// owner and is replicated to its successor (2 of 3 roots).
	probe, err := sessiond.Dial(coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	waitDeadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := probe.Do(&sessiond.Request{Op: sessiond.OpStats})
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		var st sessiond.StatsResult
		if json.Unmarshal(resp.Result, &st) == nil && st.Active == 3 {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("workers never registered: %+v", resp)
		}
		time.Sleep(20 * time.Millisecond)
	}
	putResp, err := probe.Do(&sessiond.Request{
		Op: sessiond.OpStorePut, Proto: sessiond.ProtoCurrent,
		Blob: data, StoreKind: "soak",
	})
	if err != nil || !putResp.OK {
		t.Fatalf("store put via coordinator: err=%v resp=%+v", err, putResp)
	}
	var put sessiond.StorePutResult
	if err := json.Unmarshal(putResp.Result, &put); err != nil {
		t.Fatal(err)
	}
	if put.Digest != digest {
		t.Fatalf("coordinator put digest %s, want %s", put.Digest, digest)
	}
	if len(put.Replicas) < 2 {
		t.Fatalf("put replicated to %v, want a primary and one successor", put.Replicas)
	}
	probe.Close()

	// GC bait on every root that holds a replica: an unpinned decoy
	// (must be reclaimed) and a pinned decoy (must survive any policy).
	// The store only accepts real pinballs, so both are recordings of
	// the same program under different seeds.
	decoy := recordSoakPinball(t, f.src, 8)
	pinnedBytes := recordSoakPinball(t, f.src, 9)
	var holders []int // worker indexes whose roots hold a replica
	var decoyDigest, pinnedDigest string
	for i, root := range roots {
		s, err := store.Open(root)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Stat(digest); err != nil {
			continue // not a replica holder
		}
		holders = append(holders, i)
		dres, err := s.Put(decoy, store.PutMeta{Kind: "decoy"})
		if err != nil {
			t.Fatal(err)
		}
		decoyDigest = dres.Digest
		pres, err := s.Put(pinnedBytes, store.PutMeta{Kind: "pinned"})
		if err != nil {
			t.Fatal(err)
		}
		pinnedDigest = pres.Digest
		if err := s.Pin(pres.Digest); err != nil {
			t.Fatal(err)
		}
	}
	if len(holders) != 2 {
		t.Fatalf("%d roots hold the digest, want 2 (primary + successor)", len(holders))
	}
	// The chaos cast: kill the worker without a replica (its shard work
	// redispatches), corrupt one live holder's replica under load (it
	// must heal from the other), and GC the remaining clean holder.
	killIdx := 3 - holders[0] - holders[1]
	corruptIdx, gcIdx := holders[0], holders[1]
	corruptRoot, gcRoot := roots[corruptIdx], roots[gcIdx]
	hotChunks := soakChunkObjects(t, corruptRoot, digest)

	// Touch times have second granularity: let the decoys age past one
	// tick so the soak's first validated read makes the hot digest
	// strictly the most recently used entry on every root.
	time.Sleep(1100 * time.Millisecond)

	var (
		transportErrs atomic.Int64
		sliceOK       atomic.Int64
		sliceBad      atomic.Int64
		healed        atomic.Int64
		degraded      atomic.Int64
		typedFailures atomic.Int64
		postChaosOK   atomic.Int64
	)
	chaosDone := make(chan struct{})
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := sessiond.DialTimeout(coordAddr, 10*time.Second)
			if err != nil {
				transportErrs.Add(1)
				return
			}
			defer c.Close()
			// At least reqsPerClient requests, and on until one has been
			// sent after the chaos, however fast the fleet answers.
			afterChaos := false
			for r := 0; r < reqsPerClient || !afterChaos; r++ {
				select {
				case <-chaosDone:
					afterChaos = true
				default:
				}
				// Digest-only sessions: no client ever names a pinball path.
				req := sessiond.Request{
					Op: sessiond.OpSlice, File: f.src, Digest: digest,
					Var: "counter", Workers: 2,
					Client: fmt.Sprintf("store-soak-%d", ci),
				}
				if (ci+r)%4 == 3 {
					// Replays route whole to the digest's rendezvous worker,
					// so store annotations (healed/salvaged) reach the client
					// unmerged.
					req = sessiond.Request{
						Op: sessiond.OpReplay, File: f.src, Digest: digest,
						Client: req.Client,
					}
				}
				var resp *sessiond.Response
				for attempt := 0; attempt < 8; attempt++ {
					resp, err = c.Do(&req)
					if err != nil {
						transportErrs.Add(1)
						return
					}
					if resp.Code == sessiond.CodeOverload || resp.Code == sessiond.CodeNoWorkers {
						time.Sleep(100 * time.Millisecond)
						continue
					}
					break
				}
				switch resp.Code {
				case sessiond.CodeHealed:
					healed.Add(1)
				case sessiond.CodeRedispatched, sessiond.CodeSalvaged, sessiond.CodeDegraded:
					degraded.Add(1)
				}
				if !resp.OK {
					typedFailures.Add(1)
					if resp.Code == "" {
						t.Errorf("client %d: untyped failure: %+v", ci, resp)
					}
					continue
				}
				select {
				case <-chaosDone:
					postChaosOK.Add(1)
				default:
				}
				if req.Op != sessiond.OpSlice {
					continue
				}
				if resp.Code == sessiond.CodeSalvaged || resp.Code == sessiond.CodeDegraded ||
					resp.Code == sessiond.CodeEstimated {
					continue // honestly-degraded content is annotated, not digest-compared
				}
				var got sessiond.SliceResult
				if json.Unmarshal(resp.Result, &got) != nil || got.Digest != want.Digest ||
					got.Members != want.Members || got.Deps != want.Deps {
					sliceBad.Add(1)
					t.Errorf("client %d: digest slice diverged from single-node: %+v != %+v", ci, got, want)
				} else {
					sliceOK.Add(1)
				}
			}
		}(ci)
	}

	// Concurrent GC against the clean holder's root for the whole soak:
	// it must never collect the pinned decoy, a leased entry, or the
	// hot digest (touched by every validated read), and must never make
	// a live read fail — the decoy itself is reclaimed by the stricter
	// final pass below once the soak's touches have aged it to the
	// bottom of the LRU order.
	gcStop := make(chan struct{})
	var gcWG sync.WaitGroup
	gcWG.Add(1)
	go func() {
		defer gcWG.Done()
		s, err := store.Open(gcRoot)
		if err != nil {
			t.Errorf("gc open: %v", err)
			return
		}
		for {
			select {
			case <-gcStop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			if _, err := s.GC(store.GCPolicy{KeepLast: 2}); err != nil {
				t.Errorf("concurrent gc: %v", err)
				return
			}
		}
	}()

	// Mid-run chaos: the replica-less worker dies outright mid-fetch;
	// then one live holder's replica is bit-flipped while reads are in
	// flight, and that worker restarted on the same store root. The old
	// process keeps no copy on disk — it serves the pinball it decoded
	// before the flip from memory — so the restart, whose resolver cache
	// starts empty, is what makes the next digest session read through
	// the damaged objects and heal from the surviving clean holder.
	time.Sleep(300 * time.Millisecond)
	if err := workers[killIdx].Process.Kill(); err != nil {
		t.Fatalf("SIGKILL w%d: %v", killIdx+1, err)
	}
	time.Sleep(200 * time.Millisecond)
	victim := hotChunks[0]
	obj, err := os.ReadFile(victim)
	if err != nil {
		t.Fatalf("read hot chunk %s: %v", victim, err)
	}
	obj[len(obj)/2] ^= 0x20
	if err := os.WriteFile(victim, obj, 0o644); err != nil {
		t.Fatalf("flip hot chunk: %v", err)
	}
	t.Logf("corrupted under load: bit-flipped %s (chunk of %s)", victim, digest)
	if err := workers[corruptIdx].Process.Kill(); err != nil {
		t.Fatalf("SIGKILL w%d: %v", corruptIdx+1, err)
	}
	workers[corruptIdx].Wait()
	startWorker(corruptIdx)
	t.Logf("restarted w%d on %s", corruptIdx+1, corruptRoot)
	cs, err := store.Open(corruptRoot)
	if err != nil {
		t.Fatal(err)
	}
	close(chaosDone)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Minute):
		t.Fatal("soak clients did not finish: store fleet deadlocked")
	}
	close(gcStop)
	gcWG.Wait()

	if n := transportErrs.Load(); n != 0 {
		t.Errorf("%d transport errors surfaced to clients (want 0: every answer typed)", n)
	}
	if sliceBad.Load() != 0 {
		t.Errorf("%d digest slices diverged from the single-node answer", sliceBad.Load())
	}
	if sliceOK.Load() == 0 {
		t.Error("no digest slice completed at all")
	}
	if postChaosOK.Load() == 0 {
		t.Error("nothing completed after the kill+corruption: the store fleet did not survive")
	}
	t.Logf("store soak: %d slices digest-checked, %d healed, %d degraded/redispatched, %d typed failures, %d completed post-chaos",
		sliceOK.Load(), healed.Load(), degraded.Load(), typedFailures.Load(), postChaosOK.Load())

	// Post-soak probes straight at the two surviving workers: each must
	// still answer a digest-only replay typed — the corrupted holder by
	// healing from its peer (or failing typed), the GC'd holder from its
	// retained replica.
	for _, wi := range []int{corruptIdx, gcIdx} {
		wc, err := sessiond.DialTimeout(workerAddrs[wi], 10*time.Second)
		if err != nil {
			t.Errorf("dial surviving worker w%d: %v", wi+1, err)
			continue
		}
		resp, err := wc.Do(&sessiond.Request{Op: sessiond.OpReplay, File: f.src, Digest: digest})
		wc.Close()
		if err != nil {
			t.Errorf("probe w%d: transport error %v (want a typed response)", wi+1, err)
			continue
		}
		if !resp.OK && resp.Code == "" {
			t.Errorf("probe w%d: untyped failure: %+v", wi+1, resp)
		}
		t.Logf("post-soak probe w%d: ok=%v code=%q", wi+1, resp.OK, resp.Code)
	}

	// Retention audit on the GC'd root: the pinned decoy survived every
	// concurrent pass, the in-use digest (touched by every validated
	// read) survived, and a final KeepLast:1 pass reclaims the untouched
	// unpinned decoy while still refusing to touch the pinned entry.
	// The probe's session lease on the hot digest may still be draining
	// (the worker releases it just after writing the response); while it
	// is held the hot entry is excluded from GC candidates and the decoy
	// is the newest remaining one — so retry until the lease clears.
	s, err := store.Open(gcRoot)
	if err != nil {
		t.Fatal(err)
	}
	auditDeadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := s.GC(store.GCPolicy{KeepLast: 1}); err != nil {
			t.Fatalf("final gc: %v", err)
		}
		if _, err := s.Stat(decoyDigest); err != nil {
			break // decoy reclaimed
		}
		if time.Now().After(auditDeadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if _, err := s.Stat(pinnedDigest); err != nil {
		t.Errorf("GC collected the pinned entry %s: %v", pinnedDigest, err)
	}
	if _, err := s.Stat(digest); err != nil {
		t.Errorf("GC collected the in-use digest %s: %v", digest, err)
	}
	if _, err := s.Stat(decoyDigest); err == nil {
		t.Errorf("GC never reclaimed the unpinned, unreferenced decoy %s", decoyDigest)
	}
	// The corrupted replica must never have been "repaired" silently:
	// either its damage is still detectable, or a heal replaced it with
	// bytes that re-validate — both end in a store whose live content
	// for the hot digest is correct or typed.
	if got, err := cs.Get(digest); err == nil {
		if store.Digest(got) != digest {
			t.Error("corrupted replica serves bytes that do not hash to the digest")
		}
	} else if !storeTypedSoakErr(err) {
		t.Errorf("corrupted replica read failed untyped: %v", err)
	}
	// Digest sessions open a pinball decoded in memory: no store root
	// gains a second on-disk copy of it.
	for _, root := range roots {
		if _, err := os.Stat(filepath.Join(root, "spool")); !os.IsNotExist(err) {
			t.Errorf("store root %s has a spool directory (stat err %v)", root, err)
		}
	}
}

// soakChunkObjects reads a store root's manifest directly and returns
// the on-disk object paths of one entry's chunks, so the soak can flip
// a byte in a chunk that provably belongs to the hot digest rather than
// whatever object happens to sort first.
func soakChunkObjects(t *testing.T, root, digest string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(root, "manifest.db"))
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, line := range strings.Split(string(raw), "\n") {
		var rec struct {
			Op    string `json:"op"`
			Entry struct {
				Digest string `json:"digest"`
				Chunks []struct {
					Digest string `json:"digest"`
				} `json:"chunks"`
			} `json:"entry"`
		}
		if json.Unmarshal([]byte(line), &rec) != nil || rec.Op != "add" || rec.Entry.Digest != digest {
			continue
		}
		paths = paths[:0] // last add wins, like the manifest replay
		for _, c := range rec.Entry.Chunks {
			paths = append(paths, filepath.Join(root, "objects", c.Digest[:2], c.Digest))
		}
	}
	if len(paths) == 0 {
		t.Fatalf("no manifest add record for %s under %s", digest, root)
	}
	return paths
}

// recordSoakPinball logs one more recording of the fixture program
// under a distinct seed and returns its encoded bytes — a valid pinball
// with its own content digest, for GC-retention bait.
func recordSoakPinball(t *testing.T, src string, seed int64) []byte {
	t.Helper()
	prog, err := drdebug.CompileFile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	input := make([]int64, 64)
	for i := range input {
		input[i] = int64(i + 1)
	}
	pb, err := pinplay.Log(prog, pinplay.LogConfig{
		Seed: seed, MeanQuantum: 13, Input: input, CheckpointEvery: 8,
	}, pinplay.RegionSpec{})
	if err != nil {
		t.Fatalf("log seed %d: %v", seed, err)
	}
	data, err := pb.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// storeTypedSoakErr mirrors the store's typed-read contract.
func storeTypedSoakErr(err error) bool {
	for _, sentinel := range []error{
		store.ErrObjectCorrupt, store.ErrObjectMissing, store.ErrDigestMismatch,
		store.ErrManifestCorrupt, store.ErrManifestTorn, store.ErrNotFound,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}
