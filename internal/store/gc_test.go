package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// putFake stores a fabricated journal with a controlled touch time and
// returns its digest.
func putFake(t *testing.T, s *Store, tag string, at int64) string {
	t.Helper()
	clock := time.Unix(at, 0)
	old := s.now
	s.now = func() time.Time { return clock }
	defer func() { s.now = old }()
	data := fakeJournal([]byte("payload-" + tag))
	if _, err := s.Put(data, PutMeta{}); err != nil {
		t.Fatalf("put %s: %v", tag, err)
	}
	return Digest(data)
}

func TestGCKeepLastLRU(t *testing.T) {
	s := openT(t)
	oldest := putFake(t, s, "oldest", 100)
	mid := putFake(t, s, "mid", 200)
	newest := putFake(t, s, "newest", 300)

	rep, err := s.GC(GCPolicy{KeepLast: 2})
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if len(rep.Evicted) != 1 || rep.Evicted[0] != oldest {
		t.Fatalf("evicted %v, want [%s]", rep.Evicted, oldest)
	}
	if _, err := s.Get(oldest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("evicted entry still readable: %v", err)
	}
	for _, d := range []string{mid, newest} {
		if _, err := s.Get(d); err != nil {
			t.Fatalf("survivor %s unreadable after gc: %v", d, err)
		}
	}
	if rep.DeletedObjects == 0 || rep.ReclaimedBytes == 0 {
		t.Fatalf("gc reclaimed nothing: %+v", rep)
	}
}

func TestGCPinnedAndLeasedSurvive(t *testing.T) {
	s := openT(t)
	pinned := putFake(t, s, "pinned", 100)
	leased := putFake(t, s, "leased", 110)
	doomed := putFake(t, s, "doomed", 120)
	if err := s.Pin(pinned); err != nil {
		t.Fatal(err)
	}
	release, err := s.Acquire(leased)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	rep, err := s.GC(GCPolicy{KeepLast: 0, MaxBytes: 1}) // evict everything evictable
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if len(rep.Evicted) != 1 || rep.Evicted[0] != doomed {
		t.Fatalf("evicted %v, want only [%s]", rep.Evicted, doomed)
	}
	if rep.KeptPinned != 1 || rep.KeptLeased != 1 {
		t.Fatalf("kept counters: %+v", rep)
	}
	for _, d := range []string{pinned, leased} {
		if _, err := s.Get(d); err != nil {
			t.Fatalf("protected %s collected: %v", d, err)
		}
	}
}

func TestGCMaxBytes(t *testing.T) {
	s := openT(t)
	a := putFake(t, s, "a", 100)
	b := putFake(t, s, "b", 200)
	c := putFake(t, s, "c", 300)
	infoC, _ := s.Stat(c)
	infoB, _ := s.Stat(b)

	rep, err := s.GC(GCPolicy{MaxBytes: infoB.Size + infoC.Size})
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if len(rep.Evicted) != 1 || rep.Evicted[0] != a {
		t.Fatalf("evicted %v, want LRU [%s]", rep.Evicted, a)
	}
}

func TestGCDryRunDeletesNothing(t *testing.T) {
	s := openT(t)
	d := putFake(t, s, "only", 100)
	rep, err := s.GC(GCPolicy{MaxBytes: 1, DryRun: true})
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if len(rep.Evicted) != 1 || !rep.DryRun {
		t.Fatalf("dry-run report: %+v", rep)
	}
	if _, err := s.Get(d); err != nil {
		t.Fatalf("dry-run deleted data: %v", err)
	}
}

// TestGCSweepsOrphansAndCompacts: objects no entry references (what a
// crash between tombstone and sweep leaves) are reclaimed, tombstoned
// entries disappear from the compacted manifest, and stale lease files
// from dead pids are removed.
func TestGCSweepsOrphansAndCompacts(t *testing.T) {
	s := openT(t)
	live := putFake(t, s, "live", 100)
	orphan := filepath.Join(s.root, objectsDir, "ff", "ffffffffffffffff")
	if err := os.MkdirAll(filepath.Dir(orphan), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, []byte("orphaned bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(s.root, leasesDir, live+".999999999.7")
	if err := os.WriteFile(stale, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := s.GC(GCPolicy{})
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if rep.OrphansSwept != 1 || rep.StaleLeases != 1 {
		t.Fatalf("sweep counters: %+v", rep)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan object survived gc")
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale lease survived gc")
	}
	// Compaction: manifest now replays to exactly the live entry set.
	m, err := loadManifest(s.manifestPath())
	if err != nil {
		t.Fatalf("compacted manifest: %v", err)
	}
	if len(m.entries) != 1 || m.entries[live] == nil || m.torn {
		t.Fatalf("compacted index: %d entries torn=%v", len(m.entries), m.torn)
	}
	if _, err := s.Get(live); err != nil {
		t.Fatalf("live entry unreadable after compaction: %v", err)
	}
}

// TestGCTombstoneBeforeObjectDelete pins the crash-safety ordering by
// inspection of effects: after eviction the manifest has no record of
// the entry (tombstone + compaction) AND its objects are gone; a
// partial state where objects are gone but the entry is live must be
// impossible, which the ordering (tombstone, fsync, compact, then
// unlink) guarantees. Here we check the recovery half: a store whose
// objects vanished without a tombstone (simulated crash artifact in
// reverse) still fails typed rather than silently.
func TestGCCrashArtifactsStayTyped(t *testing.T) {
	s := openT(t)
	d := putFake(t, s, "crashed", 100)
	e := s.man.entries[d]
	for _, c := range e.Chunks {
		os.Remove(s.objectPath(c.Digest))
	}
	if _, err := s.Get(d); !errors.Is(err, ErrObjectMissing) {
		t.Fatalf("entry with vanished objects: %v, want ErrObjectMissing", err)
	}
}

func TestVerifyCleanAndDamaged(t *testing.T) {
	s := openT(t)
	data := recordedPinball(t)
	digest := Digest(data)
	if _, err := s.Put(data, PutMeta{}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Verify()
	if err != nil {
		t.Fatalf("verify clean store: %v (%+v)", err, rep)
	}
	if rep.Entries != 1 || rep.ChunksChecked == 0 {
		t.Fatalf("verify report: %+v", rep)
	}

	flipObjectByte(t, s, digest, 0)
	rep, err = s.Verify()
	if !errors.Is(err, ErrObjectCorrupt) {
		t.Fatalf("verify damaged store: %v, want ErrObjectCorrupt", err)
	}
	if rep.CorruptCount != 1 || len(rep.Corrupt) != 1 {
		t.Fatalf("verify report after damage: %+v", rep)
	}
	// Verify quarantined the damaged object; a second pass sees it missing.
	rep, err = s.Verify()
	if !errors.Is(err, ErrObjectMissing) {
		t.Fatalf("second verify: %v, want ErrObjectMissing", err)
	}
	if rep.MissingCount != 1 {
		t.Fatalf("second verify report: %+v", rep)
	}
}

func TestVerifyReportsTornManifest(t *testing.T) {
	s := openT(t)
	putFake(t, s, "x", 100)
	// Tear the manifest tail as a crash would.
	raw, err := os.ReadFile(s.manifestPath())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.manifestPath(), raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Verify()
	if !errors.Is(err, ErrManifestTorn) {
		t.Fatalf("verify torn manifest: %v, want ErrManifestTorn", err)
	}
}

// TestGCUnderLoadSoak runs concurrent putters, readers and a GC loop
// against one store root through two handles (in-process model of the
// multi-process soak): no reader of a pinned or freshly-touched entry
// may ever see corruption, and GC must only reclaim unpinned,
// unreferenced entries.
func TestGCUnderLoadSoak(t *testing.T) {
	root := t.TempDir()
	s1, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}

	pinnedData := fakeJournal([]byte("pinned-forever"), bytes.Repeat([]byte("p"), 512))
	pinnedDigest := Digest(pinnedData)
	if _, err := s1.Put(pinnedData, PutMeta{}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Pin(pinnedDigest); err != nil {
		t.Fatal(err)
	}

	leasedData := fakeJournal([]byte("leased-for-session"), bytes.Repeat([]byte("l"), 512))
	leasedDigest := Digest(leasedData)
	if _, err := s1.Put(leasedData, PutMeta{}); err != nil {
		t.Fatal(err)
	}
	release, err := s1.Acquire(leasedDigest)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	const iters = 30
	var wg sync.WaitGroup
	errc := make(chan error, 64)

	// Churn: transient entries being added via both handles.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int, s *Store) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				data := fakeJournal([]byte(fmt.Sprintf("churn-%d-%d", w, i)))
				if _, err := s.Put(data, PutMeta{}); err != nil {
					errc <- fmt.Errorf("churn put: %w", err)
					return
				}
			}
		}(w, []*Store{s1, s2}[w])
	}
	// Readers of the protected entries: must never see corruption or
	// absence, whatever GC does around them.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(s *Store) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if got, err := s.Get(pinnedDigest); err != nil {
					errc <- fmt.Errorf("pinned read: %w", err)
					return
				} else if !bytes.Equal(got, pinnedData) {
					errc <- fmt.Errorf("pinned read returned wrong bytes")
					return
				}
				if _, err := s.Get(leasedDigest); err != nil {
					errc <- fmt.Errorf("leased read: %w", err)
					return
				}
			}
		}([]*Store{s1, s2}[r])
	}
	// GC loop with an aggressive policy.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/3; i++ {
			if _, err := s2.GC(GCPolicy{KeepLast: 3}); err != nil {
				errc <- fmt.Errorf("gc: %w", err)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Final state: protected entries intact and validated, store verifies
	// clean (GC compaction may leave a clean or torn-free manifest only).
	for _, d := range []string{pinnedDigest, leasedDigest} {
		if _, err := s1.Get(d); err != nil {
			t.Errorf("protected %s after soak: %v", d, err)
		}
	}
	if rep, err := s1.Verify(); err != nil {
		t.Errorf("post-soak verify: %v (%+v)", err, rep)
	}
}

// TestGCKeepsServedDigest is the sequence a daemon serving one digest
// from its decoded-pinball cache runs: put A, read A once, put B a
// second later, then five sessions on A that only take a lease. GC with
// KeepLast 1 must keep A, the digest in use, and evict B. Five leases in
// the same second append one touch record, not five.
func TestGCKeepsServedDigest(t *testing.T) {
	s := openT(t)
	a := putFake(t, s, "served", 100)
	clock := time.Unix(100, 0)
	s.now = func() time.Time { return clock }
	if _, err := s.Get(a); err != nil {
		t.Fatal(err)
	}
	b := putFake(t, s, "idle", 101)
	clock = time.Unix(102, 0)
	before := manifestTouches(t, s)
	for i := 0; i < 5; i++ {
		release, err := s.Acquire(a)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	if n := manifestTouches(t, s) - before; n != 1 {
		t.Errorf("5 leases in one second appended %d touch records, want 1", n)
	}
	rep, err := s.GC(GCPolicy{KeepLast: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Evicted) != 1 || rep.Evicted[0] != b {
		t.Fatalf("evicted %v, want [%s] (the idle entry)", rep.Evicted, b)
	}
	if _, err := s.Stat(a); err != nil {
		t.Fatalf("served entry collected: %v", err)
	}
}

// manifestTouches counts the touch records in s's manifest file.
func manifestTouches(t *testing.T, s *Store) int {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(s.Root(), "manifest.db"))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(raw, []byte(`"op":"touch"`))
}
