package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/pinball"
	"repro/internal/pinplay"
)

// recordedPinball logs one small real pinball and returns its framed
// bytes — the store must round-trip real recordings, not just
// synthetic frames.
func recordedPinball(t testing.TB) []byte {
	t.Helper()
	prog, err := cc.CompileSource("store_fixture.c", `
int main() {
	int i;
	int acc = 0;
	for (i = 0; i < 16; i++) {
		acc = acc + read();
		write(acc);
	}
	return 0;
}`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	input := make([]int64, 32)
	for i := range input {
		input[i] = int64(i*5 + 2)
	}
	pb, err := pinplay.Log(prog, pinplay.LogConfig{Seed: 3, MeanQuantum: 11, Input: input, CheckpointEvery: 4}, pinplay.RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	data, err := pb.EncodeBytes()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// fakeJournal fabricates journal-framed pinball bytes from raw frame
// payloads: valid for SectionOffsets (and therefore for store
// chunking), no decode semantics. Frames shared between two fakes are
// byte-identical, which is what the dedup tests need to control.
func fakeJournal(payloads ...[]byte) []byte {
	out := []byte("DRPB")
	out = append(out, 3 /* journal version */, 'W')
	for i, p := range payloads {
		frame := make([]byte, 13)
		frame[0] = byte(8 + i%5) // journal frame ids 8-12
		binary.BigEndian.PutUint64(frame[1:9], uint64(len(p)))
		binary.BigEndian.PutUint32(frame[9:13], crc32.ChecksumIEEE(p))
		out = append(out, frame...)
		out = append(out, p...)
	}
	return out
}

func openT(t testing.TB) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openT(t)
	data := recordedPinball(t)
	want := Digest(data)

	res, err := s.Put(data, PutMeta{Program: "store_fixture.c", Kind: "whole"})
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if res.Digest != want || res.Existed || res.Size != int64(len(data)) {
		t.Fatalf("put result %+v, want digest %s size %d", res, want, len(data))
	}
	if res.Chunks < 3 {
		t.Fatalf("real pinball split into %d chunks, want >= 3 (header + sections)", res.Chunks)
	}

	got, err := s.Get(want)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("get returned different bytes than put")
	}
	if _, err := pinball.Decode(got); err != nil {
		t.Fatalf("round-tripped pinball no longer decodes: %v", err)
	}

	info, err := s.Stat(want)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if info.Program != "store_fixture.c" || info.Kind != "whole" || info.Size != int64(len(data)) {
		t.Fatalf("stat: %+v", info)
	}

	// Re-put is a cheap dedup hit.
	res2, err := s.Put(data, PutMeta{})
	if err != nil {
		t.Fatalf("re-put: %v", err)
	}
	if !res2.Existed || res2.NewChunks != 0 {
		t.Fatalf("re-put result %+v, want existed", res2)
	}
}

func TestGetUnknownDigest(t *testing.T) {
	s := openT(t)
	if _, err := s.Get("deadbeefdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get unknown: %v, want ErrNotFound", err)
	}
	if _, err := s.Stat("deadbeefdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat unknown: %v, want ErrNotFound", err)
	}
}

func TestPutRejectsNonPinball(t *testing.T) {
	s := openT(t)
	if _, err := s.Put([]byte("not a pinball at all"), PutMeta{}); !errors.Is(err, pinball.ErrNotPinball) {
		t.Fatalf("put garbage: %v, want ErrNotPinball", err)
	}
}

// TestChunkDedupAcrossRecordings proves chunk-level sharing: two
// recordings with byte-identical frames store the shared frames once.
func TestChunkDedupAcrossRecordings(t *testing.T) {
	s := openT(t)
	shared1 := bytes.Repeat([]byte("quanta-alpha"), 100)
	shared2 := bytes.Repeat([]byte("quanta-beta"), 100)
	a := fakeJournal(shared1, shared2, []byte("tail-of-a"))
	b := fakeJournal(shared1, shared2, []byte("tail-of-b"))
	if Digest(a) == Digest(b) {
		t.Fatal("fixtures should differ")
	}

	resA, err := s.Put(a, PutMeta{})
	if err != nil {
		t.Fatalf("put a: %v", err)
	}
	if resA.NewChunks != resA.Chunks {
		t.Fatalf("first put should write every chunk: %+v", resA)
	}
	resB, err := s.Put(b, PutMeta{})
	if err != nil {
		t.Fatalf("put b: %v", err)
	}
	// b shares the header chunk and the two shared frames with a; only
	// its tail frame is new.
	if resB.NewChunks != 1 {
		t.Fatalf("second put wrote %d new chunks, want 1 (shared frames deduplicated): %+v", resB.NewChunks, resB)
	}
	if resB.SharedBytes == 0 {
		t.Fatalf("second put shared no bytes: %+v", resB)
	}
	for _, data := range [][]byte{a, b} {
		got, err := s.Get(Digest(data))
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("dedup broke round-trip")
		}
	}
}

// flipObjectByte damages one chunk object of digest on disk and returns
// the chunk digest it hit.
func flipObjectByte(t *testing.T, s *Store, digest string, chunkIdx int) string {
	t.Helper()
	info, err := s.Stat(digest)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if chunkIdx >= info.Chunks {
		t.Fatalf("entry has %d chunks, want index %d", info.Chunks, chunkIdx)
	}
	e := s.man.entries[digest]
	cd := e.Chunks[chunkIdx].Digest
	path := s.objectPath(cd)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read object: %v", err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("rewrite object: %v", err)
	}
	return cd
}

func TestValidationOnReadQuarantines(t *testing.T) {
	s := openT(t)
	data := recordedPinball(t)
	digest := Digest(data)
	if _, err := s.Put(data, PutMeta{}); err != nil {
		t.Fatalf("put: %v", err)
	}
	cd := flipObjectByte(t, s, digest, 1)

	_, err := s.Get(digest)
	if !errors.Is(err, ErrObjectCorrupt) {
		t.Fatalf("get of corrupted entry: %v, want ErrObjectCorrupt", err)
	}
	var coe *CorruptObjectError
	if !errors.As(err, &coe) {
		t.Fatalf("error is not a *CorruptObjectError: %v", err)
	}
	if coe.Chunk != cd || coe.Digest != digest || coe.Quarantined == "" {
		t.Fatalf("corrupt error detail: %+v", coe)
	}
	if _, err := os.Stat(coe.Quarantined); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
	if _, err := os.Stat(s.objectPath(cd)); !os.IsNotExist(err) {
		t.Fatalf("damaged object still in objects/: %v", err)
	}

	// The evidence is recoverable without validation.
	damaged, ok, err := s.GetDamaged(digest)
	if err != nil || !ok {
		t.Fatalf("GetDamaged: ok=%v err=%v", ok, err)
	}
	if len(damaged) != len(data) {
		t.Fatalf("damaged assembly %d bytes, want %d (quarantined chunk re-read)", len(damaged), len(data))
	}
	if bytes.Equal(damaged, data) {
		t.Fatal("damaged assembly should carry the flipped bit")
	}

	// Healing with an intact replica restores reads.
	if err := s.Heal(digest, data); err != nil {
		t.Fatalf("heal: %v", err)
	}
	got, err := s.Get(digest)
	if err != nil {
		t.Fatalf("get after heal: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("healed bytes differ")
	}
}

func TestMissingObjectTyped(t *testing.T) {
	s := openT(t)
	data := recordedPinball(t)
	digest := Digest(data)
	if _, err := s.Put(data, PutMeta{}); err != nil {
		t.Fatalf("put: %v", err)
	}
	e := s.man.entries[digest]
	if err := os.Remove(s.objectPath(e.Chunks[0].Digest)); err != nil {
		t.Fatalf("remove object: %v", err)
	}
	_, err := s.Get(digest)
	if !errors.Is(err, ErrObjectMissing) {
		t.Fatalf("get with missing chunk: %v, want ErrObjectMissing", err)
	}
}

func TestHealRejectsWrongBytes(t *testing.T) {
	s := openT(t)
	data := recordedPinball(t)
	if _, err := s.Put(data, PutMeta{}); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := s.Heal(Digest(data), fakeJournal([]byte("imposter"))); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("heal with wrong bytes: %v, want ErrDigestMismatch", err)
	}
}

// TestLeftoverSpoolIgnored: the store keeps no whole-file copies, and a
// spool directory an older build left under the root is neither
// created, read nor swept.
func TestLeftoverSpoolIgnored(t *testing.T) {
	s := openT(t)
	if _, err := os.Stat(filepath.Join(s.root, "spool")); !os.IsNotExist(err) {
		t.Fatalf("Open made a spool directory (stat err %v)", err)
	}
	data := recordedPinball(t)
	digest := Digest(data)
	if _, err := s.Put(data, PutMeta{}); err != nil {
		t.Fatalf("put: %v", err)
	}
	old := filepath.Join(s.root, "spool", digest+".pinball")
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(digest)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get beside a stale spool copy: %v", err)
	}
	if _, err := s.GC(GCPolicy{MaxBytes: 1}); err != nil {
		t.Fatalf("gc: %v", err)
	}
	if _, err := os.Stat(old); err != nil {
		t.Fatalf("gc touched the leftover spool file: %v", err)
	}
}

func TestListPrefixAndResolve(t *testing.T) {
	s := openT(t)
	var digests []string
	for i := 0; i < 4; i++ {
		data := fakeJournal([]byte(strings.Repeat("x", i+1)))
		if _, err := s.Put(data, PutMeta{}); err != nil {
			t.Fatalf("put: %v", err)
		}
		digests = append(digests, Digest(data))
	}
	all, err := s.List("")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(all) != 4 {
		t.Fatalf("list: %d entries, want 4", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Digest >= all[i].Digest {
			t.Fatal("list not digest-ordered")
		}
	}
	d := digests[0]
	got, err := s.Resolve(d[:8])
	if err != nil || got != d {
		t.Fatalf("resolve %q: %q, %v", d[:8], got, err)
	}
	if _, err := s.Resolve("zzzz"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("resolve miss: %v", err)
	}
	if _, err := s.Resolve(""); err == nil {
		t.Fatal("empty prefix with 4 entries should be ambiguous")
	}
}

func TestPinUnpinAndLease(t *testing.T) {
	s := openT(t)
	data := recordedPinball(t)
	digest := Digest(data)
	if _, err := s.Put(data, PutMeta{}); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := s.Pin(digest); err != nil {
		t.Fatalf("pin: %v", err)
	}
	if info, _ := s.Stat(digest); !info.Pinned {
		t.Fatal("pin not visible in stat")
	}
	if err := s.Unpin(digest); err != nil {
		t.Fatalf("unpin: %v", err)
	}
	if info, _ := s.Stat(digest); info.Pinned {
		t.Fatal("unpin not visible in stat")
	}
	if err := s.Pin("deadbeefdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("pin unknown: %v", err)
	}

	release, err := s.Acquire(digest)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if info, _ := s.Stat(digest); !info.Leased {
		t.Fatal("lease not visible in stat")
	}
	release()
	release() // idempotent
	if info, _ := s.Stat(digest); info.Leased {
		t.Fatal("lease survived release")
	}
}

// TestLeaseFromDeadPidIgnored proves a crashed session's lease file
// does not block GC forever.
func TestLeaseFromDeadPidIgnored(t *testing.T) {
	s := openT(t)
	data := recordedPinball(t)
	digest := Digest(data)
	if _, err := s.Put(data, PutMeta{}); err != nil {
		t.Fatalf("put: %v", err)
	}
	stale := filepath.Join(s.root, leasesDir, digest+".999999999.1")
	if err := os.WriteFile(stale, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if info, _ := s.Stat(digest); info.Leased {
		t.Fatal("dead-pid lease should be ignored")
	}
	live := filepath.Join(s.root, leasesDir, digest+".1.2") // pid 1 is always alive
	if err := os.WriteFile(live, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if info, _ := s.Stat(digest); !info.Leased {
		t.Fatal("live-pid lease should count")
	}
}

func TestCrossProcessVisibility(t *testing.T) {
	root := t.TempDir()
	s1, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	data := recordedPinball(t)
	if _, err := s1.Put(data, PutMeta{}); err != nil {
		t.Fatalf("put via s1: %v", err)
	}
	// s2 opened before the put; its next read must see the append.
	got, err := s2.Get(Digest(data))
	if err != nil {
		t.Fatalf("get via s2: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("bytes differ across handles")
	}
}

func TestDigestShape(t *testing.T) {
	d := Digest([]byte("hello"))
	if !ValidDigest(d) {
		t.Fatalf("digest %q fails its own shape check", d)
	}
	if ValidDigest("short") || ValidDigest("ZZZZZZZZZZZZZZZZ") {
		t.Fatal("bad shapes accepted")
	}
}

// TestTouchAdvancesOnGet pins the LRU input: Get must bump TouchUnix.
func TestTouchAdvancesOnGet(t *testing.T) {
	s := openT(t)
	clock := time.Unix(1000, 0)
	s.now = func() time.Time { return clock }
	data := recordedPinball(t)
	digest := Digest(data)
	if _, err := s.Put(data, PutMeta{}); err != nil {
		t.Fatalf("put: %v", err)
	}
	clock = time.Unix(2000, 0)
	if _, err := s.Get(digest); err != nil {
		t.Fatalf("get: %v", err)
	}
	info, _ := s.Stat(digest)
	if info.TouchUnix != 2000 || info.AddedUnix != 1000 {
		t.Fatalf("touch=%d added=%d, want 2000/1000", info.TouchUnix, info.AddedUnix)
	}
}
