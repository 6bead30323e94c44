package store

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/pinball"
)

// Store is a content-addressed pinball store rooted at one directory:
//
//	root/
//	  manifest.db        append-only streamed-JSON index (see manifest.go)
//	  lock               flock target serialising cross-process mutation
//	  objects/<xx>/<digest>   chunk objects, named by their own content digest
//	  quarantine/<digest>.<unix>   damaged objects moved aside, never deleted by GC
//	  leases/<digest>.<pid>.<seq>  open-session markers GC must not collect
//
// Pinballs are keyed by the FNV-1a 64 digest of their full file bytes —
// the same content hash the engine cache and circuit breaker key by —
// rendered as 16 hex digits. Files are split at pinball section-frame
// boundaries (journal chunk frames are the natural unit) so chunks
// shared across recordings are stored once.
//
// Every read re-hashes every chunk before returning bytes
// (validation-on-read): a mismatch quarantines the damaged object and
// fails with a typed *CorruptObjectError; nothing corrupt is ever
// returned silently.
//
// The Store is safe for concurrent use in-process (s.mu) and across
// processes (flock on root/lock for mutation; the manifest is re-read
// under the lock so writers always append against fresh state).
type Store struct {
	root string

	mu  sync.Mutex
	man *manifest

	// In-process leases (Acquire) back the on-disk lease files so a GC in
	// this process is cheap and a GC in another process sees the files.
	leases   map[string]int
	leaseSeq uint64

	now func() time.Time
}

const (
	objectsDir    = "objects"
	quarantineDir = "quarantine"
	leasesDir     = "leases"
	manifestName  = "manifest.db"
	lockName      = "lock"
)

var digestRE = regexp.MustCompile(`^[0-9a-f]{16}$`)

// Digest hashes file bytes to the store's content key: FNV-1a 64 as 16
// hex digits. It matches the engine-cache/breaker content hash.
func Digest(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ValidDigest reports whether s has the shape of a store digest.
func ValidDigest(s string) bool { return digestRE.MatchString(s) }

// Open creates (if needed) and opens a store rooted at dir. A torn
// manifest tail — the artifact of a crashed append — is recovered past
// silently here and reported by Verify; true mid-file corruption fails
// typed.
func Open(root string) (*Store, error) {
	for _, d := range []string{root, filepath.Join(root, objectsDir), filepath.Join(root, quarantineDir), filepath.Join(root, leasesDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{root: root, leases: make(map[string]int), now: time.Now}
	man, err := loadManifest(s.manifestPath())
	if err != nil {
		return nil, err
	}
	s.man = man
	return s, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

func (s *Store) manifestPath() string { return filepath.Join(s.root, manifestName) }

func (s *Store) objectPath(chunkDigest string) string {
	return filepath.Join(s.root, objectsDir, chunkDigest[:2], chunkDigest)
}

// lock takes the cross-process store lock (flock LOCK_EX on root/lock)
// and returns the unlock func. The in-process mutex must already be
// held.
func (s *Store) lock() (func(), error) {
	f, err := os.OpenFile(filepath.Join(s.root, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open lock: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: flock: %v", ErrBusy, err)
	}
	return func() {
		syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		f.Close()
	}, nil
}

// reload re-reads the manifest from disk; must be called under the
// store lock so appends from other processes are visible before we act.
func (s *Store) reload() error {
	man, err := loadManifest(s.manifestPath())
	if err != nil {
		return err
	}
	s.man = man
	return nil
}

// appendRecords appends manifest lines durably (single write + fsync),
// keeping the in-memory index in step. Caller holds the store lock.
func (s *Store) appendRecords(recs ...*record) error {
	var buf []byte
	for _, r := range recs {
		line, err := encodeRecord(r)
		if err != nil {
			return err
		}
		buf = append(buf, line...)
	}
	f, err := os.OpenFile(s.manifestPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open manifest: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat manifest: %w", err)
	}
	if st.Size() == 0 {
		buf = append([]byte(manifestHeader+"\n"), buf...)
	}
	if _, err := f.Write(buf); err != nil {
		return fmt.Errorf("store: append manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: sync manifest: %w", err)
	}
	for _, r := range recs {
		applyRecord(s.man, r)
	}
	return nil
}

// chunkSpans splits pinball file bytes at section-frame boundaries:
// the file header is chunk 0, each framed section (journal chunk
// frames included) is its own chunk. Files whose framing cannot be
// walked — unreadable versions or foreign bytes — become a single
// whole-file chunk, so dedup degrades gracefully instead of refusing.
func chunkSpans(data []byte) [][2]int64 {
	secs, err := pinball.SectionOffsets(data)
	if err != nil || len(secs) == 0 {
		return [][2]int64{{0, int64(len(data))}}
	}
	var spans [][2]int64
	if secs[0].Off > 0 {
		spans = append(spans, [2]int64{0, secs[0].Off})
	}
	for _, sec := range secs {
		spans = append(spans, [2]int64{sec.Off, sec.Off + sec.Len})
	}
	if end := secs[len(secs)-1].Off + secs[len(secs)-1].Len; end < int64(len(data)) {
		spans = append(spans, [2]int64{end, int64(len(data))})
	}
	return spans
}

// PutMeta carries the optional capture metadata recorded with an entry.
type PutMeta struct {
	Program string
	Kind    string
}

// PutResult reports what Put did.
type PutResult struct {
	Digest      string
	Size        int64
	Chunks      int
	NewChunks   int // chunks written (not already present from another recording)
	Existed     bool
	SharedBytes int64 // bytes deduplicated against existing objects
}

// Put stores pinball file bytes under their content digest, splitting
// at section-frame boundaries and writing only chunks the store does
// not already hold. Re-putting an existing digest is a cheap touch.
func (s *Store) Put(data []byte, meta PutMeta) (*PutResult, error) {
	if len(data) < 4 || string(data[:4]) != "DRPB" {
		return nil, fmt.Errorf("store: refusing to store non-pinball bytes: %w", pinball.ErrNotPinball)
	}
	digest := Digest(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	unlock, err := s.lock()
	if err != nil {
		return nil, err
	}
	defer unlock()
	if err := s.reload(); err != nil {
		return nil, err
	}
	now := s.now().Unix()
	if e, ok := s.man.entries[digest]; ok {
		if err := s.appendRecords(&record{Op: "touch", Digest: digest, Unix: now}); err != nil {
			return nil, err
		}
		return &PutResult{Digest: digest, Size: e.Size, Chunks: len(e.Chunks), Existed: true}, nil
	}
	spans := chunkSpans(data)
	entry := &Entry{
		Digest:    digest,
		Size:      int64(len(data)),
		Program:   meta.Program,
		Kind:      meta.Kind,
		AddedUnix: now,
		TouchUnix: now,
	}
	res := &PutResult{Digest: digest, Size: int64(len(data)), Chunks: len(spans)}
	for _, span := range spans {
		chunk := data[span[0]:span[1]]
		cd := Digest(chunk)
		entry.Chunks = append(entry.Chunks, Chunk{Digest: cd, Size: int64(len(chunk))})
		path := s.objectPath(cd)
		if _, err := os.Stat(path); err == nil {
			res.SharedBytes += int64(len(chunk))
			continue
		}
		if err := writeFileAtomic(path, chunk); err != nil {
			return nil, fmt.Errorf("store: write object %s: %w", cd, err)
		}
		res.NewChunks++
	}
	if err := s.appendRecords(&record{Op: "add", Entry: entry}); err != nil {
		return nil, err
	}
	return res, nil
}

// Get returns the validated file bytes for digest. Every chunk is
// re-hashed before assembly; a mismatched chunk is quarantined and the
// read fails with a *CorruptObjectError, a missing chunk fails typed
// without quarantine, and an assembled file that does not hash to the
// requested digest fails with ErrDigestMismatch. Successful reads
// record a touch (LRU-by-last-slice for GC).
func (s *Store) Get(digest string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	unlock, err := s.lock()
	if err != nil {
		return nil, err
	}
	defer unlock()
	if err := s.reload(); err != nil {
		return nil, err
	}
	e, ok := s.man.entries[digest]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	data := make([]byte, 0, e.Size)
	for _, c := range e.Chunks {
		chunk, err := s.readChunk(digest, c)
		if err != nil {
			return nil, err
		}
		data = append(data, chunk...)
	}
	if got := Digest(data); got != digest {
		return nil, fmt.Errorf("%w: entry %s assembles to %s (manifest lists wrong chunks)", ErrDigestMismatch, digest, got)
	}
	if err := s.appendRecords(&record{Op: "touch", Digest: digest, Unix: s.now().Unix()}); err != nil {
		return nil, err
	}
	return data, nil
}

// readChunk reads and validates one chunk object, quarantining on hash
// mismatch. Caller holds the store lock.
func (s *Store) readChunk(entryDigest string, c Chunk) ([]byte, error) {
	path := s.objectPath(c.Digest)
	chunk, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, &CorruptObjectError{Digest: entryDigest, Chunk: c.Digest, Want: c.Digest, sentinel: ErrObjectMissing}
		}
		return nil, fmt.Errorf("store: read object %s: %w", c.Digest, err)
	}
	if got := Digest(chunk); got != c.Digest {
		q := s.quarantine(path, c.Digest)
		return nil, &CorruptObjectError{Digest: entryDigest, Chunk: c.Digest, Want: c.Digest, Got: got, Quarantined: q, sentinel: ErrObjectCorrupt}
	}
	return chunk, nil
}

// quarantine moves a damaged object aside (never deleting the evidence)
// and returns the destination path ("" if the move itself failed — the
// read still fails typed either way).
func (s *Store) quarantine(path, chunkDigest string) string {
	dst := filepath.Join(s.root, quarantineDir, fmt.Sprintf("%s.%d", chunkDigest, s.now().UnixNano()))
	if err := os.Rename(path, dst); err != nil {
		return ""
	}
	return dst
}

// GetDamaged assembles whatever bytes survive for digest without
// validation — reading quarantined copies for chunks that were moved
// aside and skipping chunks that are gone entirely. It exists to feed
// pinball.SalvageBytes when no intact replica can be fetched; callers
// must treat the result as damaged. ok is false when not a single byte
// of the entry could be found.
func (s *Store) GetDamaged(digest string) (data []byte, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	unlock, err := s.lock()
	if err != nil {
		return nil, false, err
	}
	defer unlock()
	if err := s.reload(); err != nil {
		return nil, false, err
	}
	e, found := s.man.entries[digest]
	if !found {
		return nil, false, fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	any := false
	for _, c := range e.Chunks {
		chunk, rerr := os.ReadFile(s.objectPath(c.Digest))
		if rerr != nil {
			chunk = s.readQuarantined(c.Digest)
		}
		if chunk != nil {
			any = true
			data = append(data, chunk...)
		}
	}
	return data, any, nil
}

// readQuarantined returns the newest quarantined copy of a chunk, nil
// if none exists.
func (s *Store) readQuarantined(chunkDigest string) []byte {
	matches, _ := filepath.Glob(filepath.Join(s.root, quarantineDir, chunkDigest+".*"))
	if len(matches) == 0 {
		return nil
	}
	sort.Strings(matches)
	data, err := os.ReadFile(matches[len(matches)-1])
	if err != nil {
		return nil
	}
	return data
}

// Heal re-stores intact file bytes for an entry whose objects were
// damaged: the chunk objects are rewritten from the replica and the
// entry re-added. Used after a successful peer re-fetch or salvage.
// The bytes must hash to digest.
func (s *Store) Heal(digest string, data []byte) error {
	if Digest(data) != digest {
		return fmt.Errorf("%w: replica hashes to %s, want %s", ErrDigestMismatch, Digest(data), digest)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	unlock, err := s.lock()
	if err != nil {
		return err
	}
	defer unlock()
	if err := s.reload(); err != nil {
		return err
	}
	now := s.now().Unix()
	entry := &Entry{Digest: digest, Size: int64(len(data)), AddedUnix: now, TouchUnix: now}
	if old, ok := s.man.entries[digest]; ok {
		entry.Program, entry.Kind, entry.Pinned, entry.AddedUnix = old.Program, old.Kind, old.Pinned, old.AddedUnix
	}
	for _, span := range chunkSpans(data) {
		chunk := data[span[0]:span[1]]
		cd := Digest(chunk)
		entry.Chunks = append(entry.Chunks, Chunk{Digest: cd, Size: int64(len(chunk))})
		path := s.objectPath(cd)
		// Rewrite unconditionally: a present-but-damaged object is exactly
		// what we are healing.
		if err := writeFileAtomic(path, chunk); err != nil {
			return fmt.Errorf("store: heal object %s: %w", cd, err)
		}
	}
	return s.appendRecords(&record{Op: "add", Entry: entry})
}

// Info is the public view of one entry.
type Info struct {
	Digest    string `json:"digest"`
	Size      int64  `json:"size"`
	Chunks    int    `json:"chunks"`
	Program   string `json:"program,omitempty"`
	Kind      string `json:"kind,omitempty"`
	AddedUnix int64  `json:"added_unix"`
	TouchUnix int64  `json:"touch_unix"`
	Pinned    bool   `json:"pinned"`
	Leased    bool   `json:"leased"`
}

func (s *Store) infoLocked(e *Entry) Info {
	return Info{
		Digest: e.Digest, Size: e.Size, Chunks: len(e.Chunks),
		Program: e.Program, Kind: e.Kind,
		AddedUnix: e.AddedUnix, TouchUnix: e.TouchUnix,
		Pinned: e.Pinned, Leased: s.leasedLocked(e.Digest),
	}
}

// Stat returns the entry for digest, or ErrNotFound.
func (s *Store) Stat(digest string) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.reload(); err != nil {
		return Info{}, err
	}
	e, ok := s.man.entries[digest]
	if !ok {
		return Info{}, fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	return s.infoLocked(e), nil
}

// List returns entries whose digest starts with prefix, digest-ordered.
// An empty prefix lists everything.
func (s *Store) List(prefix string) ([]Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.reload(); err != nil {
		return nil, err
	}
	var out []Info
	for _, e := range s.man.list(prefix) {
		out = append(out, s.infoLocked(e))
	}
	return out, nil
}

// Resolve expands a digest prefix to the unique matching digest.
func (s *Store) Resolve(prefix string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.reload(); err != nil {
		return "", err
	}
	matches := s.man.list(prefix)
	switch len(matches) {
	case 0:
		return "", fmt.Errorf("%w: no digest with prefix %q", ErrNotFound, prefix)
	case 1:
		return matches[0].Digest, nil
	default:
		return "", fmt.Errorf("store: prefix %q is ambiguous (%d matches)", prefix, len(matches))
	}
}

// Pin marks an entry exempt from GC; Unpin reverses it.
func (s *Store) Pin(digest string) error   { return s.setPin(digest, "pin") }
func (s *Store) Unpin(digest string) error { return s.setPin(digest, "unpin") }

func (s *Store) setPin(digest, op string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	unlock, err := s.lock()
	if err != nil {
		return err
	}
	defer unlock()
	if err := s.reload(); err != nil {
		return err
	}
	if _, ok := s.man.entries[digest]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	return s.appendRecords(&record{Op: op, Digest: digest})
}

// Acquire takes a lease on digest for the duration of an open session:
// GC will not collect a leased entry, in this process (lease map) or
// any other (lease file carrying our pid, ignored once the pid is
// dead). Release with the returned func. A served digest counts as
// used, so Acquire also records a touch when the entry's last one is
// older than the current second: a daemon that serves a digest from
// its decoded-pinball cache never calls Get, and GC's LRU rank must
// still see the entry as recently used.
func (s *Store) Acquire(digest string) (release func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Hold the cross-process lock so the lease file cannot land in the
	// middle of another process's GC victim selection.
	unlock, err := s.lock()
	if err != nil {
		return nil, err
	}
	defer unlock()
	if err := s.reload(); err != nil {
		return nil, err
	}
	e, ok := s.man.entries[digest]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	if now := s.now().Unix(); e.TouchUnix < now {
		if err := s.appendRecords(&record{Op: "touch", Digest: digest, Unix: now}); err != nil {
			return nil, err
		}
	}
	s.leaseSeq++
	name := fmt.Sprintf("%s.%d.%d", digest, os.Getpid(), s.leaseSeq)
	path := filepath.Join(s.root, leasesDir, name)
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		return nil, fmt.Errorf("store: write lease: %w", err)
	}
	s.leases[digest]++
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.leases[digest]--; s.leases[digest] <= 0 {
				delete(s.leases, digest)
			}
			os.Remove(path)
		})
	}, nil
}

// leasedLocked reports whether digest has a live lease: in-process, or
// an on-disk lease file whose pid is still alive. Lease files from dead
// pids are stale (crashed session) and do not block GC.
func (s *Store) leasedLocked(digest string) bool {
	if s.leases[digest] > 0 {
		return true
	}
	matches, _ := filepath.Glob(filepath.Join(s.root, leasesDir, digest+".*"))
	for _, m := range matches {
		parts := strings.Split(filepath.Base(m), ".")
		if len(parts) < 3 {
			continue
		}
		pid, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		if pidAlive(pid) {
			return true
		}
	}
	return false
}

// pidAlive reports whether a process with the given pid exists.
func pidAlive(pid int) bool {
	if pid <= 0 {
		return false
	}
	return syscall.Kill(pid, 0) == nil || syscall.Kill(pid, 0) == syscall.EPERM
}

// writeFileAtomic writes data to path via a same-directory temp file,
// fsync, and rename, so readers never observe a partial object.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
