package store

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// GCPolicy selects what GC may reclaim. Pinned entries and entries with
// a live lease (open session) are never collected regardless of policy.
type GCPolicy struct {
	// KeepLast, when > 0, keeps at most the KeepLast most-recently-touched
	// entries (last slice wins); older unpinned, unleased entries are
	// evicted.
	KeepLast int
	// MaxBytes, when > 0, evicts least-recently-touched unpinned,
	// unleased entries until the live entries' summed size fits.
	MaxBytes int64
	// DryRun computes the report without writing anything.
	DryRun bool
}

// GCReport describes one GC pass.
type GCReport struct {
	Evicted        []string `json:"evicted,omitempty"` // entry digests tombstoned
	KeptPinned     int      `json:"kept_pinned"`
	KeptLeased     int      `json:"kept_leased"`
	DeletedObjects int      `json:"deleted_objects"`
	ReclaimedBytes int64    `json:"reclaimed_bytes"`
	OrphansSwept   int      `json:"orphans_swept"` // object files no live entry references
	StaleLeases    int      `json:"stale_leases"`  // lease files from dead pids removed
	DryRun         bool     `json:"dry_run,omitempty"`
}

// GC reclaims store space under policy. It is crash-safe against
// concurrent writers: the whole pass holds the cross-process store
// lock, evictions are made durable as manifest tombstones (fsync)
// before any object file is unlinked, and the manifest is then
// compacted by atomic rename. A crash at any point leaves either live
// entries with all their objects, or tombstoned entries whose objects
// are orphans — which the next GC sweeps.
func (s *Store) GC(policy GCPolicy) (*GCReport, error) {
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
	rep := &GCReport{DryRun: policy.DryRun}

	// Partition live entries into collectable and protected.
	all := s.man.list("")
	var candidates []*Entry
	for _, e := range all {
		switch {
		case e.Pinned:
			rep.KeptPinned++
		case s.leasedLocked(e.Digest):
			rep.KeptLeased++
		default:
			candidates = append(candidates, e)
		}
	}
	// LRU-by-last-slice: oldest touch first.
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].TouchUnix != candidates[j].TouchUnix {
			return candidates[i].TouchUnix < candidates[j].TouchUnix
		}
		return candidates[i].Digest < candidates[j].Digest
	})

	evict := map[string]bool{}
	if policy.KeepLast > 0 && len(candidates) > policy.KeepLast {
		for _, e := range candidates[:len(candidates)-policy.KeepLast] {
			evict[e.Digest] = true
		}
	}
	if policy.MaxBytes > 0 {
		total := int64(0)
		for _, e := range all {
			if !evict[e.Digest] {
				total += e.Size
			}
		}
		for _, e := range candidates {
			if total <= policy.MaxBytes {
				break
			}
			if !evict[e.Digest] {
				evict[e.Digest] = true
				total -= e.Size
			}
		}
	}
	evictedChunks := map[string]bool{}
	for _, e := range candidates {
		if evict[e.Digest] {
			rep.Evicted = append(rep.Evicted, e.Digest)
			for _, c := range e.Chunks {
				evictedChunks[c.Digest] = true
			}
		}
	}
	sort.Strings(rep.Evicted)

	if policy.DryRun {
		return rep, nil
	}

	// 1. Tombstones first, durably — from here the entries are dead even
	//    if we crash before touching a single object file.
	if len(rep.Evicted) > 0 {
		recs := make([]*record, 0, len(rep.Evicted))
		for _, d := range rep.Evicted {
			recs = append(recs, &record{Op: "del", Digest: d})
		}
		if err := s.appendRecords(recs...); err != nil {
			return nil, err
		}
	}

	// 2. Compact the manifest log (header + one add per live entry),
	//    atomic rename into place.
	compact, err := s.man.compactBytes()
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(s.manifestPath(), compact); err != nil {
		return nil, fmt.Errorf("store: compact manifest: %w", err)
	}

	// 3. Object sweep: unlink every object no live entry references —
	//    both this pass's evictions and orphans from earlier crashes.
	referenced := map[string]bool{}
	for _, e := range s.man.entries {
		for _, c := range e.Chunks {
			referenced[c.Digest] = true
		}
	}
	objRoot := filepath.Join(s.root, objectsDir)
	err = filepath.Walk(objRoot, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() || strings.HasPrefix(fi.Name(), ".tmp-") {
			return err
		}
		if !referenced[fi.Name()] {
			if rmErr := os.Remove(path); rmErr == nil {
				rep.DeletedObjects++
				rep.ReclaimedBytes += fi.Size()
				if !evictedChunks[fi.Name()] {
					rep.OrphansSwept++
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: object sweep: %w", err)
	}

	// 4. Stale lease sweep: lease files whose pid is dead.
	leases, _ := filepath.Glob(filepath.Join(s.root, leasesDir, "*"))
	for _, p := range leases {
		parts := strings.Split(filepath.Base(p), ".")
		if len(parts) < 3 {
			continue
		}
		pid, perr := strconv.Atoi(parts[1])
		if perr != nil || pidAlive(pid) {
			continue
		}
		if os.Remove(p) == nil {
			rep.StaleLeases++
		}
	}
	return rep, nil
}

// VerifyReport describes a full store audit.
type VerifyReport struct {
	Entries       int                   `json:"entries"`
	ChunksChecked int                   `json:"chunks_checked"`
	Corrupt       []*CorruptObjectError `json:"-"`
	CorruptCount  int                   `json:"corrupt"`
	MissingCount  int                   `json:"missing"`
	Mismatched    []string              `json:"mismatched,omitempty"` // entries whose assembly hashes wrong
	Orphans       int                   `json:"orphans"`
	Torn          bool                  `json:"torn"`
	TornOffset    int64                 `json:"torn_offset,omitempty"`
}

// Verify audits the whole store: every chunk of every entry is
// re-hashed (damaged objects are quarantined exactly as a read would),
// entry assemblies are checked against their digests, orphan objects
// are counted, and a crash-torn manifest tail is surfaced typed. The
// returned error is nil only for a fully clean store; otherwise it
// wraps the most severe finding (ErrObjectCorrupt > ErrObjectMissing >
// ErrDigestMismatch > ErrManifestTorn).
func (s *Store) Verify() (*VerifyReport, error) {
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
	rep := &VerifyReport{Torn: s.man.torn, TornOffset: s.man.tornOff}
	referenced := map[string]bool{}
	for _, e := range s.man.list("") {
		rep.Entries++
		h := fnv.New64a()
		broken := false
		for _, c := range e.Chunks {
			referenced[c.Digest] = true
			rep.ChunksChecked++
			chunk, cerr := s.readChunk(e.Digest, c)
			if cerr != nil {
				broken = true
				var coe *CorruptObjectError
				if errors.As(cerr, &coe) {
					rep.Corrupt = append(rep.Corrupt, coe)
					if errors.Is(cerr, ErrObjectMissing) {
						rep.MissingCount++
					} else {
						rep.CorruptCount++
					}
				} else {
					return nil, cerr
				}
				continue
			}
			h.Write(chunk)
		}
		if !broken {
			if got := fmt.Sprintf("%016x", h.Sum64()); got != e.Digest {
				rep.Mismatched = append(rep.Mismatched, e.Digest)
			}
		}
	}
	filepath.Walk(filepath.Join(s.root, objectsDir), func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() || strings.HasPrefix(fi.Name(), ".tmp-") {
			return nil
		}
		if !referenced[fi.Name()] {
			rep.Orphans++
		}
		return nil
	})
	switch {
	case rep.CorruptCount > 0:
		return rep, fmt.Errorf("%w: %d damaged chunk object(s) quarantined", ErrObjectCorrupt, rep.CorruptCount)
	case rep.MissingCount > 0:
		return rep, fmt.Errorf("%w: %d dangling chunk reference(s)", ErrObjectMissing, rep.MissingCount)
	case len(rep.Mismatched) > 0:
		return rep, fmt.Errorf("%w: %d entr(ies) assemble to the wrong digest", ErrDigestMismatch, len(rep.Mismatched))
	case rep.Torn:
		return rep, fmt.Errorf("%w: recovered tail at byte offset %d", ErrManifestTorn, rep.TornOffset)
	}
	return rep, nil
}
