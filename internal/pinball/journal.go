package pinball

import (
	"fmt"
	"os"

	"repro/internal/vm"
)

// Incremental journal (format version 4; version 3 is the same layout
// with gob stream chunks). A pinball written with Save
// only exists once recording has finished; a crash mid-record loses the
// whole capture. The journal inverts that: the file starts with the
// sections known at region entry (provisional meta, initial machine
// state) and then grows by checksummed chunk frames as the recording
// runs, each flush covering a window of the region. A final commit frame
// carries the authoritative meta and marks the recording complete.
//
// Chunk frames inside one flush are ordered syscalls, order edges,
// checkpoints, then quanta LAST. Because frames are appended in order, a
// torn tail that keeps a flush's quanta chunk necessarily keeps every
// event chunk of the same window — so the longest valid frame prefix is
// always consistent up to its last quanta chunk, and Salvage can anchor
// a replayable truncation at the last divergence checkpoint it covers.
//
// Load accepts only committed journals; an uncommitted journal is an
// interrupted recording and fails with ErrTruncated (pointing the user
// at drrepair / Salvage).

// JournalWriter appends a recording to disk as it happens. Methods keep
// a sticky error: after the first failure every later call is a no-op
// returning the same error, so the recording loop does not need to check
// every flush.
type JournalWriter struct {
	f    *os.File
	fw   frameWriter
	path string
	sync bool
	err  error
}

// NewJournalWriter creates (truncating) the journal at path and writes
// the header, the provisional meta and the initial state section from p
// — which only needs the fields known at region entry: ProgramName,
// Kind, CheckpointEvery and State. When sync is true every sealed chunk
// is fsynced, making each flushed window durable immediately.
func NewJournalWriter(path string, p *Pinball, sync bool) (*JournalWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("pinball: journal: %w", err)
	}
	w := &JournalWriter{f: f, fw: frameWriter{w: f}, path: path, sync: sync}
	w.fw.header(p.Kind)
	w.appendFrame(secMeta, p.meta(nil))
	w.appendFrame(secState, p.State)
	w.maybeSync()
	if w.err != nil {
		f.Close()
		return nil, w.err
	}
	return w, nil
}

// Path returns where the journal is being written.
func (w *JournalWriter) Path() string { return w.path }

// Err returns the sticky write error, if any.
func (w *JournalWriter) Err() error { return w.err }

// fail records the first error and stops further writes.
func (w *JournalWriter) fail(err error) {
	if w.err == nil {
		w.err = fmt.Errorf("pinball: journal %s: %w", w.path, err)
	}
}

// appendFrame seals one section frame through the frame writer, which
// records its id for the commit manifest.
func (w *JournalWriter) appendFrame(id byte, v any) {
	if w.err != nil {
		return
	}
	w.fw.append(id, v)
	if w.fw.err != nil {
		w.fail(w.fw.err)
	}
}

// maybeSync fsyncs the journal when durable flushing is on.
func (w *JournalWriter) maybeSync() {
	if w.err != nil || !w.sync {
		return
	}
	if err := w.f.Sync(); err != nil {
		w.fail(err)
	}
}

// AppendChunk seals one flush window: the non-empty deltas since the
// previous flush, quanta written last so a torn tail can never keep a
// schedule window whose events were lost.
func (w *JournalWriter) AppendChunk(quanta []vm.Quantum, syscalls []vm.SyscallRecord, edges []vm.OrderEdge, cps []Checkpoint) error {
	if len(syscalls) > 0 {
		w.appendFrame(secSyscallChunk, syscalls)
	}
	if len(edges) > 0 {
		w.appendFrame(secOrderChunk, edges)
	}
	if len(cps) > 0 {
		w.appendFrame(secCheckpointChunk, cps)
	}
	if len(quanta) > 0 {
		w.appendFrame(secQuantaChunk, quanta)
	}
	w.maybeSync()
	return w.err
}

// AppendRecipe seals the bridge-recipe frame. Ring recordings write it
// immediately after the header sections, so even a journal torn at the
// first flush still knows how to re-derive the region by re-execution.
func (w *JournalWriter) AppendRecipe(r *Recipe) error {
	w.appendFrame(secRecipe, r)
	w.maybeSync()
	return w.err
}

// AppendWindowSeal records that the ring recorder sealed flush window id
// covering global region steps [fromStep, toStep) with the given windowed
// event hash. The window's content stays in the in-memory ring (it may
// yet be evicted); only retained content is written at commit. Together
// with the recipe frame this makes an interrupted ring journal fully
// recoverable: every sealed window becomes a verifiable gap.
func (w *JournalWriter) AppendWindowSeal(id, fromStep, toStep int64, hash uint64) error {
	w.appendFrame(secRingWindow, ringWindowV1{ID: id, FromStep: fromStep, ToStep: toStep, Hash: hash})
	w.maybeSync()
	return w.err
}

// Commit writes the ring frame (for flight-recorder recordings) and the
// commit frame — the authoritative meta from the finished pinball plus
// the manifest of every frame appended before it — then fsyncs and
// closes the journal. Only then is the file a complete, loadable
// pinball.
func (w *JournalWriter) Commit(final *Pinball) error {
	if rg, ok := final.ringFrame(); ok {
		w.appendFrame(secRing, rg)
	}
	w.appendFrame(secCommit, final.meta(w.fw.ids))
	if w.err == nil {
		if err := w.f.Sync(); err != nil {
			w.fail(err)
		}
	}
	if err := w.f.Close(); err != nil && w.err == nil {
		w.fail(err)
	}
	return w.err
}

// Abort closes the journal without committing. The file is left on disk:
// it is exactly what a crash would have left, and Salvage can recover
// its checkpoint-consistent prefix.
func (w *JournalWriter) Abort() error {
	if err := w.f.Close(); err != nil && w.err == nil {
		w.fail(err)
	}
	return w.err
}

// journalParts accumulates the valid frame prefix of a version 2 to 4
// file. Every version is read by the same walker: a version 2 file is a
// journal whose whole-stream sections are one chunk each, and which is
// complete — committed — once its declared section count has been read.
// The version byte selects the stream codec: records in version 4, gob
// before it.
type journalParts struct {
	version   byte
	kindB     byte
	meta      metaV1 // provisional at first, overwritten by the commit frame
	hasMeta   bool
	committed bool
	p         *Pinball
	ids       []byte  // ids of the frames read, in file order
	offs      []int64 // their byte offsets
	end       int64   // byte offset just past the last good frame

	// Ring (flight-recorder) journal state: ringMode is set by the recipe
	// frame; windows accumulates every window-seal frame, in order.
	ringMode bool
	windows  []ringWindowV1
}

// readFrames walks the file's frames from the top, accumulating them in
// order, until the commit frame (a version 2 file's last declared
// section), end of file, limit frames (limit < 0 for no limit), or the
// first damaged frame — in which case the error describes the damage and
// parts holds everything before it (parts.end is the damage offset). The
// caller has checked the magic.
func readFrames(data []byte, limit int) (*journalParts, error) {
	parts := &journalParts{p: &Pinball{}, version: data[len(fileMagic)]}
	off, count, err := frameStart(data)
	if err != nil {
		parts.end = int64(len(data))
		return parts, err
	}
	parts.kindB, parts.end = data[len(fileMagic)+1], off
	for len(parts.ids) != limit {
		if len(parts.ids) == count {
			parts.committed = true
		}
		if parts.committed {
			if rest := int64(len(data)) - off; rest != 0 {
				return parts, fmt.Errorf("%w: %d trailing bytes after the last frame at byte offset %d", ErrCorrupt, rest, off)
			}
			break
		}
		if count < 0 && off == int64(len(data)) {
			break
		}
		f, next, err := readFrame(data, off, len(parts.ids)+1)
		if err != nil {
			return parts, err
		}
		if err := parts.applyFrame(f); err != nil {
			return parts, err
		}
		parts.ids = append(parts.ids, f.id)
		parts.offs = append(parts.offs, f.off)
		parts.end, off = next, next
	}
	return parts, nil
}

// applyFrame merges one valid frame into the accumulated state. The
// version 2 whole-stream sections are applied as a single chunk each.
func (j *journalParts) applyFrame(f frame) error {
	switch f.id {
	case secMeta, secCommit:
		var m metaV1
		if err := f.decode(&m); err != nil {
			return err
		}
		j.meta, j.hasMeta = m, true
		j.committed = f.id == secCommit
	case secState:
		return f.decode(&j.p.State)
	case secSchedule, secQuantaChunk:
		q, err := stream(j, f, decodeQuanta)
		if err != nil {
			return err
		}
		// A flush boundary can split a still-open quantum across chunks;
		// re-join it so the decoded schedule is the machine's run-length
		// form, bit-identical to a Save.
		if n := len(j.p.Quanta); n > 0 && len(q) > 0 && j.p.Quanta[n-1].Tid == q[0].Tid {
			j.p.Quanta[n-1].Count += q[0].Count
			q = q[1:]
		}
		j.p.Quanta = join(j.p.Quanta, q)
	case secSyscalls, secSyscallChunk:
		s, err := stream(j, f, decodeSyscalls)
		if err != nil {
			return err
		}
		j.p.Syscalls = join(j.p.Syscalls, s)
	case secOrder, secOrderChunk:
		e, err := stream(j, f, decodeEdges)
		if err != nil {
			return err
		}
		j.p.OrderEdges = join(j.p.OrderEdges, e)
	case secCheckpoints, secCheckpointChunk:
		c, err := stream(j, f, decodeCheckpoints)
		if err != nil {
			return err
		}
		j.p.Checkpoints = join(j.p.Checkpoints, c)
	case secSlice:
		var sl sliceV1
		if err := f.decode(&sl); err != nil {
			return err
		}
		j.p.Exclusions, j.p.Injections = sl.Exclusions, sl.Injections
	case secRecipe:
		var r Recipe
		if err := f.decode(&r); err != nil {
			return err
		}
		j.p.Recipe = &r
		j.ringMode = true
	case secRingWindow:
		var wv ringWindowV1
		if err := f.decode(&wv); err != nil {
			return err
		}
		j.windows = append(j.windows, wv)
	case secRing:
		var rg ringV1
		if err := f.decode(&rg); err != nil {
			return err
		}
		j.p.RingBytes, j.p.SampleKeep = rg.RingBytes, rg.SampleKeep
		j.p.Evictions = rg.Evictions
		if rg.Recipe != nil {
			j.p.Recipe = rg.Recipe
		}
	}
	return nil // checksum-verified unknown section: skip
}

// stream decodes a stream frame's payload with the file version's codec.
func stream[T any](j *journalParts, f frame, records func([]byte) ([]T, error)) ([]T, error) {
	if j.version == versionJournal {
		s, err := records(f.payload)
		return s, f.wrap(err)
	}
	var s []T
	return s, f.decode(&s)
}

// join appends a decoded chunk to its stream, adopting the chunk itself
// when it is the first.
func join[T any](dst, src []T) []T {
	if len(dst) == 0 {
		return src
	}
	return append(dst, src...)
}

// framesBeforeCommit returns the ids the manifest must list: every frame
// read except a journal's commit frame.
func (j *journalParts) framesBeforeCommit() []byte {
	if j.committed && j.version != versionFramed {
		return j.ids[:len(j.ids)-1]
	}
	return j.ids
}

// drift returns the index of the first frame whose id disagrees with the
// manifest — a frame dropped, duplicated or reordered — or -1 when the
// frames read agree with it. A committed file must match the manifest
// exactly; an uncommitted prefix only has to be a prefix of it. Files
// without a manifest (journals written before it existed) never drift.
func (j *journalParts) drift() int {
	manifest, ids := j.meta.Sections, j.framesBeforeCommit()
	if len(manifest) == 0 {
		return -1
	}
	for i, id := range ids {
		if i >= len(manifest) || manifest[i] != id {
			return i
		}
	}
	if j.committed && len(ids) < len(manifest) {
		return len(ids)
	}
	return -1
}

// driftCause describes the manifest disagreement at frame index i.
func (j *journalParts) driftCause(i int) string {
	manifest, ids := j.meta.Sections, j.framesBeforeCommit()
	switch {
	case i >= len(ids):
		return fmt.Sprintf("the manifest lists %d frames but the file has %d: frame #%d (id %d) is missing",
			len(manifest), len(ids), i+1, manifest[i])
	case i >= len(manifest):
		return fmt.Sprintf("frame #%d (id %d) at byte offset %d is not in the %d-frame manifest",
			i+1, ids[i], j.offs[i], len(manifest))
	}
	return fmt.Sprintf("frame #%d at byte offset %d has id %d, the manifest says %d",
		i+1, j.offs[i], ids[i], manifest[i])
}
