package pinball

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/vm"
)

// gzWriters recycles gzip writers across section encodes. A fresh
// deflate state is several hundred KB, and the journal seals dozens of
// frames per recording.
var gzWriters = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

// packPayload gob-encodes v through a pooled gzip writer and returns
// the compressed section payload.
func packPayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzWriters.Get().(*gzip.Writer)
	zw.Reset(&buf)
	err := gob.NewEncoder(zw).Encode(v)
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	gzWriters.Put(zw)
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// On-disk framing. Every pinball starts with the magic, a format version
// byte and a kind byte, followed by section frames: id (1B), payload
// length (8B big-endian), CRC32-IEEE of the payload (4B), payload.
// Truncation and bit flips are detected before anything is decoded.
//
//	version 4 ("journal"): the only version written. Frames follow the
//	kind byte and end with a commit frame carrying the authoritative
//	meta and the manifest of every frame before it. The recording
//	journal appends frames as a recording runs (journal.go); Save
//	writes the same format in one shot. A journal without its commit
//	frame is an interrupted recording: Load rejects it as truncated,
//	Salvage recovers what it can. The stream chunks (ids 8-11) carry
//	delta-varint records (records.go); every other payload is
//	gzip-compressed gob.
//	version 3: read-only. The version 4 layout with every payload,
//	stream chunks included, gzip-compressed gob.
//	version 2 ("framed"): read-only. A section-count byte follows the
//	kind byte; sections 3, 4, 5 and 7 carry whole streams, and the meta
//	section's manifest lists every section. Every payload is
//	gzip-compressed gob.
//
// Version 1, the pre-framing gzip+gob format, is no longer read: Load
// rejects it with ErrVersionSkew.
//
// The stream chunks are not deflated: deflate at its fastest level costs
// several times what the whole record codec does (DESIGN.md §7.1).
const (
	fileMagic      = "DRPB"
	versionFramed  = byte(2) // read-only section-framed format
	versionJournal = byte(4) // the written format
)

// readableVersion reports whether this build reads format version v:
// 2, 3 (the journal with gob stream chunks) or 4.
func readableVersion(v byte) bool {
	return v >= versionFramed && v <= versionJournal
}

// Section ids. Unknown ids are checksum-verified and skipped, leaving
// room for additive extensions.
const (
	secMeta  = byte(1)
	secState = byte(2)
	// Whole-stream sections of version 2 files; journals carry the same
	// streams as chunk frames (ids 8-11).
	secSchedule    = byte(3)
	secSyscalls    = byte(4)
	secOrder       = byte(5)
	secSlice       = byte(6) // sliceV1, slice pinballs only
	secCheckpoints = byte(7)
	// Stream chunks: each carries a delta that is appended to the
	// stream. Save writes each stream as a single chunk. Version 4
	// payloads are records (records.go), version 3 ones gob.
	secQuantaChunk     = byte(8)  // []vm.Quantum
	secSyscallChunk    = byte(9)  // []vm.SyscallRecord
	secOrderChunk      = byte(10) // []vm.OrderEdge
	secCheckpointChunk = byte(11) // []Checkpoint
	secCommit          = byte(12) // metaV1, authoritative, terminates the journal
	// secRing carries the flight-recorder payload (ringV1): budget,
	// sampling policy, eviction manifest and bridge recipe.
	secRing       = byte(13)
	secRecipe     = byte(14) // Recipe, written right after the state frame
	secRingWindow = byte(15) // ringWindowV1, one per sealed flush window
)

// sectionHeaderLen is id + length + crc.
const sectionHeaderLen = 1 + 8 + 4

// maxSectionLen bounds a single section payload (1 GiB compressed) so a
// tampered length field cannot drive a huge allocation.
const maxSectionLen = int64(1) << 30

// metaV1 is the meta section payload: everything about the pinball that
// is not bulk data.
type metaV1 struct {
	ProgramName     string
	Kind            Kind
	RegionInstrs    int64
	MainInstrs      int64
	SkipMain        int64
	EndReason       string
	Failure         *vm.Failure
	CheckpointEvery int64
	// Sections is the manifest: the ids of every frame before the commit
	// frame (every section of a version 2 file), in file order. Decode
	// rejects a file whose frames disagree with it, and Salvage uses it to
	// tell which frames a torn file lost. Empty in the provisional meta of
	// a recording journal and in files written before the manifest
	// existed (gob decodes the missing field as nil).
	Sections []byte
}

// sliceV1 is the slice section payload.
type sliceV1 struct {
	Exclusions []Exclusion
	Injections []Injection
}

// meta builds the meta section payload with the given section manifest.
func (p *Pinball) meta(manifest []byte) metaV1 {
	return metaV1{
		ProgramName: p.ProgramName, Kind: p.Kind,
		RegionInstrs: p.RegionInstrs, MainInstrs: p.MainInstrs, SkipMain: p.SkipMain,
		EndReason: p.EndReason, Failure: p.Failure, CheckpointEvery: p.CheckpointEvery,
		Sections: manifest,
	}
}

// applyMeta copies the meta payload's fields onto the pinball.
func (p *Pinball) applyMeta(meta metaV1) {
	p.ProgramName, p.Kind = meta.ProgramName, meta.Kind
	p.RegionInstrs, p.MainInstrs, p.SkipMain = meta.RegionInstrs, meta.MainInstrs, meta.SkipMain
	p.EndReason, p.Failure, p.CheckpointEvery = meta.EndReason, meta.Failure, meta.CheckpointEvery
}

// kindByte maps a pinball kind to its header triage byte.
func kindByte(k Kind) byte {
	switch k {
	case KindWhole:
		return 'W'
	case KindSlice:
		return 'S'
	default:
		return 'R'
	}
}

// frameWriter seals section frames onto w and records their ids, which
// become the commit frame's manifest. It keeps a sticky error: after the
// first failure every later append is a no-op.
type frameWriter struct {
	w   io.Writer
	ids []byte
	buf []byte // record payload scratch, reused across frames
	err error
}

// header writes the version 4 file header.
func (fw *frameWriter) header(k Kind) {
	_, fw.err = fw.w.Write(append([]byte(fileMagic), versionJournal, kindByte(k)))
}

// append seals one section frame: payload, length, CRC.
func (fw *frameWriter) append(id byte, v any) {
	if fw.err != nil {
		return
	}
	payload, err := fw.pack(v)
	if err != nil {
		fw.err = fmt.Errorf("encode section %d: %w", id, err)
		return
	}
	var hdr [sectionHeaderLen]byte
	hdr[0] = id
	binary.BigEndian.PutUint64(hdr[1:9], uint64(len(payload)))
	binary.BigEndian.PutUint32(hdr[9:13], crc32.ChecksumIEEE(payload))
	if _, fw.err = fw.w.Write(hdr[:]); fw.err != nil {
		return
	}
	if _, fw.err = fw.w.Write(payload); fw.err == nil {
		fw.ids = append(fw.ids, id)
	}
}

// pack returns the frame payload for v: the bulk streams as records,
// everything else gob+gzip.
func (fw *frameWriter) pack(v any) ([]byte, error) {
	b := fw.buf[:0]
	switch v := v.(type) {
	case []vm.Quantum:
		b = appendQuanta(b, v)
	case []vm.SyscallRecord:
		b = appendSyscalls(b, v)
	case []vm.OrderEdge:
		b = appendEdges(b, v)
	case []Checkpoint:
		b = appendCheckpoints(b, v)
	default:
		return packPayload(v)
	}
	fw.buf = b
	return b, nil
}

// ringFrame returns the ring frame payload and whether p has
// flight-recorder fields to carry.
func (p *Pinball) ringFrame() (ringV1, bool) {
	return ringV1{p.RingBytes, p.SampleKeep, p.Evictions, p.Recipe},
		p.RingBytes != 0 || p.SampleKeep != 0 || len(p.Evictions) > 0 || p.Recipe != nil
}

// Save writes the pinball to path as a committed journal (the paper
// bzip2-compresses pinballs; here the bulk streams are delta-varint
// records and the small frames gzip). The write is
// crash-safe: the file is staged in a temporary sibling, fsynced and
// atomically renamed into place, so a crash or disk-full mid-save leaves
// either the previous complete file or no file — never a torn pinball,
// and never a stray temp file.
func (p *Pinball) Save(path string) error {
	if err := writeFileAtomic(path, p.encode); err != nil {
		return fmt.Errorf("pinball: save %s: %w", path, err)
	}
	return nil
}

// EncodeBytes returns the on-disk representation of the pinball, exactly
// as Save would write it. The fault-injection harness corrupts these
// bytes in memory instead of going through temporary files.
func (p *Pinball) EncodeBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := p.encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encode writes the pinball to w as a single-shot journal: a leading
// meta frame carrying the full manifest, the state, the recipe, each
// non-empty stream as one chunk with the optional streams (order edges,
// checkpoints) last, then the ring and commit frames. A file torn
// anywhere still opens with a manifest that tells Salvage what was lost.
func (p *Pinball) encode(w io.Writer) error {
	type section struct {
		id byte
		v  any
	}
	secs := []section{{secMeta, nil}, {secState, p.State}}
	add := func(id byte, v any, present bool) {
		if present {
			secs = append(secs, section{id, v})
		}
	}
	add(secRecipe, p.Recipe, p.Recipe != nil)
	add(secQuantaChunk, p.Quanta, len(p.Quanta) > 0)
	add(secSyscallChunk, p.Syscalls, len(p.Syscalls) > 0)
	add(secSlice, sliceV1{p.Exclusions, p.Injections}, len(p.Exclusions) > 0 || len(p.Injections) > 0)
	add(secOrderChunk, p.OrderEdges, len(p.OrderEdges) > 0)
	add(secCheckpointChunk, p.Checkpoints, len(p.Checkpoints) > 0)
	rg, ring := p.ringFrame()
	add(secRing, rg, ring)
	manifest := make([]byte, len(secs))
	for i, s := range secs {
		manifest[i] = s.id
	}
	secs[0].v = p.meta(manifest)

	fw := &frameWriter{w: w}
	fw.header(p.Kind)
	for _, s := range secs {
		fw.append(s.id, s.v)
	}
	fw.append(secCommit, p.meta(fw.ids))
	return fw.err
}

// Load reads, checksum-verifies and structurally validates a pinball.
// Every error is wrapped with the file path and one of the typed
// sentinels (ErrNotPinball, ErrVersionSkew, ErrTruncated, ErrCorrupt).
func Load(path string) (*Pinball, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pinball: %w", err)
	}
	p, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("pinball: load %s: %w", path, err)
	}
	return p, nil
}

// Decode parses pinball file bytes (versions 2 to 4), verifying
// checksums, the manifest and structural invariants.
func Decode(data []byte) (*Pinball, error) {
	if len(data) < len(fileMagic)+1 {
		return nil, fmt.Errorf("%w: %d-byte file", ErrNotPinball, len(data))
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrNotPinball)
	}
	if v := data[len(fileMagic)]; !readableVersion(v) {
		return nil, fmt.Errorf("%w: file has version %d, this build reads versions %d to %d",
			ErrVersionSkew, v, versionFramed, versionJournal)
	}
	parts, err := readFrames(data, -1)
	if err != nil {
		return nil, err
	}
	if !parts.committed {
		return nil, fmt.Errorf("%w: no commit frame — the recording was interrupted or the file was cut short (run drrepair, or load with salvage enabled)", ErrTruncated)
	}
	if i := parts.drift(); i >= 0 {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, parts.driftCause(i))
	}
	p := parts.p
	p.applyMeta(parts.meta)
	if kindByte(p.Kind) != parts.kindB {
		return nil, fmt.Errorf("%w: header kind %q does not match meta kind %q", ErrCorrupt, parts.kindB, p.Kind)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// frame is one parsed section frame: its id, 1-based position in the
// file, absolute byte offset and checksum-verified payload.
type frame struct {
	id      byte
	index   int
	off     int64
	payload []byte
}

// readFrame parses and checksum-verifies the frame at absolute byte
// offset off of the file bytes. Every error names the failing section's
// index and byte offset, so corruption reports (and drrepair diagnostics)
// point at the damage instead of just declaring it.
func readFrame(data []byte, off int64, index int) (frame, int64, error) {
	if int64(len(data)) < off+sectionHeaderLen {
		return frame{}, 0, fmt.Errorf("%w: file ends inside the header of section #%d at byte offset %d",
			ErrTruncated, index, off)
	}
	id := data[off]
	n := int64(binary.BigEndian.Uint64(data[off+1 : off+9]))
	sum := binary.BigEndian.Uint32(data[off+9 : off+13])
	if n < 0 || n > maxSectionLen {
		return frame{}, 0, fmt.Errorf("%w: section id %d (#%d) at byte offset %d claims %d bytes",
			ErrCorrupt, id, index, off, n)
	}
	if int64(len(data)) < off+sectionHeaderLen+n {
		return frame{}, 0, fmt.Errorf("%w: section id %d (#%d) at byte offset %d claims %d payload bytes, %d remain",
			ErrTruncated, id, index, off, n, int64(len(data))-off-sectionHeaderLen)
	}
	payload := data[off+sectionHeaderLen : off+sectionHeaderLen+n]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return frame{}, 0, fmt.Errorf("%w: section id %d (#%d) at byte offset %d checksum mismatch (want %08x, got %08x)",
			ErrCorrupt, id, index, off, sum, got)
	}
	return frame{id: id, index: index, off: off, payload: payload}, off + sectionHeaderLen + n, nil
}

// decode decompresses and gob-decodes the frame payload into dst,
// pinning errors to the frame's location.
func (f frame) decode(dst any) error {
	zr, err := gzip.NewReader(bytes.NewReader(f.payload))
	if err != nil {
		return fmt.Errorf("%w: section id %d (#%d) at byte offset %d: decompress: %v",
			ErrCorrupt, f.id, f.index, f.off, err)
	}
	defer zr.Close()
	return f.wrap(gobDecode(zr, dst))
}

// wrap pins a payload decode error to the frame's location.
func (f frame) wrap(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("section id %d (#%d) at byte offset %d: %w", f.id, f.index, f.off, err)
}

// gobDecode decodes into v, converting both gob errors and gob panics
// (which malformed streams can trigger deep inside the decoder) into
// typed errors.
func gobDecode(r io.Reader, v any) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: decode panic: %v", ErrCorrupt, p)
		}
	}()
	if err := gob.NewDecoder(r).Decode(v); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: stream ends mid-value", ErrTruncated)
		}
		return fmt.Errorf("%w: decode: %v", ErrCorrupt, err)
	}
	return nil
}

// frameStart returns where the first frame of a version 2 to 4 file
// starts, and the section count a version 2 header declares (-1 for a
// journal, whose frames run to its commit frame).
func frameStart(data []byte) (off int64, count int, err error) {
	off = int64(len(fileMagic) + 2)
	v := data[len(fileMagic)]
	switch {
	case v == versionFramed:
		off++
	case !readableVersion(v):
		return 0, 0, fmt.Errorf("%w: version %d has no section framing", ErrVersionSkew, v)
	}
	if int64(len(data)) < off {
		return 0, 0, fmt.Errorf("%w: header ends after version byte", ErrTruncated)
	}
	if v == versionFramed {
		return off, int(data[off-1]), nil
	}
	return off, -1, nil
}

// SectionInfo locates one framed section inside a pinball file; Off is
// the frame start and Len the full frame length (header + payload). The
// fault-injection harness uses it to drop or damage precise sections.
type SectionInfo struct {
	ID  byte
	Off int64
	Len int64
}

// SectionOffsets walks the framing of version 2 to 4 pinball file bytes
// without decoding payloads. It fails with the same typed errors as
// Decode.
func SectionOffsets(data []byte) ([]SectionInfo, error) {
	if len(data) < len(fileMagic)+1 {
		return nil, fmt.Errorf("%w: %d-byte file", ErrTruncated, len(data))
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrNotPinball)
	}
	off, count, err := frameStart(data)
	if err != nil {
		return nil, err
	}
	var out []SectionInfo
	for i := 1; count < 0 || i <= count; i++ {
		if count < 0 && off == int64(len(data)) {
			break
		}
		if int64(len(data)) < off+sectionHeaderLen {
			return nil, fmt.Errorf("%w: file ends inside section header %d", ErrTruncated, i)
		}
		n := int64(binary.BigEndian.Uint64(data[off+1 : off+9]))
		if n < 0 || n > maxSectionLen || int64(len(data)) < off+sectionHeaderLen+n {
			return nil, fmt.Errorf("%w: section %d overruns the file", ErrTruncated, i)
		}
		out = append(out, SectionInfo{ID: data[off], Off: off, Len: sectionHeaderLen + n})
		off += sectionHeaderLen + n
	}
	return out, nil
}

// EncodedSize returns the on-disk size of the pinball in bytes by
// encoding it to a counting sink; the evaluation tables report this as
// the pinball's space overhead.
func (p *Pinball) EncodedSize() (int64, error) {
	var cw countingWriter
	if err := p.encode(&cw); err != nil {
		return 0, err
	}
	return cw.n, nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(b []byte) (int, error) {
	c.n += int64(len(b))
	return len(b), nil
}
