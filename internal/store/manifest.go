package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// The manifest is an append-only streamed-JSON database: a header line
// followed by one JSON record per line. Readers build the in-memory
// index by replaying the records in order (last write wins), so the
// only write operation a mutator ever needs is a single O_APPEND write
// of one line — which is what makes concurrent writers and crashes
// tractable:
//
//   - a crash mid-append leaves a torn final line; Open recovers the
//     intact prefix and reports the tear typed (ErrManifestTorn) instead
//     of failing or silently dropping it;
//   - damage anywhere else cannot be explained by an interrupted append
//     and is rejected typed (ErrManifestCorrupt);
//   - GC makes deletions durable as tombstone records *before* touching
//     any object file, so a crash between the two leaves orphan objects
//     (harmless, reclaimed by the next GC) — never a live entry pointing
//     at deleted objects.
//
// GC compacts the log by rewriting it (header + one "add" per live
// entry, pins and touch times folded in) and renaming it into place
// atomically.

// manifestHeader is the first line of every manifest file.
const manifestHeader = `{"drstore":1}`

// Chunk is one content-addressed piece of a stored pinball.
type Chunk struct {
	Digest string `json:"digest"`
	Size   int64  `json:"size"`
}

// Entry is one stored pinball: its full-file content digest, the
// ordered chunk list that reassembles it, capture metadata for ls, and
// the retention state GC decides by.
type Entry struct {
	Digest    string  `json:"digest"`
	Size      int64   `json:"size"`
	Chunks    []Chunk `json:"chunks"`
	Program   string  `json:"program,omitempty"`
	Kind      string  `json:"kind,omitempty"`
	AddedUnix int64   `json:"added_unix"`
	TouchUnix int64   `json:"touch_unix"`
	Pinned    bool    `json:"pinned,omitempty"`
}

// record is one manifest line. Op selects which fields are meaningful:
// "add" carries Entry; "pin"/"unpin"/"del" carry Digest; "touch"
// carries Digest and Unix.
type record struct {
	Op     string `json:"op"`
	Entry  *Entry `json:"entry,omitempty"`
	Digest string `json:"digest,omitempty"`
	Unix   int64  `json:"unix,omitempty"`
}

// manifest is the replayed in-memory index.
type manifest struct {
	entries map[string]*Entry
	// torn reports a recovered crash-torn tail: the byte offset the
	// damage starts at and the cause. Zero offset with torn=false means
	// the file was clean.
	torn    bool
	tornOff int64
}

// loadManifest replays the manifest file at path. A missing file is an
// empty store. A torn final line is recovered past (torn=true); any
// other damage fails with ErrManifestCorrupt.
func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}
	return parseManifest(data)
}

// parseManifest replays manifest file bytes (see loadManifest).
func parseManifest(data []byte) (*manifest, error) {
	m := &manifest{entries: make(map[string]*Entry)}
	if len(data) == 0 {
		return m, nil
	}
	off := int64(0)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		lineLen := int64(len(line)) + 1 // + newline
		// A final line without its newline (or mid-JSON) is a torn append.
		atEOF := off+int64(len(line)) >= int64(len(data))
		if first {
			first = false
			var hdr struct {
				V int `json:"drstore"`
			}
			if err := json.Unmarshal(line, &hdr); err != nil || hdr.V != 1 {
				if atEOF {
					m.torn, m.tornOff = true, off
					return m, nil
				}
				return nil, fmt.Errorf("%w: bad header %q", ErrManifestCorrupt, truncateForError(line))
			}
			off += lineLen
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil || !applyRecord(m, &r) {
			if atEOF {
				m.torn, m.tornOff = true, off
				return m, nil
			}
			return nil, fmt.Errorf("%w: record at byte offset %d: %q", ErrManifestCorrupt, off, truncateForError(line))
		}
		off += lineLen
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrManifestCorrupt, err)
	}
	// A file that does not end in a newline tore mid-append even if the
	// fragment happened to parse (e.g. truncation landing on a brace).
	if data[len(data)-1] != '\n' && !m.torn {
		m.torn, m.tornOff = true, int64(len(data))
	}
	return m, nil
}

// applyRecord merges one record into the index, reporting false for
// records that are structurally senseless (unknown op, add without an
// entry) — the caller decides whether that is a torn tail or corruption.
func applyRecord(m *manifest, r *record) bool {
	switch r.Op {
	case "add":
		if r.Entry == nil || r.Entry.Digest == "" {
			return false
		}
		e := *r.Entry
		m.entries[e.Digest] = &e
	case "pin", "unpin", "touch", "del":
		if r.Digest == "" {
			return false
		}
		e := m.entries[r.Digest]
		if e == nil {
			return true // pin/touch/del of an already-collected entry: no-op
		}
		switch r.Op {
		case "pin":
			e.Pinned = true
		case "unpin":
			e.Pinned = false
		case "touch":
			e.TouchUnix = r.Unix
		case "del":
			delete(m.entries, r.Digest)
		}
	default:
		return false
	}
	return true
}

// list returns the live entries whose digest starts with prefix, in
// digest order — the manifest's prefix iteration.
func (m *manifest) list(prefix string) []*Entry {
	var out []*Entry
	for d, e := range m.entries {
		if strings.HasPrefix(d, prefix) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out
}

// encodeRecord marshals one manifest line (with trailing newline).
func encodeRecord(r *record) ([]byte, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("store: encode manifest record: %w", err)
	}
	return append(data, '\n'), nil
}

// compactBytes renders the full replacement manifest for the live
// index: header plus one "add" per entry, in digest order.
func (m *manifest) compactBytes() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(manifestHeader)
	buf.WriteByte('\n')
	for _, e := range m.list("") {
		line, err := encodeRecord(&record{Op: "add", Entry: e})
		if err != nil {
			return nil, err
		}
		buf.Write(line)
	}
	return buf.Bytes(), nil
}

func truncateForError(line []byte) string {
	const max = 80
	if len(line) > max {
		return string(line[:max]) + "..."
	}
	return string(line)
}
