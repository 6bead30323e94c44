package faultinject

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/store"
)

// StoreCorruptor deterministically damages a content-addressed store's
// on-disk state — chunk objects, the manifest log, or the index
// relation between them. Each corruptor names the typed store sentinel
// the next validation-on-read (or a full Verify sweep) must surface:
// the store's contract is that no on-disk damage is ever served
// silently or reported as a generic I/O error.
type StoreCorruptor struct {
	Name string
	// Want is the typed store error Verify must wrap after the damage
	// (matched with errors.Is).
	Want error
	// Apply damages the store rooted at root. ok is false when the
	// corruptor does not apply (e.g. the store holds no objects yet).
	// detail names what was damaged, for test diagnostics; paths in it
	// are relative to root, so the same damage reads the same in every
	// store.
	Apply func(root string) (detail string, ok bool)
}

// chunkObjects lists the store's chunk object files in sorted order, so
// corruptors pick their victim deterministically.
func chunkObjects(root string) []string {
	var out []string
	filepath.Walk(filepath.Join(root, "objects"), func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return nil
		}
		out = append(out, path)
		return nil
	})
	sort.Strings(out)
	return out
}

// rootRel returns path relative to the store root.
func rootRel(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil {
		return rel
	}
	return path
}

// StoreCorruptors returns the store damage suite: every way a disk, a
// crashed writer, or a confused operator can rot a store that the
// validation layer must catch typed.
func StoreCorruptors() []StoreCorruptor {
	return []StoreCorruptor{
		{
			// A single flipped bit in a chunk object body: the classic
			// silent disk rot. Validation-on-read re-hashes the chunk,
			// quarantines the damaged object and reports ErrObjectCorrupt.
			Name: "bit-flip-chunk",
			Want: store.ErrObjectCorrupt,
			Apply: func(root string) (string, bool) {
				objs := chunkObjects(root)
				if len(objs) == 0 {
					return "", false
				}
				victim := objs[0]
				data, err := os.ReadFile(victim)
				if err != nil || len(data) == 0 {
					return "", false
				}
				data[len(data)/2] ^= 0x20
				if err := os.WriteFile(victim, data, 0o644); err != nil {
					return "", false
				}
				return rootRel(root, victim), true
			},
		},
		{
			// The manifest's final append cut short — what a crash or a
			// full disk leaves. Open must recover the intact prefix and
			// the tear must surface typed, never as corruption and never
			// silently.
			Name: "truncate-manifest-tail",
			Want: store.ErrManifestTorn,
			Apply: func(root string) (string, bool) {
				path := filepath.Join(root, "manifest.db")
				data, err := os.ReadFile(path)
				if err != nil || len(data) < 16 {
					return "", false
				}
				cut := len(data) - 3 // into the final record, past its newline
				if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
					return "", false
				}
				return fmt.Sprintf("%s truncated to %d of %d bytes", rootRel(root, path), cut, len(data)), true
			},
		},
		{
			// A manifest entry whose chunk object vanished — a dangling
			// index entry, as left by a crash between GC's tombstone and a
			// later manual cleanup, or plain operator error. Reads must
			// report ErrObjectMissing, not invent bytes.
			Name: "dangling-index-entry",
			Want: store.ErrObjectMissing,
			Apply: func(root string) (string, bool) {
				objs := chunkObjects(root)
				if len(objs) == 0 {
					return "", false
				}
				victim := objs[0]
				if err := os.Remove(victim); err != nil {
					return "", false
				}
				return rootRel(root, victim), true
			},
		},
		{
			// A duplicate-digest collision: a manifest "add" record
			// re-claims an existing entry digest with a chunk list that
			// assembles to different content (the append-only log's
			// last-write-wins makes the bogus record authoritative). The
			// chunks themselves are intact, so only whole-file digest
			// validation catches it — ErrDigestMismatch, never the wrong
			// bytes.
			Name: "duplicate-digest-collision",
			Want: store.ErrDigestMismatch,
			Apply: func(root string) (string, bool) {
				s, err := store.Open(root)
				if err != nil {
					return "", false
				}
				infos, err := s.List("")
				if err != nil || len(infos) == 0 {
					return "", false
				}
				objs := chunkObjects(root)
				if len(objs) == 0 {
					return "", false
				}
				fi, err := os.Stat(objs[0])
				if err != nil {
					return "", false
				}
				chunk := map[string]any{"digest": filepath.Base(objs[0]), "size": fi.Size()}
				// The first chunk twice: its doubled assembly cannot hash
				// to the victim's recorded whole-file digest.
				rec := map[string]any{
					"op": "add",
					"entry": map[string]any{
						"digest":     infos[0].Digest,
						"size":       2 * fi.Size(),
						"chunks":     []any{chunk, chunk},
						"added_unix": infos[0].AddedUnix,
						"touch_unix": infos[0].TouchUnix,
					},
				}
				line, err := json.Marshal(rec)
				if err != nil {
					return "", false
				}
				f, err := os.OpenFile(filepath.Join(root, "manifest.db"), os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					return "", false
				}
				defer f.Close()
				if _, err := f.Write(append(line, '\n')); err != nil {
					return "", false
				}
				return fmt.Sprintf("entry %s re-added over chunk %s", infos[0].Digest, filepath.Base(objs[0])), true
			},
		},
	}
}
