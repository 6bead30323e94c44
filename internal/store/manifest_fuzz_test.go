package store_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/store"
)

// manifestCases pins manifest inputs at the edges of the torn-tail
// versus corruption rule that the manifest tests do not cover, in the
// {summary, input, wantErr} shape every fuzz crasher is kept in. A nil
// wantErr means the input replays (a torn tail included).
var manifestCases = []struct {
	summary string
	input   string
	wantErr error
}{
	{"an empty file is an empty store", "", nil},
	{"a header torn at end of file is a torn tail", "{\"drst", nil},
	{"an add without an entry before the last line is corruption", "{\"drstore\":1}\n{\"op\":\"add\"}\n\n", store.ErrManifestCorrupt},
	{"a blank line before the last line is corruption", "{\"drstore\":1}\n\n{\"op\":\"del\",\"digest\":\"x\"}\n", store.ErrManifestCorrupt},
	{"records about entries never added are no-ops", "{\"drstore\":1}\n{\"op\":\"touch\",\"digest\":\"x\",\"unix\":5}\n{\"op\":\"del\",\"digest\":\"y\"}\n", nil},
}

func TestManifestCases(t *testing.T) {
	for _, tc := range manifestCases {
		_, _, err := store.ParseManifest([]byte(tc.input))
		if tc.wantErr == nil && err != nil || tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err %v, want %v", tc.summary, err, tc.wantErr)
		}
	}
}

// manifestSeeds builds real manifests — an append log of adds, a touch
// and a pin, and the same store after GC compaction — plus
// the manifest each store corruptor leaves behind (torn tail, dangling
// entry, duplicate-digest add).
func manifestSeeds(t testing.TB) [][]byte {
	t.Helper()
	populate := func(root string) {
		s, err := store.Open(root)
		if err != nil {
			t.Fatal(err)
		}
		var digests []string
		for _, body := range []string{"alpha", "beta", "gamma"} {
			res, err := s.Put(append([]byte("DRPB\x03"), body...), store.PutMeta{Program: body + ".c", Kind: "seed"})
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, res.Digest)
		}
		if _, err := s.Get(digests[0]); err != nil {
			t.Fatal(err)
		}
		if err := s.Pin(digests[1]); err != nil {
			t.Fatal(err)
		}
	}
	read := func(root string) []byte {
		data, err := os.ReadFile(filepath.Join(root, "manifest.db"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	root := t.TempDir()
	populate(root)
	seeds := [][]byte{read(root)}
	s, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.GC(store.GCPolicy{KeepLast: 1}); err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, read(root))
	for _, c := range faultinject.StoreCorruptors() {
		root := t.TempDir()
		populate(root)
		if _, ok := c.Apply(root); !ok {
			t.Fatalf("corruptor %s did not apply", c.Name)
		}
		seeds = append(seeds, read(root))
	}
	return seeds
}

// FuzzManifest: replaying arbitrary manifest bytes never panics, fails
// only with ErrManifestCorrupt, and a replay without a torn tail
// survives compaction — the compacted log replays to equal entries.
func FuzzManifest(f *testing.F) {
	for _, seed := range manifestSeeds(f) {
		f.Add(seed)
	}
	for _, tc := range manifestCases {
		f.Add([]byte(tc.input))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, torn, err := store.ParseManifest(data)
		if err != nil {
			if !errors.Is(err, store.ErrManifestCorrupt) {
				t.Fatalf("untyped manifest error: %v", err)
			}
			return
		}
		if torn {
			return
		}
		compact, err := store.CompactManifest(entries)
		if err != nil {
			t.Fatalf("compact: %v", err)
		}
		again, torn, err := store.ParseManifest(compact)
		if err != nil || torn {
			t.Fatalf("compacted manifest replays with torn=%v err=%v:\n%s", torn, err, compact)
		}
		if !reflect.DeepEqual(again, entries) {
			t.Fatalf("compaction changed the entries:\nbefore %v\nafter  %v", entries, again)
		}
	})
}
