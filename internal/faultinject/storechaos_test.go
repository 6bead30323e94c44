package faultinject

import (
	"encoding/json"
	"errors"
	"os"
	"slices"
	"testing"

	"repro/internal/pinball"
	"repro/internal/store"
)

// The store chaos matrix drives every StoreCorruptor against a freshly
// populated content-addressed store and asserts the validation-on-read
// contract from three angles:
//
//   - Open never fails for recoverable damage (a torn manifest tail is
//     recovered, not fatal);
//   - Verify reports exactly the declared typed sentinel;
//   - Get for an affected digest either returns the correct bytes or a
//     typed error — never silently wrong content.
//
// With DRDEBUG_STORE_GRID set, the per-cell outcomes are written as a
// JSON grid artifact for CI upload.

// storeGridCell is one corruptor outcome in the store-grid artifact.
type storeGridCell struct {
	Corruptor string `json:"corruptor"`
	Detail    string `json:"detail"`
	Want      string `json:"want"`
	VerifyErr string `json:"verify_err"`
	Typed     bool   `json:"typed"`
	GetTyped  bool   `json:"get_typed"` // reads failed typed (or served correct bytes)
}

// populateStore fills a fresh store with every pinball kind the format
// suite produces, in sorted kind order so the manifest's records (and
// the byte offsets the store-grid reports) are the same on every run,
// and returns the store plus the stored digests and the original bytes
// by digest.
func populateStore(t *testing.T, root string) (*store.Store, map[string][]byte) {
	t.Helper()
	s, err := store.Open(root)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	want := map[string][]byte{}
	pbs := makePinballs(t)
	kinds := make([]pinball.Kind, 0, len(pbs))
	for kind := range pbs {
		kinds = append(kinds, kind)
	}
	slices.Sort(kinds)
	for _, kind := range kinds {
		data, err := pbs[kind].EncodeBytes()
		if err != nil {
			t.Fatalf("encode %v: %v", kind, err)
		}
		res, err := s.Put(data, store.PutMeta{Kind: string(kind)})
		if err != nil {
			t.Fatalf("put %v: %v", kind, err)
		}
		want[res.Digest] = data
	}
	if len(want) == 0 {
		t.Fatal("fixture stored nothing")
	}
	return s, want
}

// TestStoreCorruptorMatrix sweeps the store damage suite: every
// corruptor must be applicable, every resulting store must still open,
// and the damage must surface as exactly the declared typed sentinel —
// from Verify and from ordinary reads.
func TestStoreCorruptorMatrix(t *testing.T) {
	var grid []storeGridCell
	for _, c := range StoreCorruptors() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			root := t.TempDir()
			_, want := populateStore(t, root)
			detail, ok := c.Apply(root)
			if !ok {
				t.Fatalf("%s: corruptor not applicable to a populated store", c.Name)
			}

			// Damage must never make the store unopenable.
			s, err := store.Open(root)
			if err != nil {
				t.Fatalf("%s: store does not open after damage: %v", c.Name, err)
			}
			rep, verr := s.Verify()
			if verr == nil {
				t.Fatalf("%s: Verify reports a clean store (report %+v)", c.Name, rep)
			}
			typed := errors.Is(verr, c.Want)
			if !typed {
				t.Errorf("%s: Verify error %v, want %v", c.Name, verr, c.Want)
			}

			// Reads of every stored digest: correct bytes or a typed error.
			getTyped := true
			for digest, orig := range want {
				got, gerr := s.Get(digest)
				if gerr == nil {
					if string(got) != string(orig) {
						getTyped = false
						t.Errorf("%s: Get(%s) served wrong bytes silently", c.Name, digest)
					}
					continue
				}
				if !storeTypedErr(gerr) {
					getTyped = false
					t.Errorf("%s: Get(%s) error is untyped: %v", c.Name, digest, gerr)
				}
			}
			grid = append(grid, storeGridCell{
				Corruptor: c.Name, Detail: detail, Want: c.Want.Error(),
				VerifyErr: verr.Error(), Typed: typed, GetTyped: getTyped,
			})
		})
	}
	writeStoreGrid(t, grid)
}

// storeTypedErr reports whether err wraps one of the store's typed
// sentinels — the read contract for damaged stores.
func storeTypedErr(err error) bool {
	return errors.Is(err, store.ErrObjectCorrupt) ||
		errors.Is(err, store.ErrObjectMissing) ||
		errors.Is(err, store.ErrDigestMismatch) ||
		errors.Is(err, store.ErrManifestCorrupt) ||
		errors.Is(err, store.ErrManifestTorn) ||
		errors.Is(err, store.ErrNotFound)
}

// writeStoreGrid writes the matrix outcomes as a JSON artifact when
// DRDEBUG_STORE_GRID names a path (CI uploads it for inspection).
func writeStoreGrid(t *testing.T, grid []storeGridCell) {
	t.Helper()
	path := os.Getenv("DRDEBUG_STORE_GRID")
	if path == "" || len(grid) == 0 {
		return
	}
	data, err := json.MarshalIndent(grid, "", "  ")
	if err != nil {
		t.Fatalf("marshal store grid: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatalf("write store grid: %v", err)
	}
	t.Logf("store grid written to %s (%d cells)", path, len(grid))
}

// TestStoreBitFlipHealable checks the quarantine→salvage ladder end to
// end for the bit-flip corruptor: after validation-on-read quarantines
// the damaged chunk, GetDamaged must reassemble best-effort bytes from
// the quarantined copy, and those bytes must still salvage into a
// loadable pinball — the store never strands a recording it could
// partially save.
func TestStoreBitFlipHealable(t *testing.T) {
	root := t.TempDir()
	s, want := populateStore(t, root)
	var bitFlip StoreCorruptor
	for _, c := range StoreCorruptors() {
		if c.Name == "bit-flip-chunk" {
			bitFlip = c
		}
	}
	if _, ok := bitFlip.Apply(root); !ok {
		t.Fatal("bit-flip corruptor not applicable")
	}

	// Find the entry the flipped chunk belonged to: the one whose Get
	// now fails typed.
	var victim string
	for digest := range want {
		_, err := s.Get(digest)
		switch {
		case err == nil:
		case victim == "" && errors.Is(err, store.ErrObjectCorrupt):
			victim = digest
		case victim != "" && errors.Is(err, store.ErrObjectMissing):
			// Another entry sharing the flipped chunk: the victim's read
			// quarantined the object, so later readers find it missing.
		default:
			t.Fatalf("Get(%s) = %v, want ErrObjectCorrupt (or ErrObjectMissing after the quarantine)", digest, err)
		}
	}
	if victim == "" {
		t.Fatal("no entry was damaged by the bit flip")
	}

	// The damaged object was quarantined, so best-effort assembly still
	// sees its (rotten) bytes; the whole must NOT hash to the digest.
	data, ok, err := s.GetDamaged(victim)
	if err != nil || !ok {
		t.Fatalf("GetDamaged(%s) = ok=%v err=%v", victim, ok, err)
	}
	if store.Digest(data) == victim {
		t.Fatal("best-effort assembly hashes clean — the corruptor flipped nothing")
	}
	// A one-bit flip in a checksummed section must be caught typed by
	// the pinball layer, and salvage must recover the intact sections.
	if _, err := pinball.Decode(data); err == nil {
		t.Fatal("bit-flipped pinball decoded cleanly")
	} else if !typedPinballErr(err) {
		t.Fatalf("decode error is untyped: %v", err)
	}
	if _, _, err := pinball.SalvageBytes(data); err != nil && !errors.Is(err, pinball.ErrUnsalvageable) {
		t.Fatalf("salvage error is untyped: %v", err)
	}

	// Healing with the original bytes fully restores the entry.
	if err := s.Heal(victim, want[victim]); err != nil {
		t.Fatalf("heal: %v", err)
	}
	got, err := s.Get(victim)
	if err != nil {
		t.Fatalf("get after heal: %v", err)
	}
	if string(got) != string(want[victim]) {
		t.Fatal("healed entry differs from the original bytes")
	}
}
