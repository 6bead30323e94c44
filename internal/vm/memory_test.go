package vm

import (
	"maps"
	"math/rand/v2"
	"testing"
)

// TestPageCacheCoherent drives random reads and writes over pages chosen
// to collide in one page-cache slot, interleaved with Snapshot, Restore
// and Pages, and checks every result against a plain word map.
func TestPageCacheCoherent(t *testing.T) {
	// Eight pages sharing one slot, and two in other slots.
	mem := NewMemory()
	var pns []int64
	target := mem.slot(0)
	for pn := int64(1); len(pns) < 8; pn++ {
		if mem.slot(pn) == target {
			pns = append(pns, pn)
		}
	}
	for pn := int64(1); len(pns) < 10; pn++ {
		if mem.slot(pn) != target {
			pns = append(pns, pn)
		}
	}

	type state struct {
		words    map[int64]int64
		resident map[int64]bool
	}
	ref := state{map[int64]int64{}, map[int64]bool{}}
	type saved struct {
		img Image
		ref state
	}
	var snaps []saved

	rng := rand.New(rand.NewPCG(1, 2))
	addr := func() int64 {
		return pns[rng.IntN(len(pns))]<<pageShift | int64(rng.IntN(4))
	}
	for i := 0; i < 20_000; i++ {
		switch op := rng.IntN(100); {
		case op < 45:
			a := addr()
			if got := mem.Read(a); got != ref.words[a] {
				t.Fatalf("op %d: Read(%#x) = %d, want %d", i, a, got, ref.words[a])
			}
		case op < 90:
			a, v := addr(), rng.Int64N(1000)
			mem.Write(a, v)
			ref.words[a] = v
			ref.resident[a>>pageShift] = true
		case op < 94:
			snaps = append(snaps, saved{mem.Snapshot(), state{maps.Clone(ref.words), maps.Clone(ref.resident)}})
		case op < 97 && len(snaps) > 0:
			s := snaps[rng.IntN(len(snaps))]
			mem.Restore(s.img)
			ref = state{maps.Clone(s.ref.words), maps.Clone(s.ref.resident)}
		default:
			if got := mem.Pages(); got != len(ref.resident) {
				t.Fatalf("op %d: Pages() = %d, want %d", i, got, len(ref.resident))
			}
		}
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots taken")
	}
	// Every snapshot still holds the words it was taken with: Restore
	// copied out of it and later writes did not reach it.
	for i, s := range snaps {
		for a, v := range s.ref.words {
			if got := s.img[a>>pageShift][a&pageMask]; got != v {
				t.Fatalf("snapshot %d: word %#x = %d, want %d", i, a, got, v)
			}
		}
		if len(s.img) != len(s.ref.resident) {
			t.Fatalf("snapshot %d: %d pages, want %d", i, len(s.img), len(s.ref.resident))
		}
	}
}
