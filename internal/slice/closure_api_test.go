package slice

import (
	"testing"
)

// TestCheckClosureAPI: the exported checker accepts every slice the
// engines produce over generated programs and rejects a tampered one.
func TestCheckClosureAPI(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		prog, tr, _ := propTrace(t, seed)
		opts := DefaultOptions()
		eng, err := New(prog, tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		crit, err := LastEventOf(tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		sl, err := eng.Slice(crit)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.CheckClosure(sl); err != nil {
			t.Fatalf("seed %d: closure check rejected a correct slice: %v", seed, err)
		}

		// Dropping a non-criterion member must break either closure or
		// well-formedness (it can only be legal if the member fed nothing,
		// which a backward slice never contains).
		if len(sl.Members) > 1 {
			broken := newSlice(tr, sl.Criterion)
			for i, m := range sl.Members {
				if i != len(sl.Members)/2 {
					g, _ := tr.GlobalPosOf(m)
					broken.addPos(g)
					broken.Members = append(broken.Members, m)
				}
			}
			broken.deps = sl.Deps()
			if err := eng.CheckClosure(broken); err == nil {
				t.Fatalf("seed %d: closure check accepted a slice with a member removed", seed)
			}
		}
	}
	var s Slicer
	if err := s.CheckClosure(nil); err == nil {
		t.Fatal("nil slice accepted")
	}
}
