package matrix

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestCommittedScenariosParse loads every committed scenario file: the
// corpus must always parse and expand, so a format change can never
// strand scenarios/. Each file's digest and cell count are pinned, so
// the decoded spec (and the spec_digest the committed grids record)
// changes only on purpose.
func TestCommittedScenariosParse(t *testing.T) {
	want := map[string]struct {
		digest string
		cells  int
	}{
		"table1.json": {"897b9d51b4c25d07", 24},
		"smoke.json":  {"1af9342c79c4aecf", 32},
		"faults.json": {"ad47f60a27eff674", 24},
		"ring.json":   {"b27d82de2b9b6015", 13},
	}
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Fatalf("found %d scenario files %v, want %d", len(files), files, len(want))
	}
	for _, f := range files {
		spec, err := LoadSpec(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		w := want[filepath.Base(f)]
		if got := spec.Digest(); got != w.digest {
			t.Errorf("%s: digest %s, want %s", f, got, w.digest)
		}
		if got := len(spec.Cells()); got != w.cells {
			t.Errorf("%s: %d cells, want %d", f, got, w.cells)
		}
	}
}

// TestTable1ScenarioPasses executes the committed Table 1 suite — the
// acceptance criterion: all three paper bugs reproduce via Maple seed
// exploration, replay divergence-free, and slice closed.
func TestTable1ScenarioPasses(t *testing.T) {
	spec, err := LoadSpec("../../scenarios/table1.json")
	if err != nil {
		t.Fatal(err)
	}
	grid, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !grid.Pass {
		var buf bytes.Buffer
		grid.RenderText(&buf)
		t.Fatalf("table1 suite failed:\n%s", buf.String())
	}
	if grid.Counts.Cells != 24 || grid.Counts.Pass != 24 {
		t.Fatalf("counts = %+v, want 24/24 passing", grid.Counts)
	}
	for _, s := range grid.Scenarios {
		if s.Exposed != s.Cells {
			t.Errorf("%s: %d/%d cells exposed the bug", s.Name, s.Exposed, s.Cells)
		}
	}
}
