package matrix

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// runTestSpec is small enough for unit tests but exercises every stage:
// a Maple bug hunt with slice assertions, a random-scheduler smoke row
// with schedule-independent output, and a fault-injection row.
const runTestSpec = `{
  "suite": "runtest",
  "scenarios": [
    {
      "name": "hunt",
      "workload": "pbzip2",
      "threads": [3],
      "sizes": [40],
      "seeds": [1, 2],
      "schedulers": ["maple"],
      "timeout": "30s",
      "expect": {"found": "all", "slice": "closed", "min_members": 2}
    },
    {
      "name": "smoke",
      "workload": "blackscholes",
      "sizes": [16],
      "seeds": [1, 2],
      "timeout": "30s",
      "expect": {"outcome": "exit", "output": "identical", "exit_code": 0}
    },
    {
      "name": "fault",
      "workload": "blackscholes",
      "sizes": [16],
      "seeds": [1],
      "faults": ["file:flip-magic"],
      "timeout": "30s"
    }
  ]
}`

func runGrid(t *testing.T, workers int) *Grid {
	t.Helper()
	spec, err := ParseSpec(runTestSpec)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	grid, err := Run(spec, RunOptions{Workers: workers})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return grid
}

func TestRunGridFacts(t *testing.T) {
	g := runGrid(t, 4)
	if !g.Pass {
		var buf bytes.Buffer
		g.RenderText(&buf)
		t.Fatalf("grid failed:\n%s", buf.String())
	}
	if g.Counts.Cells != 5 {
		t.Fatalf("cells = %d, want 5", g.Counts.Cells)
	}
	for _, c := range g.Cells {
		switch c.Scenario {
		case "hunt":
			if !c.Exposed || c.Outcome != "failure" {
				t.Errorf("hunt seed %d: exposed=%v outcome=%s", c.Seed, c.Exposed, c.Outcome)
			}
			if c.Replay != "clean" {
				t.Errorf("hunt seed %d: replay=%q", c.Seed, c.Replay)
			}
			if !c.SliceClosed || c.SliceMembers < 2 || c.SliceMembers >= c.SliceTrace {
				t.Errorf("hunt seed %d: slice members=%d trace=%d closed=%v",
					c.Seed, c.SliceMembers, c.SliceTrace, c.SliceClosed)
			}
			if c.Pinball == "" || c.Failure == "" {
				t.Errorf("hunt seed %d: missing provenance (pinball=%q failure=%q)", c.Seed, c.Pinball, c.Failure)
			}
		case "smoke":
			if c.Outcome != "exit" || c.ExitCode != CellOK || len(c.Output) == 0 {
				t.Errorf("smoke seed %d: outcome=%s exit=%d output=%v", c.Seed, c.Outcome, c.ExitCode, c.Output)
			}
		case "fault":
			if c.FaultDetected != "detected:decode" {
				t.Errorf("fault cell: detected=%q, want detected:decode", c.FaultDetected)
			}
			if c.ExitCode != CellBadPinball {
				t.Errorf("fault cell: exit=%d, want %d", c.ExitCode, CellBadPinball)
			}
		}
	}
	// Scenario summaries carry the aggregate checks.
	for _, s := range g.Scenarios {
		if s.Name == "hunt" {
			found := false
			for _, c := range s.Checks {
				if c.Name == "found:all" && c.OK {
					found = true
				}
			}
			if !found {
				t.Errorf("hunt summary missing passing found:all check: %+v", s.Checks)
			}
		}
		if s.Name == "smoke" {
			ok := false
			for _, c := range s.Checks {
				if c.Name == "output:identical" && c.OK {
					ok = true
				}
			}
			if !ok {
				t.Errorf("smoke summary missing passing output:identical check: %+v", s.Checks)
			}
		}
	}
}

// TestRunDeterministic is the acceptance criterion: identical
// invocations produce byte-identical grid artifacts, regardless of
// worker count.
func TestRunDeterministic(t *testing.T) {
	var blobs [][]byte
	for _, workers := range []int{1, 4} {
		g := runGrid(t, workers)
		var buf bytes.Buffer
		if err := g.EncodeJSON(&buf); err != nil {
			t.Fatalf("EncodeJSON: %v", err)
		}
		blobs = append(blobs, buf.Bytes())
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatalf("grid artifacts differ between runs:\n--- workers=1\n%s\n--- workers=4\n%s", blobs[0], blobs[1])
	}
}

// TestGridJSONShape is the golden test for the artifact schema: the
// exact JSON keys downstream tooling may rely on.
func TestGridJSONShape(t *testing.T) {
	g := runGrid(t, 4)
	var buf bytes.Buffer
	if err := g.EncodeJSON(&buf); err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("artifact is not JSON: %v", err)
	}
	for _, k := range []string{"suite", "spec_digest", "cells", "scenarios", "counts", "pass", "digest"} {
		if _, ok := doc[k]; !ok {
			t.Errorf("artifact missing top-level key %q", k)
		}
	}
	cells := doc["cells"].([]any)
	cell := cells[0].(map[string]any)
	for _, k := range []string{"scenario", "workload", "scheduler", "threads", "size", "quantum", "seed", "outcome", "exit_code", "status"} {
		if _, ok := cell[k]; !ok {
			t.Errorf("cell missing key %q (got %v)", k, cell)
		}
	}
	// Timings stay out of the artifact unless asked for.
	if _, ok := cell["duration_ms"]; ok {
		t.Error("duration_ms leaked into a timing-free artifact")
	}
	if doc["digest"] != g.Digest {
		t.Errorf("digest mismatch: %v vs %s", doc["digest"], g.Digest)
	}
}

func TestRenderTextGrid(t *testing.T) {
	g := runGrid(t, 4)
	var buf bytes.Buffer
	if err := g.RenderText(&buf); err != nil {
		t.Fatalf("RenderText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"suite runtest",
		"hunt t3 s40 q20 maple",
		"BB", // both hunt seeds captured the bug
		"smoke t0 s16 q20 random",
		"found:all ok (2/2 cells exposed the bug)",
		"output:identical ok",
		"PASS (grid " + g.Digest + ")",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered grid missing %q:\n%s", want, out)
		}
	}
}

// TestRunFailingAssertionFailsGrid: a scenario expecting a bug that a
// clean workload cannot produce must fail its cells and the grid.
func TestRunFailingAssertionFailsGrid(t *testing.T) {
	spec, err := ParseSpec(`{"scenarios": [
  {"name": "impossible", "workload": "blackscholes", "sizes": [16], "seeds": [1],
   "timeout": "30s", "expect": {"outcome": "failure"}}
]}`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if g.Pass || g.Counts.Fail != 1 {
		t.Fatalf("grid pass=%v fail=%d, want a failing cell", g.Pass, g.Counts.Fail)
	}
	c := g.Cells[0]
	if c.Status != statusFail || !strings.Contains(c.Reason, "want failure") {
		t.Fatalf("cell status=%s reason=%q", c.Status, c.Reason)
	}
}

// TestRunFileWorkload compiles a scenario workload from a .c source
// path relative to the spec's directory.
func TestRunFileWorkload(t *testing.T) {
	dir := t.TempDir()
	src := `
int main() {
  write(42);
  return 0;
}
`
	if err := writeFile(dir+"/tiny.c", src); err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(`{"scenarios": [
  {"name": "filewl", "workload": "tiny.c", "timeout": "30s", "expect": {"outcome": "exit"}}
]}`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Run(spec, RunOptions{BaseDir: dir})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !g.Pass {
		var buf bytes.Buffer
		g.RenderText(&buf)
		t.Fatalf("file workload grid failed:\n%s", buf.String())
	}
	if out := g.Cells[0].Output; len(out) != 1 || out[0] != 42 {
		t.Fatalf("output = %v, want [42]", out)
	}
}
