package matrix

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"strings"
)

// Cell statuses.
const (
	statusPass = "pass"
	statusFail = "fail"
	statusSkip = "skip"
)

// CellResult is one cell's provenance and verdict in the grid artifact.
// Every field except DurationMS is a deterministic function of the spec:
// identical invocations produce byte-identical grids (durations are
// emitted only when RunOptions.Timings asks for them).
type CellResult struct {
	Scenario  string `json:"scenario"`
	Workload  string `json:"workload"`
	Scheduler string `json:"scheduler"`
	Fault     string `json:"fault,omitempty"`
	Threads   int64  `json:"threads"`
	Size      int64  `json:"size"`
	Quantum   int64  `json:"quantum"`
	Seed      int64  `json:"seed"`

	// Outcome of the recorded run: "exit", "failure", or "error".
	Outcome string `json:"outcome"`
	// Exposed marks cells that captured the bug's symptom.
	Exposed bool `json:"exposed,omitempty"`
	// Failure is the captured symptom ("thread 2 at pc 15: ...").
	Failure string `json:"failure,omitempty"`
	// ExitCode classifies the cell per the shared CLI exit-code table.
	ExitCode int `json:"exit_code"`
	// Pinball is the captured pinball's content digest.
	Pinball string `json:"pinball,omitempty"`
	// Replay is the divergence verdict: "clean" or "diverged".
	Replay string `json:"replay,omitempty"`
	// Output is the program's write() stream from the verified replay.
	Output []int64 `json:"output,omitempty"`
	// Slice facts (expect.slice: closed).
	SliceMembers int  `json:"slice_members,omitempty"`
	SliceTrace   int  `json:"slice_trace,omitempty"`
	SliceClosed  bool `json:"slice_closed,omitempty"`
	// Flight-recorder facts (scenarios with ring_bytes set).
	RingEvicted int   `json:"ring_evicted,omitempty"`
	RingGap     int64 `json:"ring_gap,omitempty"`
	// Slice edge-provenance breakdown (expect.slice: provenance).
	ProvExactEdges     int `json:"prov_exact_edges,omitempty"`
	ProvBridgedEdges   int `json:"prov_bridged_edges,omitempty"`
	ProvEstimatedEdges int `json:"prov_estimated_edges,omitempty"`
	// FaultDetected reports which defence layer caught an injected
	// fault ("detected:decode|validate|replay|fault", "missed",
	// "inapplicable").
	FaultDetected string `json:"fault_detected,omitempty"`
	// Maple exploration accounting.
	MapleAttempts  int `json:"maple_attempts,omitempty"`
	MaplePredicted int `json:"maple_predicted,omitempty"`

	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
	// DurationMS is wall-clock and deliberately excluded from the
	// artifact unless timings are requested.
	DurationMS int64 `json:"duration_ms,omitempty"`
}

// Check is one evaluated scenario-level assertion.
type Check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Info string `json:"info,omitempty"`
}

// ScenarioSummary aggregates a scenario's cells.
type ScenarioSummary struct {
	Name    string  `json:"name"`
	Cells   int     `json:"cells"`
	Pass    int     `json:"pass"`
	Fail    int     `json:"fail"`
	Skip    int     `json:"skip,omitempty"`
	Exposed int     `json:"exposed,omitempty"`
	Checks  []Check `json:"checks,omitempty"`
}

// Failed reports whether any cell or aggregate check failed.
func (s *ScenarioSummary) Failed() bool {
	if s.Fail > 0 {
		return true
	}
	for _, c := range s.Checks {
		if !c.OK {
			return true
		}
	}
	return false
}

// Grid is the pass/fail artifact of one matrix run.
type Grid struct {
	Suite string `json:"suite"`
	// SpecDigest fingerprints the expanded spec (axes + assertions).
	SpecDigest string            `json:"spec_digest"`
	Cells      []*CellResult     `json:"cells"`
	Scenarios  []ScenarioSummary `json:"scenarios"`
	Counts     struct {
		Cells int `json:"cells"`
		Pass  int `json:"pass"`
		Fail  int `json:"fail"`
		Skip  int `json:"skip"`
	} `json:"counts"`
	Pass bool `json:"pass"`
	// Digest is an FNV-1a fingerprint of the artifact's deterministic
	// content, for quick grid-to-grid comparison.
	Digest string `json:"digest"`

	timings bool
}

// assemble orders the per-cell results, evaluates scenario-level
// aggregate assertions, and seals the grid with its digest.
func assemble(spec *Spec, cells []*Cell, results []*CellResult, timings bool) *Grid {
	g := &Grid{Suite: spec.Suite, SpecDigest: spec.Digest(), Cells: results, timings: timings}
	byScenario := map[string][]*CellResult{}
	for _, res := range results {
		byScenario[res.Scenario] = append(byScenario[res.Scenario], res)
		g.Counts.Cells++
		switch res.Status {
		case statusPass:
			g.Counts.Pass++
		case statusSkip:
			g.Counts.Skip++
		default:
			g.Counts.Fail++
		}
	}
	for _, sc := range spec.Scenarios {
		sum := ScenarioSummary{Name: sc.Name}
		for _, res := range byScenario[sc.Name] {
			sum.Cells++
			switch res.Status {
			case statusPass:
				sum.Pass++
			case statusSkip:
				sum.Skip++
			default:
				sum.Fail++
			}
			if res.Exposed {
				sum.Exposed++
			}
		}
		sum.Checks = aggregateChecks(sc, byScenario[sc.Name])
		g.Scenarios = append(g.Scenarios, sum)
	}
	g.Pass = g.Counts.Fail == 0
	for _, s := range g.Scenarios {
		if s.Failed() {
			g.Pass = false
		}
	}
	g.Digest = g.digest()
	return g
}

// aggregateChecks evaluates the scenario-level assertions: bug-exposure
// aggregation (found: any|all|none) and schedule-independent output
// (output: identical).
func aggregateChecks(sc *Scenario, results []*CellResult) []Check {
	var checks []Check
	if f := sc.Expect.Found; f != "" {
		exposed, counted := 0, 0
		for _, r := range results {
			if r.Status == statusSkip {
				continue
			}
			counted++
			if r.Exposed {
				exposed++
			}
		}
		ok := false
		switch f {
		case "any":
			ok = exposed > 0
		case "all":
			ok = exposed == counted && counted > 0
		case "none":
			ok = exposed == 0
		}
		checks = append(checks, Check{
			Name: "found:" + f, OK: ok,
			Info: fmt.Sprintf("%d/%d cells exposed the bug", exposed, counted),
		})
	}
	if sc.Expect.Output == "identical" {
		var want []int64
		ok, n := true, 0
		for _, r := range results {
			if r.Outcome != "exit" || r.Output == nil {
				continue
			}
			if n == 0 {
				want = r.Output
			} else if !slices.Equal(want, r.Output) {
				ok = false
			}
			n++
		}
		checks = append(checks, Check{
			Name: "output:identical", OK: ok && n > 0,
			Info: fmt.Sprintf("%d clean cells compared", n),
		})
	}
	return checks
}

// EncodeJSON writes the grid artifact. Without timings the bytes are a
// pure function of the spec and the recorded executions.
func (g *Grid) EncodeJSON(w io.Writer) error {
	out := *g
	if !g.timings {
		cells := make([]*CellResult, len(g.Cells))
		for i, c := range g.Cells {
			cc := *c
			cc.DurationMS = 0
			cells[i] = &cc
		}
		out.Cells = cells
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

// digest fingerprints the deterministic artifact content.
func (g *Grid) digest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "suite=%s spec=%s\n", g.Suite, g.SpecDigest)
	for _, c := range g.Cells {
		fmt.Fprintf(h, "%s|%s|%s|%d|%d|%d|%d|%s|%d|%s|%s|%v|%d|%d|%v|%d|%d|%d|%d|%d|%s|%s|%s\n",
			c.Scenario, c.Scheduler, c.Fault, c.Threads, c.Size, c.Quantum, c.Seed,
			c.Outcome, c.ExitCode, c.Pinball, c.Replay, c.Output,
			c.SliceMembers, c.SliceTrace, c.SliceClosed,
			c.RingEvicted, c.RingGap, c.ProvExactEdges, c.ProvBridgedEdges, c.ProvEstimatedEdges,
			c.FaultDetected, c.Status, c.Reason)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// glyph is the one-character cell rendering in the text table.
func glyph(c *CellResult) byte {
	switch {
	case c.Status == statusSkip:
		return 's'
	case c.Status == statusFail:
		return 'F'
	case c.Exposed:
		return 'B' // pass, bug captured
	default:
		return '.'
	}
}

// RenderText writes the human-readable grid: one row per non-seed axis
// combination, one column per seed, then the scenario and suite
// summaries.
func (g *Grid) RenderText(w io.Writer) error {
	type rowKey struct {
		scenario, axes string
	}
	rows := map[rowKey][]*CellResult{}
	var order []rowKey
	seedSet := map[int64]bool{}
	for i, c := range g.Cells {
		k := rowKey{c.Scenario, axesOf(c)}
		if _, ok := rows[k]; !ok {
			order = append(order, k)
		}
		rows[k] = append(rows[k], g.Cells[i])
		seedSet[c.Seed] = true
	}
	seeds := make([]int64, 0, len(seedSet))
	for s := range seedSet {
		seeds = append(seeds, s)
	}
	slices.Sort(seeds)

	width := 0
	for _, k := range order {
		if n := len(k.scenario) + 1 + len(k.axes); n > width {
			width = n
		}
	}
	fmt.Fprintf(w, "suite %s  (spec %s)\n", g.Suite, g.SpecDigest)
	fmt.Fprintf(w, "%-*s  seeds %v\n", width, "", seeds)
	for _, k := range order {
		byseed := map[int64]*CellResult{}
		for _, c := range rows[k] {
			byseed[c.Seed] = c
		}
		line := make([]byte, 0, len(seeds))
		for _, s := range seeds {
			if c, ok := byseed[s]; ok {
				line = append(line, glyph(c))
			} else {
				line = append(line, ' ')
			}
		}
		fmt.Fprintf(w, "%-*s  %s\n", width, k.scenario+" "+k.axes, line)
	}
	fmt.Fprintln(w)
	for _, s := range g.Scenarios {
		verdict := "pass"
		if s.Failed() {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%-20s %3d cells  %3d pass %3d fail %3d skip  %s", s.Name, s.Cells, s.Pass, s.Fail, s.Skip, verdict)
		var notes []string
		for _, c := range s.Checks {
			mark := "ok"
			if !c.OK {
				mark = "FAIL"
			}
			notes = append(notes, fmt.Sprintf("%s %s (%s)", c.Name, mark, c.Info))
		}
		if len(notes) > 0 {
			fmt.Fprintf(w, "  [%s]", strings.Join(notes, "; "))
		}
		fmt.Fprintln(w)
	}
	verdict := "PASS"
	if !g.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "total %d cells: %d pass, %d fail, %d skip — %s (grid %s)\n",
		g.Counts.Cells, g.Counts.Pass, g.Counts.Fail, g.Counts.Skip, verdict, g.Digest)
	// Failed cells get their reasons spelled out under the table.
	for _, c := range g.Cells {
		if c.Status == statusFail {
			fmt.Fprintf(w, "  FAIL %s %s seed=%d: %s\n", c.Scenario, axesOf(c), c.Seed, c.Reason)
		}
	}
	return nil
}

// axesOf reconstructs the non-seed axis label from a result (the
// CellResult is self-contained so grids render without the spec).
func axesOf(c *CellResult) string {
	s := fmt.Sprintf("t%d s%d q%d %s", c.Threads, c.Size, c.Quantum, c.Scheduler)
	if c.Fault != "" {
		s += " " + c.Fault
	}
	return s
}
