package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// toySizes run every workload in seconds.
var toySizes = sizes{
	coldMain:    5_000,
	warmMain:    5_000,
	captureMain: 5_000,
	daemonMain:  5_000,
	recordWork:  8,
}

type defFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks that each emits exactly the metrics BENCHMARK.json names with
// their units, that its outputs verify, and that the traced run's span
// trees are well-formed.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def defFile
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	drserved := filepath.Join(dir, "drserved")
	build := exec.Command("go", "build", "-o", drserved, "repro/cmd/drserved")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building drserved: %v\n%s", err, out)
	}
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			name := wl
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				c := config{
					workload: wl, seed: 7, window: time.Minute, trace: traced,
					workDir: dir, spansDir: dir, drserved: drserved,
					nproc: 2, maxOps: 6, size: toySizes,
				}
				res, f, err := runOnce(c)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("result %+v", res)
				}
				want := def.EndToEnd
				if traced {
					want = def.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if traced {
					checkSpanFile(t, f.SpansFile)
				}
			})
		}
	}
}

// checkSpanFile re-reads a traced run's span file: children lie within
// their parents, self time is never negative, and the self times add up
// to the operations' time.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sf spanFile
	if err := json.Unmarshal(data, &sf); err != nil {
		t.Fatal(err)
	}
	if len(sf.Spans) == 0 {
		t.Fatal("no spans")
	}
	st, err := analyzeSpans(sf.Spans)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, ns := range st.self {
		sum += ns
	}
	if sum != st.rootNs {
		t.Errorf("self times add up to %d ns, operations took %d ns", sum, st.rootNs)
	}
}

func TestAnalyzeSpansRejectsMalformedTrees(t *testing.T) {
	ok := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 40, End: 90},
	}
	st, err := analyzeSpans(ok)
	if err != nil {
		t.Fatal(err)
	}
	if st.self[benchLayer] != 20 || st.self["a"] != 30 || st.self["b"] != 50 || st.rootNs != 100 {
		t.Errorf("self times %v, root %d", st.self, st.rootNs)
	}
	for name, mutate := range map[string]func([]span){
		"child outside parent": func(s []span) { s[2].End = 120 },
		"overlapping siblings": func(s []span) { s[2].Start = 30 },
		"ends before start":    func(s []span) { s[1].End = 5 },
		"parent after child":   func(s []span) { s[1].Parent = 2 },
	} {
		bad := append([]span(nil), ok...)
		mutate(bad)
		if _, err := analyzeSpans(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
