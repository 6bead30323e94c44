package matrix

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

const sampleSpec = `{
  "suite": "sample",
  "defaults": {
    "quantum": [20, 40],
    "timeout": "5s"
  },
  "scenarios": [
    {
      "name": "bug-hunt",
      "workload": "pbzip2",
      "threads": [3],
      "sizes": [40],
      "seeds": [1, 2, 3, 4],
      "schedulers": ["maple"],
      "expect": {"found": "all", "slice": "closed", "min_members": 3}
    },
    {
      "name": "smoke",
      "why": "documentation only",
      "workload": "blackscholes",
      "seeds": [7, 9],
      "expect": {"outcome": "exit", "output": "identical"}
    }
  ]
}`

func TestParseSpecDecodesScenarios(t *testing.T) {
	spec, err := ParseSpec(sampleSpec)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Suite != "sample" || len(spec.Scenarios) != 2 {
		t.Fatalf("suite=%q scenarios=%d", spec.Suite, len(spec.Scenarios))
	}
	bug := spec.Scenarios[0]
	if bug.Name != "bug-hunt" || bug.Workload != "pbzip2" {
		t.Fatalf("scenario 0 = %+v", bug)
	}
	if !reflect.DeepEqual(bug.Seeds, []int64{1, 2, 3, 4}) {
		t.Errorf("seeds: %v", bug.Seeds)
	}
	// defaults merge in for unset keys...
	if !reflect.DeepEqual(bug.Quanta, []int64{20, 40}) {
		t.Errorf("quantum default: %v", bug.Quanta)
	}
	if bug.Timeout != 5*time.Second {
		t.Errorf("timeout default: %v", bug.Timeout)
	}
	if !reflect.DeepEqual(bug.Schedulers, []string{SchedulerMaple}) {
		t.Errorf("schedulers: %v", bug.Schedulers)
	}
	if bug.Expect.Found != "all" || bug.Expect.Slice != "closed" || bug.Expect.MinMembers != 3 {
		t.Errorf("expect: %+v", bug.Expect)
	}
	// ...and built-in defaults fill the rest.
	if bug.Expect.Replay != "clean" || bug.Expect.ExitCode != -1 || bug.Expect.Fault != "none" {
		t.Errorf("built-in expect defaults: %+v", bug.Expect)
	}
	smoke := spec.Scenarios[1]
	if smoke.Expect.Outcome != "exit" || smoke.Expect.Output != "identical" {
		t.Errorf("smoke expect: %+v", smoke.Expect)
	}
	if !reflect.DeepEqual(smoke.Threads, []int64{0}) { // 0 = workload default
		t.Errorf("smoke threads: %v", smoke.Threads)
	}
}

func TestParseSpecFaultDefaultsToDetected(t *testing.T) {
	spec, err := ParseSpec(`{"scenarios": [
  {"name": "f", "workload": "pbzip2", "faults": ["none", "file:flip-magic"]}
]}`)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if got := spec.Scenarios[0].Expect.Fault; got != "detected" {
		t.Fatalf("expect.fault = %q, want detected (auto-default with a fault axis)", got)
	}
}

// scenarioSpec wraps one scenario object's keys in a spec.
func scenarioSpec(keys string) string {
	return `{"scenarios": [{"name": "a", "workload": "pbzip2", ` + keys + `}]}`
}

// specCase is a spec that ParseSpec must reject with an error
// containing wantSub.
type specCase struct {
	name, src, wantSub string
}

// specErrorCases holds one row per check the decoder makes on a
// well-formed file.
var specErrorCases = []specCase{
	{"no-scenarios", `{"suite": "x"}`, "non-empty 'scenarios'"},
	{"empty-doc", "\n  \n", "non-empty 'scenarios'"},
	{"empty-scenarios", `{"scenarios": []}`, "non-empty 'scenarios'"},
	{"unknown-top", `{"bogus": 1, "scenarios": [{"name": "a", "workload": "pbzip2"}]}`, `unknown field "bogus"`},
	{"unknown-scenario-key", scenarioSpec(`"wat": 1`), `unknown field "wat"`},
	{"unknown-region-key", scenarioSpec(`"region": {"skip": 1, "start": 2}`), `unknown field "start"`},
	{"unknown-limits-key", scenarioSpec(`"limits": {"steps": 1, "bytes": 2}`), `unknown field "bytes"`},
	{"unknown-expect-key", scenarioSpec(`"expect": {"outcom": "exit"}`), `unknown field "outcom"`},
	{"no-name", `{"scenarios": [{"workload": "pbzip2"}]}`, "scenario #0: scenario needs a name"},
	{"no-workload", `{"scenarios": [{"name": "a"}]}`, "scenario a: scenario needs a workload"},
	{"dup-name", `{"scenarios": [{"name": "a", "workload": "pbzip2"}, {"name": "a", "workload": "aget"}]}`, "duplicate scenario name"},
	{"bad-scheduler", scenarioSpec(`"schedulers": ["pct"]`), "scenario a: unknown scheduler"},
	{"bad-fault", scenarioSpec(`"faults": ["file:nope"]`), "unknown fault"},
	{"bad-fault-shape", scenarioSpec(`"faults": ["flip-magic"]`), "bad fault"},
	{"bad-seed-range", scenarioSpec(`"seeds": "1..4"`), "line 1: json: cannot unmarshal string"},
	{"scheduler-scalar", scenarioSpec(`"schedulers": "maple"`), "line 1: json: cannot unmarshal string"},
	{"dup-seed", scenarioSpec(`"seeds": [3, 3]`), "duplicate seed"},
	{"bad-expect", scenarioSpec(`"expect": {"found": "maybe"}`), "expect.found"},
	{"bad-expect-outcome", scenarioSpec(`"expect": {"outcome": ""}`), "expect.outcome"},
	{"bad-expect-replay", scenarioSpec(`"expect": {"replay": "dirty"}`), "expect.replay"},
	{"bad-expect-slice", scenarioSpec(`"expect": {"slice": "open"}`), "expect.slice"},
	{"bad-expect-fault", scenarioSpec(`"expect": {"fault": "missed"}`), "expect.fault"},
	{"bad-expect-output", scenarioSpec(`"expect": {"output": "same"}`), "expect.output"},
	{"bad-timeout", scenarioSpec(`"timeout": "fast"`), "bad timeout"},
	{"zero-timeout", scenarioSpec(`"timeout": "0s"`), "bad timeout"},
	{"negative-ring-bytes", scenarioSpec(`"ring_bytes": -1`), "ring_bytes, window and sample must be >= 0"},
	{"negative-window", scenarioSpec(`"window": -1`), "ring_bytes, window and sample must be >= 0"},
	{"negative-sample", scenarioSpec(`"sample": -1`), "ring_bytes, window and sample must be >= 0"},
	{"ring-with-maple", scenarioSpec(`"ring_bytes": 2000, "schedulers": ["maple"]`), "require the random scheduler"},
	{"sample-with-maple", scenarioSpec(`"sample": 4, "schedulers": ["maple"]`), "require the random scheduler"},
	{"defaults-name", `{"defaults": {"name": "a"}, "scenarios": [{"name": "a", "workload": "pbzip2"}]}`, `unknown field "name"`},
	{"defaults-workload", `{"defaults": {"workload": "aget"}, "scenarios": [{"name": "a", "workload": "pbzip2"}]}`, `unknown field "workload"`},
	{"defaults-bad-scheduler", `{"defaults": {"schedulers": ["pct"]}, "scenarios": [{"name": "a", "workload": "pbzip2"}]}`, "scenario a: unknown scheduler"},
	{"empty-list", scenarioSpec(`"threads": []`), "threads must not be empty"},
	{"dup-key", scenarioSpec(`"seeds": [1], "seeds": [2]`), `line 1: duplicate key "seeds"`},
	{"trailing-data", `{"scenarios": [{"name": "a", "workload": "pbzip2"}]} {}`, "line 1: data after the spec object"},
	{"too-many-cells", scenarioSpec(`"threads": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], "sizes": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], ` +
		`"quantum": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], "seeds": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20], ` +
		`"faults": ["none", "file:flip-magic", "file:zero-crc", "file:truncate-tail", "file:truncate-half"], "schedulers": ["random", "maple"]`),
		"more than 100000 cells"},
}

func TestParseSpecErrors(t *testing.T) {
	for _, tc := range specErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(tc.src)
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

// syntaxErrorCases are malformed JSON, rejected with the line the
// decoder stopped on.
var syntaxErrorCases = []specCase{
	{"no-colon", "{\n\"suite\" \"x\"\n}", "line 2: invalid character"},
	{"unterminated-list", "{\n\"scenarios\": [\n{\"name\": \"a\"}\n", "line 4: unexpected EOF"},
	{"unterminated-object", "{\n\"suite\": \"x\",\n\"defaults\": {\n", "line 4: unexpected EOF"},
	{"trailing-comma", "{\n\"scenarios\": [\n  1,\n]}", "line 4: invalid character ']'"},
	{"top-level-array", "\n[1, 2]", "line 2: json: cannot unmarshal array"},
	{"wrong-type", "{\"scenarios\": [\n{\"name\": \"a\",\n\"threads\": [\"3\"]}]}", "line 3: json: cannot unmarshal string"},
}

func TestParseSpecSyntaxErrors(t *testing.T) {
	for _, tc := range syntaxErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %v, want one containing %q", err, tc.wantSub)
			}
		})
	}
}

// TestParseSpecErrorsCarryLineNumbers: an error deep in a multi-line
// file names the line it is on.
func TestParseSpecErrorsCarryLineNumbers(t *testing.T) {
	src := strings.Replace(sampleSpec, `"sizes": [40],`, `"sizes": [40,],`, 1)
	_, err := ParseSpec(src)
	if err == nil || !strings.Contains(err.Error(), "line 12:") {
		t.Fatalf("want a line-12 error, got %v", err)
	}
}

// TestParseSpecReplacesObjectsWhole: a scenario's region, limits and
// expect replace the defaults' objects whole, and a scenario's expect is
// laid over the built-in assertions, not over defaults.expect.
const objectsSpec = `{
  "defaults": {
    "region": {"skip": 5, "length": 100},
    "limits": {"steps": 1000, "pages": 8},
    "expect": {"outcome": "exit", "output": "identical", "exit_code": 0}
  },
  "scenarios": [
    {"name": "inherits", "workload": "blackscholes"},
    {"name": "replaces", "workload": "blackscholes",
     "region": {"length": 50}, "limits": {"pages": 4}, "expect": {"replay": "none"}}
  ]
}`

func TestParseSpecReplacesObjectsWhole(t *testing.T) {
	spec, err := ParseSpec(objectsSpec)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	in, re := spec.Scenarios[0], spec.Scenarios[1]
	if in.Region != (Region{Skip: 5, Length: 100}) || in.Limits != (Limits{Steps: 1000, Pages: 8}) {
		t.Errorf("inherited region %+v limits %+v", in.Region, in.Limits)
	}
	if want := (Expect{Outcome: "exit", Replay: "clean", Fault: "none", Output: "identical", ExitCode: 0}); in.Expect != want {
		t.Errorf("inherited expect %+v, want %+v", in.Expect, want)
	}
	if re.Region != (Region{Length: 50}) || re.Limits != (Limits{Pages: 4}) {
		t.Errorf("replaced region %+v limits %+v", re.Region, re.Limits)
	}
	if want := (Expect{Outcome: "any", Replay: "none", Fault: "none", ExitCode: -1}); re.Expect != want {
		t.Errorf("replaced expect %+v, want %+v", re.Expect, want)
	}
}

func TestExpandOrderIsDeterministic(t *testing.T) {
	spec, err := ParseSpec(`{"scenarios": [
  {"name": "x", "workload": "pbzip2", "threads": [2, 3], "seeds": [10, 11], "schedulers": ["random", "maple"]}
]}`)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	cells := spec.Cells()
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	// Scheduler is the outermost axis, seed the innermost.
	var got []string
	for _, c := range cells {
		got = append(got, c.Axes()+" "+strconv.FormatInt(c.Seed, 10))
	}
	want := []string{
		"t2 s0 q20 random 10", "t2 s0 q20 random 11",
		"t3 s0 q20 random 10", "t3 s0 q20 random 11",
		"t2 s0 q20 maple 10", "t2 s0 q20 maple 11",
		"t3 s0 q20 maple 10", "t3 s0 q20 maple 11",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("expansion order:\n got  %v\n want %v", got, want)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has Index %d", i, c.Index)
		}
	}
}

func TestSpecDigestStable(t *testing.T) {
	a, err := ParseSpec(sampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec(sampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("same source, different digests: %s vs %s", a.Digest(), b.Digest())
	}
	c, err := ParseSpec(strings.Replace(sampleSpec, `"seeds": [1, 2, 3, 4]`, `"seeds": [1, 2, 3, 4, 5]`, 1))
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() == c.Digest() {
		t.Fatal("different specs share a digest")
	}
}

func TestFaultNamesCoverRegistries(t *testing.T) {
	names := FaultNames()
	if len(names) == 0 {
		t.Fatal("no fault names")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate fault name %s", n)
		}
		seen[n] = true
		if !strings.HasPrefix(n, "file:") && !strings.HasPrefix(n, "pinball:") {
			t.Fatalf("fault name %q has no registry prefix", n)
		}
		if err := checkFaultName(n); err != nil {
			t.Fatalf("registry name %q rejected: %v", n, err)
		}
	}
}
