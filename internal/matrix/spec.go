// Package matrix turns scenario coverage from code into data: a
// declarative JSON scenario format (workload, thread counts, input
// sizes, schedule seeds, scheduler kind including Maple's active
// scheduler, fault-injection knobs, execution limits, and expected
// outcome assertions), a runner that expands the cross product and
// executes the cells in parallel under panic isolation and per-cell
// timeouts, and a deterministic pass/fail grid artifact (JSON and a
// rendered text table) with per-cell provenance.
package matrix

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"time"
)

// Spec is a parsed scenario matrix file: a suite of scenarios, each of
// which expands into the cross product of its axes.
type Spec struct {
	// Suite names the matrix (defaults to the file's base name).
	Suite string
	// Scenarios in file order.
	Scenarios []*Scenario
}

// Scenario is one declarative scenario: a workload plus axis lists whose
// cross product becomes the cells, execution knobs, and the expected
// outcome assertions.
type Scenario struct {
	// Name identifies the scenario in the grid (required, unique).
	Name string
	// Workload names a registered workload (internal/workloads) or a
	// mini-C source file path relative to the spec file.
	Workload string

	// Axes. Every list must be non-empty after defaults are applied.
	Threads    []int64 // 0 = the workload's DefaultThreads
	Sizes      []int64
	Seeds      []int64
	Quanta     []int64  // mean preemption quantum
	Schedulers []string // "random" | "maple"
	Faults     []string // "none" | "file:<name>" | "pinball:<name>"

	// Execution knobs.
	Region      Region // skip/length region selection (random scheduler)
	Limits      Limits // per-run execution bounds
	Timeout     time.Duration
	ProfileRuns int // maple profiling runs (0 = maple default)
	// RingBytes/Sample switch the cell recordings to flight-recorder
	// mode: retained content is bounded by the byte budget and/or
	// sampled 1-in-N, evicted windows are bridged on replay. Window
	// sets the ring window granularity in instructions (0 = default).
	RingBytes int64
	Sample    int64
	Window    int64

	// Expect holds the assertions evaluated against each cell and the
	// scenario's aggregate.
	Expect Expect
}

// Region selects the recorded region in PinPlay skip/length form.
type Region struct {
	Skip   int64 `json:"skip,omitempty"`
	Length int64 `json:"length,omitempty"`
}

// Limits bounds each cell's executions.
type Limits struct {
	// Steps is the instruction budget per run (0 = scenario default).
	Steps int64 `json:"steps"`
	// Pages caps replay resident memory in pages (0 = none).
	Pages int `json:"pages"`
}

// Expect declares a scenario's assertions. Zero values mean "don't
// check" except where noted.
type Expect struct {
	// Outcome constrains how each cell's recorded run must end:
	// "exit" (clean stop), "failure" (the bug's symptom), or "any"
	// (default — per-cell outcome free, aggregate via Found).
	Outcome string
	// Found aggregates bug exposure across the scenario's cells:
	// "any" (at least one cell captured a failure), "all", "none",
	// or "" (no aggregate check).
	Found string
	// Replay: "clean" (default — replay every captured pinball and
	// require zero divergences), or "none" to skip replay.
	Replay string
	// Slice: "closed" computes the failure slice of every cell that
	// captured a failure and checks non-emptiness, the closure
	// properties, and that the slice is smaller than the region;
	// "provenance" additionally requires flight-recorder slices to be
	// annotated (every gap-crossing edge tagged, closure's provenance
	// check green) and records the edge-provenance breakdown; "none"
	// (default) skips slicing.
	Slice string
	// MinMembers is the minimum failure-slice size (with Slice:closed).
	MinMembers int
	// Fault: "detected" (default when a cell has a fault axis value
	// other than none) requires the injected corruption to surface as a
	// typed load/validate error or a failed replay; "none" skips.
	Fault string
	// Output: "identical" requires all clean-exit cells of the scenario
	// to produce identical program output (a schedule-independence
	// check); "" skips.
	Output string
	// ExitCode, when >= 0, is the exact cell exit code every cell must
	// report. Use -1 (default) to skip.
	ExitCode int
}

// SchedulerRandom and SchedulerMaple are the scheduler axis values.
const (
	SchedulerRandom = "random"
	SchedulerMaple  = "maple"
)

// FaultNone is the fault axis value meaning "no injection".
const FaultNone = "none"

// Cell is one expanded point of a scenario's cross product.
type Cell struct {
	Scenario *Scenario
	// Index is the cell's position in the scenario's deterministic
	// expansion order.
	Index     int
	Scheduler string
	Fault     string
	Threads   int64
	Size      int64
	Quantum   int64
	Seed      int64
}

// Axes renders the cell's non-seed coordinates for grouping ("t3 s40
// q20 maple" or "t3 s40 q20 random file:flip-magic").
func (c *Cell) Axes() string {
	s := fmt.Sprintf("t%d s%d q%d %s", c.Threads, c.Size, c.Quantum, c.Scheduler)
	if c.Fault != FaultNone {
		s += " " + c.Fault
	}
	return s
}

// LoadSpec reads and parses a scenario matrix file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("matrix: %w", err)
	}
	spec, err := ParseSpec(string(data))
	if err != nil {
		return nil, fmt.Errorf("matrix: %s: %w", path, err)
	}
	if spec.Suite == "" {
		spec.Suite = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	return spec, nil
}

// specFile is the JSON form of a scenario matrix file. The why fields
// carry the reasons a comment would: they are documentation only and
// reach neither the Spec nor its digest.
type specFile struct {
	Why       string         `json:"why"`
	Suite     string         `json:"suite"`
	Defaults  scenarioKeys   `json:"defaults"`
	Scenarios []scenarioFile `json:"scenarios"`
}

// scenarioFile is one entry of the scenarios list. Only a scenario has
// a name and a workload, so strict decoding rejects either key in
// defaults.
type scenarioFile struct {
	Why      string `json:"why"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	scenarioKeys
}

// scenarioKeys are the keys a scenario shares with defaults. Every field
// is a slice or a pointer, nil when the file leaves the key out, so that
// merge can replace a value whole instead of merging objects key by key.
type scenarioKeys struct {
	Threads     []int64     `json:"threads"`
	Sizes       []int64     `json:"sizes"`
	Seeds       []int64     `json:"seeds"`
	Quantum     []int64     `json:"quantum"`
	Schedulers  []string    `json:"schedulers"`
	Faults      []string    `json:"faults"`
	Region      *Region     `json:"region"`
	Limits      *Limits     `json:"limits"`
	Timeout     *string     `json:"timeout"`
	ProfileRuns *int        `json:"profile_runs"`
	RingBytes   *int64      `json:"ring_bytes"`
	Sample      *int64      `json:"sample"`
	Window      *int64      `json:"window"`
	Expect      *expectKeys `json:"expect"`
}

// expectKeys is the expect object; nil fields keep the built-in value.
type expectKeys struct {
	Outcome    *string `json:"outcome"`
	Found      *string `json:"found"`
	Replay     *string `json:"replay"`
	Slice      *string `json:"slice"`
	MinMembers *int    `json:"min_members"`
	Fault      *string `json:"fault"`
	Output     *string `json:"output"`
	ExitCode   *int    `json:"exit_code"`
}

// ParseSpec parses a scenario matrix JSON file. Decoding is strict: an
// unknown key anywhere, a key named twice in one object, a value of the
// wrong type or data after the spec object is an error, and syntax and
// type errors name their line.
func ParseSpec(src string) (*Spec, error) {
	data := []byte(src)
	keys := json.NewDecoder(bytes.NewReader(data))
	if err := checkKeys(keys, data); err != nil && err != io.EOF {
		return nil, jsonError(data, err)
	}
	if keys.More() {
		return nil, atLine(data, keys.InputOffset(), errors.New("data after the spec object"))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f specFile
	if err := dec.Decode(&f); err != nil && err != io.EOF {
		return nil, jsonError(data, err)
	}
	if len(f.Scenarios) == 0 {
		return nil, errors.New("spec needs a non-empty 'scenarios' list")
	}
	spec := &Spec{Suite: f.Suite}
	seen := map[string]bool{}
	cells := 0
	for i := range f.Scenarios {
		sf := &f.Scenarios[i]
		sc, err := sf.scenario(f.Defaults)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", cmp.Or(sf.Name, fmt.Sprintf("#%d", i)), err)
		}
		if seen[sc.Name] {
			return nil, fmt.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		// Count the cross product without building it, saturating past
		// the cap: an axis list that long is a typo, not a plan.
		n := 1
		for _, l := range []int{len(sc.Schedulers), len(sc.Faults), len(sc.Threads), len(sc.Sizes), len(sc.Quanta), len(sc.Seeds)} {
			n = min(n*l, maxCells+1)
		}
		if cells += n; cells > maxCells {
			return nil, fmt.Errorf("spec expands to more than %d cells", maxCells)
		}
		spec.Scenarios = append(spec.Scenarios, sc)
	}
	return spec, nil
}

// maxCells caps the number of cells a spec may expand to.
const maxCells = 100_000

// merge lays a scenario's keys over the defaults: every key the
// scenario sets replaces the default's value whole, objects included.
func merge(defaults, own scenarioKeys) scenarioKeys {
	d, o := reflect.ValueOf(&defaults).Elem(), reflect.ValueOf(own)
	for i := range o.NumField() {
		if !o.Field(i).IsNil() {
			d.Field(i).Set(o.Field(i))
		}
	}
	return defaults
}

// scenario builds and checks one scenario from its keys laid over the
// defaults, with built-in values for the keys neither sets.
func (sf *scenarioFile) scenario(defaults scenarioKeys) (*Scenario, error) {
	if sf.Name == "" {
		return nil, errors.New("scenario needs a name")
	}
	if sf.Workload == "" {
		return nil, errors.New("scenario needs a workload")
	}
	k := merge(defaults, sf.scenarioKeys)
	sc := &Scenario{Name: sf.Name, Workload: sf.Workload, Timeout: 60 * time.Second}
	set(&sc.Region, k.Region)
	set(&sc.Limits, k.Limits)
	set(&sc.ProfileRuns, k.ProfileRuns)
	set(&sc.RingBytes, k.RingBytes)
	set(&sc.Sample, k.Sample)
	set(&sc.Window, k.Window)
	errs := []error{
		k.Expect.apply(&sc.Expect),
		axis(&sc.Threads, k.Threads, 0, "threads"),
		axis(&sc.Sizes, k.Sizes, 0, "sizes"),
		axis(&sc.Seeds, k.Seeds, 1, "seeds"),
		axis(&sc.Quanta, k.Quantum, 20, "quantum"),
		axis(&sc.Schedulers, k.Schedulers, SchedulerRandom, "schedulers"),
		axis(&sc.Faults, k.Faults, FaultNone, "faults"),
	}
	seeds := make(map[int64]bool, len(sc.Seeds))
	for _, s := range sc.Seeds {
		if seeds[s] {
			errs = append(errs, fmt.Errorf("duplicate seed %d", s))
		}
		seeds[s] = true
	}
	for _, s := range sc.Schedulers {
		if s != SchedulerRandom && s != SchedulerMaple {
			errs = append(errs, fmt.Errorf("unknown scheduler %q (want %s or %s)", s, SchedulerRandom, SchedulerMaple))
		}
	}
	for _, f := range sc.Faults {
		errs = append(errs, checkFaultName(f))
	}
	if t := k.Timeout; t != nil {
		var err error
		if sc.Timeout, err = time.ParseDuration(*t); err != nil || sc.Timeout <= 0 {
			errs = append(errs, fmt.Errorf("bad timeout %q", *t))
		}
	}
	if sc.RingBytes < 0 || sc.Window < 0 || sc.Sample < 0 {
		errs = append(errs, errors.New("ring_bytes, window and sample must be >= 0"))
	}
	if (sc.RingBytes > 0 || sc.Sample > 1) && slices.Contains(sc.Schedulers, SchedulerMaple) {
		errs = append(errs, errors.New("ring_bytes/sample require the random scheduler: the flight recorder's resume recipe cannot capture maple's forcing scheduler"))
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	// A fault axis without an explicit fault assertion defaults to
	// "detected" — injecting corruption that nothing checks is a
	// scenario-authoring mistake.
	if sc.Expect.Fault == "" {
		sc.Expect.Fault = "none"
		for _, f := range sc.Faults {
			if f != FaultNone {
				sc.Expect.Fault = "detected"
			}
		}
	}
	return sc, nil
}

// apply sets *e to the expect object laid over the built-in assertions.
// A scenario's expect replaces the defaults' whole, so it too is laid
// over the built-ins, never over defaults.expect.
func (x *expectKeys) apply(e *Expect) error {
	*e = Expect{Outcome: "any", Replay: "clean", ExitCode: -1}
	if x == nil {
		return nil
	}
	set(&e.MinMembers, x.MinMembers)
	set(&e.ExitCode, x.ExitCode)
	return errors.Join(
		enum(&e.Outcome, x.Outcome, "outcome", "exit", "failure", "any"),
		enum(&e.Found, x.Found, "found", "any", "all", "none", ""),
		enum(&e.Replay, x.Replay, "replay", "clean", "none"),
		enum(&e.Slice, x.Slice, "slice", "closed", "provenance", "none"),
		enum(&e.Fault, x.Fault, "fault", "detected", "none"),
		enum(&e.Output, x.Output, "output", "identical", ""),
	)
}

// set copies the file's value into *dst when the file sets the key.
func set[T any](dst, v *T) {
	if v != nil {
		*dst = *v
	}
}

// axis sets *dst to the file's list, or to the one-value default when
// the key is unset.
func axis[T any](dst *[]T, v []T, def T, key string) error {
	if v == nil {
		v = []T{def}
	}
	*dst = v
	if len(v) == 0 {
		return fmt.Errorf("%s must not be empty", key)
	}
	return nil
}

// enum sets *dst to the file's value after checking it is allowed.
func enum(dst, v *string, key string, allowed ...string) error {
	if v == nil {
		return nil
	}
	if !slices.Contains(allowed, *v) {
		return fmt.Errorf("expect.%s: %q is not one of %s", key, *v, strings.Join(allowed, "|"))
	}
	*dst = *v
	return nil
}

func checkFaultName(f string) error {
	if f == FaultNone {
		return nil
	}
	kind, name, ok := strings.Cut(f, ":")
	if !ok || name == "" || (kind != "file" && kind != "pinball") {
		return fmt.Errorf("bad fault %q (want none, file:<name> or pinball:<name>)", f)
	}
	if slices.Contains(FaultNames(), f) {
		return nil
	}
	return fmt.Errorf("unknown fault %q (drmatrix faults lists the registry)", f)
}

// Expand returns the scenario's cells in deterministic nested-axis
// order: scheduler, fault, threads, size, quantum, seed (seed innermost
// so grids group a seed sweep on one row).
func (sc *Scenario) Expand() []*Cell {
	var cells []*Cell
	for _, sched := range sc.Schedulers {
		for _, fault := range sc.Faults {
			for _, th := range sc.Threads {
				for _, size := range sc.Sizes {
					for _, q := range sc.Quanta {
						for _, seed := range sc.Seeds {
							cells = append(cells, &Cell{
								Scenario: sc, Index: len(cells),
								Scheduler: sched, Fault: fault,
								Threads: th, Size: size, Quantum: q, Seed: seed,
							})
						}
					}
				}
			}
		}
	}
	return cells
}

// Cells expands every scenario, in file order.
func (s *Spec) Cells() []*Cell {
	var out []*Cell
	for _, sc := range s.Scenarios {
		out = append(out, sc.Expand()...)
	}
	return out
}

// Digest is a stable content digest of the expanded spec, recorded in
// the grid artifact as provenance.
func (s *Spec) Digest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "suite=%s\n", s.Suite)
	for _, sc := range s.Scenarios {
		fmt.Fprintf(h, "scenario=%s workload=%s region=%+v limits=%+v timeout=%s profile=%d ring=%d/%d/%d expect=%+v\n",
			sc.Name, sc.Workload, sc.Region, sc.Limits, sc.Timeout, sc.ProfileRuns, sc.RingBytes, sc.Sample, sc.Window, sc.Expect)
		for _, c := range sc.Expand() {
			fmt.Fprintf(h, "cell=%d %s seed=%d\n", c.Index, c.Axes(), c.Seed)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkKeys walks the next JSON value and rejects an object that names
// a key twice, which encoding/json would resolve silently in favour of
// the last one.
func checkKeys(dec *json.Decoder, data []byte) error {
	tok, err := dec.Token()
	if err != nil || (tok != json.Delim('{') && tok != json.Delim('[')) {
		return err
	}
	seen := map[string]bool{}
	for dec.More() {
		if tok == json.Delim('{') {
			k, err := dec.Token()
			if err != nil {
				return err
			}
			key, _ := k.(string)
			if seen[key] {
				return atLine(data, dec.InputOffset(), fmt.Errorf("duplicate key %q", key))
			}
			seen[key] = true
		}
		if err := checkKeys(dec, data); err != nil {
			return err
		}
	}
	_, err = dec.Token() // the closing delimiter
	return err
}

// jsonError names the line of a JSON syntax or type error.
func jsonError(data []byte, err error) error {
	var se *json.SyntaxError
	var te *json.UnmarshalTypeError
	switch {
	case errors.As(err, &se):
		return atLine(data, se.Offset, err)
	case errors.As(err, &te):
		return atLine(data, te.Offset, err)
	case errors.Is(err, io.ErrUnexpectedEOF):
		return atLine(data, int64(len(data)), err)
	}
	return err
}

// atLine prefixes err with the 1-based line holding byte offset off.
func atLine(data []byte, off int64, err error) error {
	line := 1 + bytes.Count(data[:min(max(off, 0), int64(len(data)))], []byte("\n"))
	return fmt.Errorf("line %d: %w", line, err)
}
