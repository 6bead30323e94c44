package matrix

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/maple"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/supervisor"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Cell exit codes, mirroring the CLI's shared table (cmd/internal/cli)
// so a grid reads like a batch of tool invocations.
const (
	CellOK         = 0 // run + checks behaved; provenance is trustworthy
	CellError      = 1 // the cell errored outside the typed classes
	CellBadPinball = 2 // the pinball failed to decode or validate
	CellDiverged   = 3 // replay diverged or hit an execution limit
	CellPanic      = 5 // a phase panicked (isolated by the supervisor)
	CellHung       = 6 // the watchdog killed a hung cell
	CellEstimated  = 9 // the cell's slice carries estimated ring content
)

// FaultNames lists the fault axis values the scenario format accepts,
// in deterministic order: every byte-level corruptor as file:<name>,
// every semantic corruptor as pinball:<name>.
func FaultNames() []string {
	var out []string
	for _, c := range faultinject.FileCorruptors() {
		out = append(out, "file:"+c.Name)
	}
	for _, c := range faultinject.PinballCorruptors() {
		if !c.SliceOnly {
			out = append(out, "pinball:"+c.Name)
		}
	}
	for _, c := range faultinject.RingCorruptors() {
		out = append(out, "pinball:"+c.Name)
	}
	return out
}

// RunOptions configures a matrix run.
type RunOptions struct {
	// Workers bounds the parallel cell pool (default: NumCPU, capped
	// at 8). Cell results are ordered by expansion index, so the worker
	// count never changes the artifact.
	Workers int
	// Timings includes per-cell wall-clock durations in the artifact.
	// Off by default: identical invocations must produce byte-identical
	// grids, and wall-clock is the one non-deterministic fact.
	Timings bool
	// BaseDir resolves file-based workloads (scenario workload values
	// ending in .c) relative to the spec file's directory.
	BaseDir string
	// Log, when set, receives one progress line per completed cell.
	Log func(format string, args ...any)
}

// Run expands the spec and executes every cell on a bounded worker
// pool, each under the supervisor's panic isolation and the scenario's
// watchdog timeout, and assembles the deterministic grid.
func Run(spec *Spec, opts RunOptions) (*Grid, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
		if workers > 8 {
			workers = 8
		}
	}
	r := &runner{opts: opts, progs: map[string]*progEntry{}}
	cells := spec.Cells()
	results := make([]*CellResult, len(cells))

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res := r.runCell(cells[i])
				results[i] = res
				if opts.Log != nil {
					opts.Log("%-12s %s seed=%-4d %s", res.Scenario, cells[i].Axes(), res.Seed, res.Status)
				}
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	return assemble(spec, cells, results, opts.Timings), nil
}

// progEntry caches one compiled program per workload reference.
type progEntry struct {
	once sync.Once
	w    *workloads.Workload // nil for file-based programs
	prog *isa.Program
	err  error
}

type runner struct {
	opts  RunOptions
	mu    sync.Mutex
	progs map[string]*progEntry
}

// resolve compiles (once) the cell's workload: a registry name, or a
// mini-C source path relative to the spec.
func (r *runner) resolve(name string) (*isa.Program, *workloads.Workload, error) {
	r.mu.Lock()
	e, ok := r.progs[name]
	if !ok {
		e = &progEntry{}
		r.progs[name] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		if w, err := workloads.ByName(name); err == nil {
			e.w = w
			e.prog, e.err = w.Program()
			return
		}
		if filepath.Ext(name) != ".c" {
			e.err = fmt.Errorf("matrix: workload %q is neither registered nor a .c file", name)
			return
		}
		path := name
		if r.opts.BaseDir != "" && !filepath.IsAbs(path) {
			path = filepath.Join(r.opts.BaseDir, path)
		}
		src, err := os.ReadFile(path)
		if err != nil {
			e.err = fmt.Errorf("matrix: %w", err)
			return
		}
		e.prog, e.err = cc.CompileSource(filepath.Base(path), string(src))
	})
	return e.prog, e.w, e.err
}

// runCell executes one cell under the supervisor: record (random or
// maple), optional fault injection, replay verification, failure
// slicing, then assertion evaluation.
func (r *runner) runCell(c *Cell) *CellResult {
	sc := c.Scenario
	res := &CellResult{
		Scenario: sc.Name, Workload: sc.Workload,
		Scheduler: c.Scheduler, Threads: c.Threads, Size: c.Size,
		Quantum: c.Quantum, Seed: c.Seed,
	}
	if c.Fault != FaultNone {
		res.Fault = c.Fault
	}
	start := time.Now()
	// The watchdog backstops the context deadline: the deadline stops
	// the cell from inside the VM's stepping loop with a typed error,
	// the watchdog only fires if a phase wedges outside any VM loop.
	rep, err := supervisor.Run("cell", supervisor.Options{
		MaxAttempts: 1,
		Watchdog:    sc.Timeout + 5*time.Second,
	}, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), sc.Timeout)
		defer cancel()
		return r.executeCell(ctx, c, res)
	})
	res.DurationMS = time.Since(start).Milliseconds()
	if err != nil {
		var se *supervisor.SessionError
		if errors.As(err, &se) {
			switch se.Kind {
			case supervisor.KindPanic:
				res.ExitCode = CellPanic
			case supervisor.KindTimeout:
				res.ExitCode = CellHung
			default:
				if res.ExitCode == CellOK {
					res.ExitCode = classifyExit(se.Err)
				}
			}
		} else if res.ExitCode == CellOK {
			res.ExitCode = classifyExit(err)
		}
		res.Outcome = "error"
		res.Status = statusFail
		res.Reason = err.Error()
		return res
	}
	_ = rep
	evaluateCell(c, res)
	return res
}

// executeCell fills the cell's facts; assertion evaluation happens
// outside, so a cell that *observes* a failure (the whole point of bug
// scenarios) is not itself a failure.
func (r *runner) executeCell(ctx context.Context, c *Cell, res *CellResult) error {
	sc := c.Scenario
	prog, w, err := r.resolve(sc.Workload)
	if err != nil {
		return err
	}
	threads := c.Threads
	if threads <= 0 && w != nil {
		threads = w.DefaultThreads
	}
	var input []int64
	if w != nil {
		input = w.Input(threads, c.Size)
	} else if threads > 0 || c.Size > 0 {
		input = []int64{threads, c.Size}
	}
	cfg := pinplay.LogConfig{
		Seed: c.Seed, MeanQuantum: c.Quantum, Input: input,
		RandSeed: c.Seed, MaxSteps: sc.Limits.Steps,
		RingBytes: sc.RingBytes, RingSample: sc.Sample, JournalEvery: sc.Window,
	}

	// Record.
	var pb *pinball.Pinball
	switch c.Scheduler {
	case SchedulerMaple:
		mres, err := maple.FindBug(ctx, prog, cfg, maple.Options{
			ProfileRuns: sc.ProfileRuns, MaxSteps: sc.Limits.Steps,
		})
		if err != nil {
			return err
		}
		res.MapleAttempts = mres.Attempts
		res.MaplePredicted = mres.RootsPredicted
		if mres.Exposed {
			pb = mres.Pinball
		}
	default:
		pb, err = pinplay.Log(prog, cfg, pinplay.RegionSpec{SkipMain: sc.Region.Skip, LengthMain: sc.Region.Length})
		if err != nil {
			return err
		}
	}
	if pb == nil {
		// Maple explored clean: every run exited, nothing was captured.
		res.Outcome = "exit"
		return nil
	}
	res.Pinball = pb.ID()
	if pb.Gapped() {
		res.RingEvicted = len(pb.Evictions)
		res.RingGap = pb.GapInstrs()
	}
	if pb.Failure != nil {
		res.Outcome = "failure"
		res.Exposed = true
		res.Failure = pb.Failure.Error()
	} else {
		res.Outcome = "exit"
	}

	// Fault injection: corrupt the capture and record whether the
	// defence layers (typed decode errors, Validate, divergence
	// checkpoints) catch it. Fault cells end here — the corrupted
	// pinball is not replayed for output or sliced.
	if c.Fault != FaultNone {
		return r.injectFault(ctx, c, prog, pb, res)
	}

	// Replay verification.
	if sc.Expect.Replay == "clean" {
		m, _, err := pinplay.ReplayWith(prog, pb, pinplay.ReplayOptions{
			Limits: vm.Limits{MaxPages: sc.Limits.Pages, Ctx: ctx},
		})
		switch {
		case err == nil:
			res.Replay = "clean"
			res.Output = m.Output()
		case errors.Is(err, pinplay.ErrReplay):
			res.Replay = "diverged"
			res.ExitCode = CellDiverged
			res.Reason = err.Error()
		default:
			return err
		}
	}

	// Failure slice + closure check (the closure checker also verifies
	// provenance annotations against a recomputation from the trace's
	// gap spans).
	wantSlice := sc.Expect.Slice == "closed" || sc.Expect.Slice == "provenance"
	if wantSlice && pb.Failure != nil && res.Replay != "diverged" {
		sess := core.Open(prog, pb)
		sl, err := sess.SliceAtFailure()
		if err != nil {
			return fmt.Errorf("slice: %w", err)
		}
		res.SliceMembers = sl.Stats.Members
		res.SliceTrace = sl.Stats.TraceLen
		if sl.Prov != nil {
			res.ProvExactEdges = sl.Prov.ExactEdges
			res.ProvBridgedEdges = sl.Prov.BridgedEdges
			res.ProvEstimatedEdges = sl.Prov.EstimatedEdges
			if sl.Prov.Degraded() {
				res.ExitCode = CellEstimated
			}
		}
		// The sequential reference slicer checks the engine's answer
		// over the same trace.
		tr, err := sess.Trace()
		if err != nil {
			return err
		}
		oracle, err := slice.New(prog, tr, slice.DefaultOptions())
		if err != nil {
			return err
		}
		if err := oracle.CheckClosure(sl); err != nil {
			res.SliceClosed = false
			res.Reason = err.Error()
		} else {
			res.SliceClosed = true
		}
	}
	return nil
}

// injectFault applies the cell's named corruptor and drives the
// detection pipeline: decode (file faults), validate, then replay.
func (r *runner) injectFault(ctx context.Context, c *Cell, prog *isa.Program, pb *pinball.Pinball, res *CellResult) error {
	kind, name, _ := strings.Cut(c.Fault, ":")
	detected := func(how string, code int) {
		res.FaultDetected = "detected:" + how
		res.ExitCode = code
	}
	switch kind {
	case "file":
		corr, ok := findFileCorruptor(name)
		if !ok {
			return fmt.Errorf("unknown file corruptor %q", name)
		}
		data, err := pb.EncodeBytes()
		if err != nil {
			return err
		}
		bad, ok := corr.Apply(data)
		if !ok {
			res.FaultDetected = "inapplicable"
			return nil
		}
		pb2, err := pinball.Decode(bad)
		if err != nil {
			if corr.Want != nil && !errors.Is(err, corr.Want) {
				return fmt.Errorf("fault %s: decode failed with %v, want %v", c.Fault, err, corr.Want)
			}
			detected("decode", CellBadPinball)
			return nil
		}
		pb = pb2
	case "pinball":
		corr, ok := findPinballCorruptor(name)
		if !ok {
			return fmt.Errorf("unknown pinball corruptor %q", name)
		}
		clone, err := faultinject.Clone(pb)
		if err != nil {
			return err
		}
		if !corr.Apply(clone) {
			res.FaultDetected = "inapplicable"
			return nil
		}
		pb = clone
	}
	if err := pb.Validate(); err != nil {
		detected("validate", CellBadPinball)
		return nil
	}
	m, _, err := pinplay.ReplayWith(prog, pb, pinplay.ReplayOptions{
		Limits: vm.Limits{MaxPages: c.Scenario.Limits.Pages, Ctx: ctx},
	})
	switch {
	case err != nil:
		detected("replay", CellDiverged)
	case pb.Failure == nil && m.Stopped() == vm.StopFailure:
		// The tampered run faulted where the recording did not.
		detected("fault", CellDiverged)
	default:
		res.FaultDetected = "missed"
	}
	return nil
}

func findFileCorruptor(name string) (faultinject.FileCorruptor, bool) {
	for _, c := range faultinject.FileCorruptors() {
		if c.Name == name {
			return c, true
		}
	}
	return faultinject.FileCorruptor{}, false
}

func findPinballCorruptor(name string) (faultinject.PinballCorruptor, bool) {
	for _, c := range faultinject.PinballCorruptors() {
		if c.Name == name {
			return c, true
		}
	}
	for _, c := range faultinject.RingCorruptors() {
		if c.Name == name {
			return c, true
		}
	}
	return faultinject.PinballCorruptor{}, false
}

// classifyExit maps an error to the cell exit code table.
func classifyExit(err error) int {
	switch {
	case err == nil:
		return CellOK
	case errors.Is(err, pinball.ErrNotPinball),
		errors.Is(err, pinball.ErrVersionSkew),
		errors.Is(err, pinball.ErrTruncated),
		errors.Is(err, pinball.ErrCorrupt):
		return CellBadPinball
	case errors.Is(err, pinplay.ErrReplay),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return CellDiverged
	}
	return CellError
}

// evaluateCell applies the scenario's per-cell assertions to the facts.
func evaluateCell(c *Cell, res *CellResult) {
	e := c.Scenario.Expect
	fail := func(format string, args ...any) {
		res.Status = statusFail
		if res.Reason == "" {
			res.Reason = fmt.Sprintf(format, args...)
		}
	}
	res.Status = statusPass
	if res.FaultDetected == "inapplicable" {
		// The corruptor declined this pinball (e.g. no syscalls to
		// tamper with): the cell is provenance, not a verdict.
		res.Status = statusSkip
		return
	}
	switch e.Outcome {
	case "exit":
		if res.Outcome != "exit" {
			fail("outcome %s, want exit", res.Outcome)
		}
	case "failure":
		if res.Outcome != "failure" {
			fail("outcome %s, want failure", res.Outcome)
		}
	default:
		if res.Outcome == "error" {
			fail("cell errored")
		}
	}
	if e.Replay == "clean" && res.Replay == "diverged" {
		fail("replay diverged")
	}
	if (e.Slice == "closed" || e.Slice == "provenance") && res.Outcome == "failure" && res.Fault == "" {
		min := e.MinMembers
		if min < 1 {
			min = 1
		}
		provEdges := res.ProvExactEdges + res.ProvBridgedEdges + res.ProvEstimatedEdges
		switch {
		case !res.SliceClosed:
			fail("slice closure violated: %s", res.Reason)
		case res.SliceMembers < min:
			fail("slice has %d members, want >= %d", res.SliceMembers, min)
		case res.SliceMembers >= res.SliceTrace:
			fail("slice (%d) not smaller than region (%d)", res.SliceMembers, res.SliceTrace)
		case e.Slice == "provenance" && res.RingEvicted > 0 && provEdges == 0:
			fail("flight-recorder slice carries no provenance annotation")
		case e.Slice == "provenance" && res.RingEvicted == 0 && provEdges > 0:
			fail("gap-free slice carries provenance annotation")
		}
	}
	if e.Fault == "detected" && res.Fault != "" && res.FaultDetected == "missed" {
		fail("injected fault %s went undetected", res.Fault)
	}
	if e.ExitCode >= 0 && res.ExitCode != e.ExitCode {
		fail("exit code %d, want %d", res.ExitCode, e.ExitCode)
	}
}
