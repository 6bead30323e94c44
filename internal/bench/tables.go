package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/tracer"
	"repro/internal/workloads"
)

// Table1Row is one case study of Table 1.
type Table1Row struct {
	Program     string
	Description string
	Exposed     bool
	Seed        int64 // -1 when Maple's active scheduler exposed it
	FailurePC   int64
}

// Table1 reproduces Table 1: the three real data-race bugs, each exposed
// and captured in a pinball.
func Table1(cfg Config) ([]Table1Row, error) {
	cfg.printf("Table 1: data race bugs used in the experiments\n")
	cfg.printf("%-8s | %-6s | %s\n", "Program", "Type", "Bug Description")
	var rows []Table1Row
	for _, w := range []string{"pbzip2", "aget", "mozilla"} {
		wl, err := workloads.ByName(w)
		if err != nil {
			return nil, err
		}
		sess, seed, err := exposeBug(wl, &cfg, bugSizes[w])
		if err != nil {
			return nil, err
		}
		row := Table1Row{
			Program:     w,
			Description: wl.Description,
			Exposed:     true,
			Seed:        seed,
			FailurePC:   sess.Pinball.Failure.PC,
		}
		rows = append(rows, row)
		how := fmt.Sprintf("seed %d", seed)
		if seed < 0 {
			how = "maple active scheduler"
		}
		cfg.printf("%-8s | %-6s | %s\n", w, "Real", wl.Description)
		cfg.printf("%-8s   exposed via %s; failure at pc %d, reproduced by replay\n", "", how, row.FailurePC)
	}
	return rows, nil
}

// OverheadRow is one row of Table 2 or Table 3.
type OverheadRow struct {
	Program          string
	ExecutedInstrs   int64
	SliceInstrs      int64
	SlicePct         float64
	LoggingTime      time.Duration
	SpaceBytes       int64
	ReplayTime       time.Duration
	SlicingTime      time.Duration
	SliceReplayTime  time.Duration
	TraceCollectTime time.Duration
}

func (r OverheadRow) format() string {
	return fmt.Sprintf("%-8s | %12d | %9d (%5.2f%%) | %9.3f | %9.3f | %9.3f | %9.3f",
		r.Program, r.ExecutedInstrs, r.SliceInstrs, r.SlicePct,
		seconds(r.LoggingTime), mb(r.SpaceBytes), seconds(r.ReplayTime), seconds(r.SlicingTime))
}

const overheadHeader = "Program  | #executed    | #instr in slice pb  | Log(s)    | Space(MB) | Replay(s) | Slice(s)"

// bugOverhead measures one bug under either a whole-program region
// (skip 0) or a buggy region that starts rootWindow main-thread
// instructions before the failure.
func bugOverhead(name string, cfg *Config, rootWindow int64) (*OverheadRow, error) {
	wl, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	// Find the failing schedule on the whole execution first.
	whole, seed, err := exposeBug(wl, cfg, bugSizes[name])
	if err != nil {
		return nil, err
	}
	prog := whole.Prog

	sess := whole
	var logTime time.Duration
	if rootWindow > 0 && seed >= 0 {
		// Buggy region: re-log the same (deterministic, same-seed)
		// execution, fast-forwarding to rootWindow main-thread
		// instructions before the failure — a region containing both the
		// root cause and the symptom.
		skip := whole.Pinball.MainInstrs - rootWindow
		if skip < 0 {
			skip = 0
		}
		lc := pinplay.LogConfig{Seed: seed, MeanQuantum: 20, Input: wl.Input(wl.DefaultThreads, bugSizes[name]), MaxSteps: 100_000_000}
		start := time.Now()
		pb, err := pinplay.LogUntilFailure(prog, lc, skip)
		logTime = time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("bench: %s region relog: %w", name, err)
		}
		sess = core.Open(prog, pb)
	} else {
		// Whole execution: time a fresh identical logging run.
		lc := pinplay.LogConfig{Seed: seed, MeanQuantum: 20, Input: wl.Input(wl.DefaultThreads, bugSizes[name]), MaxSteps: 100_000_000}
		if seed >= 0 {
			start := time.Now()
			if _, err := pinplay.LogUntilFailure(prog, lc, 0); err != nil {
				return nil, err
			}
			logTime = time.Since(start)
		}
	}

	row := &OverheadRow{Program: name, ExecutedInstrs: sess.Pinball.RegionInstrs}
	row.LoggingTime = logTime
	if sz, err := sess.Pinball.EncodedSize(); err == nil {
		row.SpaceBytes = sz
	}
	rt, err := replayTimed(prog, sess.Pinball)
	if err != nil {
		return nil, fmt.Errorf("bench: %s replay: %w", name, err)
	}
	row.ReplayTime = rt

	tr, traceTime, err := collectTrace(prog, sess.Pinball)
	if err != nil {
		return nil, fmt.Errorf("bench: %s trace: %w", name, err)
	}
	row.TraceCollectTime = traceTime

	// The paper's LP slicer over the collected trace: the slicing time
	// covers the slicer build and the failure-point query, not the replay.
	start := time.Now()
	sl, err := sliceAtFailure(prog, tr, sess.Pinball.Failure.Tid)
	if err != nil {
		return nil, fmt.Errorf("bench: %s slice: %w", name, err)
	}
	row.SlicingTime = time.Since(start)

	spb, err := pinplay.Relog(prog, sess.Pinball, slice.BuildExclusions(tr, sl))
	if err != nil {
		return nil, fmt.Errorf("bench: %s exec slice: %w", name, err)
	}
	row.SliceInstrs = spb.RegionInstrs
	if row.ExecutedInstrs > 0 {
		row.SlicePct = 100 * float64(row.SliceInstrs) / float64(row.ExecutedInstrs)
	}
	if srt, err := replayTimed(prog, spb); err == nil {
		row.SliceReplayTime = srt
	}
	return row, nil
}

// sliceAtFailure slices the failing thread's last event with the
// paper's LP slicer.
func sliceAtFailure(prog *isa.Program, tr *tracer.Trace, tid int) (*slice.Slice, error) {
	slicer, err := slice.New(prog, tr, slice.DefaultOptions())
	if err != nil {
		return nil, err
	}
	crit, err := slice.LastEventOf(tr, tid)
	if err != nil {
		return nil, err
	}
	return slicer.Slice(crit)
}

// Table2 reproduces Table 2: overheads with buggy execution regions
// (root cause to failure point).
func Table2(cfg Config) ([]OverheadRow, error) {
	cfg.printf("Table 2: time and space overhead, buggy execution region\n%s\n", overheadHeader)
	var rows []OverheadRow
	for _, name := range []string{"pbzip2", "aget", "mozilla"} {
		r, err := bugOverhead(name, &cfg, 2000)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *r)
		cfg.printf("%s\n", r.format())
	}
	return rows, nil
}

// Table3 reproduces Table 3: overheads with whole-program execution
// regions (program start to failure point).
func Table3(cfg Config) ([]OverheadRow, error) {
	cfg.printf("Table 3: time and space overhead, whole program execution region\n%s\n", overheadHeader)
	var rows []OverheadRow
	for _, name := range []string{"pbzip2", "aget", "mozilla"} {
		r, err := bugOverhead(name, &cfg, 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *r)
		cfg.printf("%s\n", r.format())
	}
	return rows, nil
}
