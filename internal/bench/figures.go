package bench

import (
	"fmt"
	"time"

	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/workloads"
)

// warmupSkip fast-forwards past thread creation so the logged region has
// all worker threads active, like the paper's skip selection.
const warmupSkip int64 = 1000

// SweepPoint is one (length, time) measurement of Figure 11 or 12.
type SweepPoint struct {
	Length     int64 // main-thread instructions in the region
	AllThreads int64 // instructions across all threads
	Time       time.Duration
	SpaceBytes int64
}

// SweepSeries is one benchmark's curve.
type SweepSeries struct {
	Workload string
	Class    string
	Points   []SweepPoint
}

// Figure11 reproduces the logging-time sweep: for each PARSEC-like
// workload, log regions of each configured length (4 threads) and report
// the wall-clock logging time (with the encoded pinball size, where the
// paper reports it "with bzip2 pinball compression").
func Figure11(cfg Config) ([]SweepSeries, error) {
	cfg.printf("Figure 11: logging times (wall clock) vs region length, %d threads\n", cfg.Threads)
	return sweep(cfg, "log", func(w *workloads.Workload, length int64) (SweepPoint, error) {
		pb, logTime, err := logRegion(w, &cfg, warmupSkip, length)
		if err != nil {
			return SweepPoint{}, err
		}
		p := SweepPoint{Length: pb.MainInstrs, AllThreads: pb.RegionInstrs, Time: logTime}
		if sz, err := pb.EncodedSize(); err == nil {
			p.SpaceBytes = sz
		}
		return p, nil
	})
}

// Figure12 reproduces the replay-time sweep over the same pinballs.
func Figure12(cfg Config) ([]SweepSeries, error) {
	cfg.printf("Figure 12: replay times (wall clock) vs region length, %d threads\n", cfg.Threads)
	return sweep(cfg, "replay", func(w *workloads.Workload, length int64) (SweepPoint, error) {
		pb, _, err := logRegion(w, &cfg, warmupSkip, length)
		if err != nil {
			return SweepPoint{}, err
		}
		prog, err := w.Program()
		if err != nil {
			return SweepPoint{}, err
		}
		rt, err := replayTimed(prog, pb)
		if err != nil {
			return SweepPoint{}, err
		}
		return SweepPoint{Length: pb.MainInstrs, AllThreads: pb.RegionInstrs, Time: rt}, nil
	})
}

// sweep runs one measurement over every PARSEC-like workload and length.
func sweep(cfg Config, what string, measure func(*workloads.Workload, int64) (SweepPoint, error)) ([]SweepSeries, error) {
	var out []SweepSeries
	for _, w := range workloads.Parsec() {
		s := SweepSeries{Workload: w.Name, Class: w.Class}
		for _, length := range cfg.SweepLengths {
			p, err := measure(w, length)
			if err != nil {
				return nil, fmt.Errorf("bench: %s %s @%d: %w", w.Name, what, length, err)
			}
			s.Points = append(s.Points, p)
		}
		out = append(out, s)
		cfg.printf("%-14s (%s):", w.Name, w.Class)
		for _, p := range s.Points {
			cfg.printf("  %dk->%.3fs", p.Length/1000, seconds(p.Time))
		}
		cfg.printf("\n")
	}
	return out, nil
}

// Fig13Row is one workload's Figure 13 result: average reduction in slice
// size from save/restore pruning, for the two region lengths.
type Fig13Row struct {
	Workload       string
	ReductionSmall float64 // % reduction, cfg.RegionLen regions
	ReductionLarge float64 // % reduction, cfg.RegionLenLarge regions
	PairsVerified  int64
	Slices         int
}

// Figure13 reproduces the spurious-dependence-removal experiment: for the
// five SPEC OMP-like workloads, compute the configured number of slices
// (last reads spread across threads) per region with and without
// save/restore pruning (MaxSave=10), reporting the average slice-size
// reduction for both region lengths.
func Figure13(cfg Config) ([]Fig13Row, error) {
	cfg.printf("Figure 13: slice-size reduction from save/restore pruning (MaxSave=10)\n")
	cfg.printf("%-10s | %-10s | %-10s\n", "Workload",
		fmt.Sprintf("%dk region", cfg.RegionLen/1000), fmt.Sprintf("%dk region", cfg.RegionLenLarge/1000))
	var rows []Fig13Row
	for _, w := range workloads.SpecOMP() {
		row := Fig13Row{Workload: w.Name, Slices: cfg.Slices}
		for i, length := range []int64{cfg.RegionLen, cfg.RegionLenLarge} {
			red, pairs, err := pruneReduction(&cfg, w, length)
			if err != nil {
				return nil, fmt.Errorf("bench: fig13 %s @%d: %w", w.Name, length, err)
			}
			if i == 0 {
				row.ReductionSmall = red
			} else {
				row.ReductionLarge = red
			}
			row.PairsVerified = pairs
		}
		rows = append(rows, row)
		cfg.printf("%-10s | %9.2f%% | %9.2f%%\n", row.Workload, row.ReductionSmall, row.ReductionLarge)
	}
	var avgS, avgL float64
	for _, r := range rows {
		avgS += r.ReductionSmall
		avgL += r.ReductionLarge
	}
	if len(rows) > 0 {
		cfg.printf("%-10s | %9.2f%% | %9.2f%%\n", "average", avgS/float64(len(rows)), avgL/float64(len(rows)))
	}
	return rows, nil
}

// pruneReduction measures the average slice-size reduction over the
// configured criteria for one workload and region length.
func pruneReduction(cfg *Config, w *workloads.Workload, length int64) (float64, int64, error) {
	pb, _, err := logRegion(w, cfg, warmupSkip, length)
	if err != nil {
		return 0, 0, err
	}
	prog, err := w.Program()
	if err != nil {
		return 0, 0, err
	}
	tr, _, err := collectTrace(prog, pb)
	if err != nil {
		return 0, 0, err
	}
	unpruned, err := slice.New(prog, tr, slice.Options{MaxSave: 10, ControlDeps: true})
	if err != nil {
		return 0, 0, err
	}
	pruned, err := slice.New(prog, tr, slice.DefaultOptions())
	if err != nil {
		return 0, 0, err
	}
	crits := slice.LastReadsInRegion(tr, cfg.Slices)
	if len(crits) == 0 {
		return 0, 0, fmt.Errorf("no criteria found")
	}
	var totalRed float64
	var pairs int64
	for _, c := range crits {
		u, err := unpruned.Slice(c)
		if err != nil {
			return 0, 0, err
		}
		p, err := pruned.Slice(c)
		if err != nil {
			return 0, 0, err
		}
		if u.Stats.Members > 0 {
			totalRed += 100 * float64(u.Stats.Members-p.Stats.Members) / float64(u.Stats.Members)
		}
		pairs = p.Stats.VerifiedPairs
	}
	return totalRed / float64(len(crits)), pairs, nil
}

// Fig14Row is one workload's Figure 14 result.
type Fig14Row struct {
	Workload         string
	RegionInstrs     int64
	AvgSliceInstrs   int64
	PctInstrsKept    float64 // avg % of region instructions in slice pinballs
	RegionReplay     time.Duration
	AvgSliceReplay   time.Duration
	ReplaySpeedupPct float64 // how much faster slice replay is
}

// Figure14 reproduces the execution-slicing experiment: for each
// PARSEC-like workload, compute slices for the last reads, relog each
// into a slice pinball, and compare slice-pinball replay time and
// instruction count against the full region pinball (paper: on average
// 41% of instructions kept, replay 36% faster).
func Figure14(cfg Config) ([]Fig14Row, error) {
	cfg.printf("Figure 14: execution slicing — replay times and %%instructions, %dk regions\n", cfg.RegionLen/1000)
	cfg.printf("%-14s | %-10s | %-12s | %-12s | %-8s\n", "Workload", "%instrs", "region(s)", "slice(s)", "faster")
	var rows []Fig14Row
	for _, w := range workloads.Parsec() {
		row, err := execSliceRow(&cfg, w)
		if err != nil {
			return nil, fmt.Errorf("bench: fig14 %s: %w", w.Name, err)
		}
		rows = append(rows, *row)
		cfg.printf("%-14s | %9.1f%% | %12.3f | %12.3f | %6.1f%%\n",
			row.Workload, row.PctInstrsKept, seconds(row.RegionReplay), seconds(row.AvgSliceReplay), row.ReplaySpeedupPct)
	}
	var pct, spd float64
	for _, r := range rows {
		pct += r.PctInstrsKept
		spd += r.ReplaySpeedupPct
	}
	if len(rows) > 0 {
		cfg.printf("%-14s | %9.1f%% | %-12s | %-12s | %6.1f%%\n", "average",
			pct/float64(len(rows)), "", "", spd/float64(len(rows)))
	}
	return rows, nil
}

func execSliceRow(cfg *Config, w *workloads.Workload) (*Fig14Row, error) {
	pb, _, err := logRegion(w, cfg, warmupSkip, cfg.RegionLen)
	if err != nil {
		return nil, err
	}
	prog, err := w.Program()
	if err != nil {
		return nil, err
	}
	tr, _, err := collectTrace(prog, pb)
	if err != nil {
		return nil, err
	}
	// The paper's LP slicer computes the slices Figure 14 replays.
	slicer, err := slice.New(prog, tr, slice.DefaultOptions())
	if err != nil {
		return nil, err
	}
	crits := slice.LastReadsInRegion(tr, cfg.Slices)
	if len(crits) == 0 {
		return nil, fmt.Errorf("no criteria")
	}

	regionReplay, err := replayTimed(prog, pb)
	if err != nil {
		return nil, err
	}

	row := &Fig14Row{Workload: w.Name, RegionInstrs: pb.RegionInstrs, RegionReplay: regionReplay}
	var sliceInstrs int64
	var sliceReplay time.Duration
	for _, c := range crits {
		sl, err := slicer.Slice(c)
		if err != nil {
			return nil, err
		}
		spb, err := pinplay.Relog(prog, pb, slice.BuildExclusions(tr, sl))
		if err != nil {
			return nil, err
		}
		sliceInstrs += spb.RegionInstrs
		rt, err := replayTimed(prog, spb)
		if err != nil {
			return nil, err
		}
		sliceReplay += rt
	}
	n := int64(len(crits))
	row.AvgSliceInstrs = sliceInstrs / n
	row.AvgSliceReplay = sliceReplay / time.Duration(n)
	if pb.RegionInstrs > 0 {
		row.PctInstrsKept = 100 * float64(row.AvgSliceInstrs) / float64(pb.RegionInstrs)
	}
	if regionReplay > 0 {
		row.ReplaySpeedupPct = 100 * (1 - seconds(row.AvgSliceReplay)/seconds(regionReplay))
	}
	return row, nil
}

// OverheadSummary reproduces the Section 7 "slicing overhead" text
// numbers: dynamic-information tracing time, and average slice size and
// slicing time for the last-reads criteria.
type OverheadSummary struct {
	Workload       string
	RegionInstrs   int64
	TraceTime      time.Duration
	AvgSliceSize   int64
	AvgSliceTime   time.Duration
	SlicesComputed int
}

// SlicingOverhead measures tracing and slicing cost for each PARSEC-like
// workload at the configured region length.
func SlicingOverhead(cfg Config) ([]OverheadSummary, error) {
	cfg.printf("Slicing overhead (§7): tracing and slicing cost, %dk regions\n", cfg.RegionLen/1000)
	cfg.printf("%-14s | %-12s | %-10s | %-14s | %-10s\n", "Workload", "instrs", "trace(s)", "avg slice size", "avg slice(s)")
	var rows []OverheadSummary
	for _, w := range workloads.Parsec() {
		pb, _, err := logRegion(w, &cfg, warmupSkip, cfg.RegionLen)
		if err != nil {
			return nil, err
		}
		prog, err := w.Program()
		if err != nil {
			return nil, err
		}
		tr, traceTime, err := collectTrace(prog, pb)
		if err != nil {
			return nil, err
		}
		// The paper's LP slicer, timed per query as in §7.
		slicer, err := slice.New(prog, tr, slice.DefaultOptions())
		if err != nil {
			return nil, err
		}
		crits := slice.LastReadsInRegion(tr, cfg.Slices)
		var size int64
		var dur time.Duration
		for _, c := range crits {
			start := time.Now()
			sl, err := slicer.Slice(c)
			if err != nil {
				return nil, err
			}
			dur += time.Since(start)
			size += int64(sl.Stats.Members)
		}
		row := OverheadSummary{
			Workload:       w.Name,
			RegionInstrs:   pb.RegionInstrs,
			TraceTime:      traceTime,
			SlicesComputed: len(crits),
		}
		if len(crits) > 0 {
			row.AvgSliceSize = size / int64(len(crits))
			row.AvgSliceTime = dur / time.Duration(len(crits))
		}
		rows = append(rows, row)
		cfg.printf("%-14s | %12d | %10.3f | %14d | %10.4f\n",
			row.Workload, row.RegionInstrs, seconds(row.TraceTime), row.AvgSliceSize, seconds(row.AvgSliceTime))
	}
	return rows, nil
}
