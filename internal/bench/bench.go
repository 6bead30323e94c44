// Package bench regenerates every table and figure of the paper's
// evaluation (Section 7) on the Go substrate:
//
//	Table 1  — the three real data-race bugs and their reproduction
//	Table 2  — time/space overhead with buggy execution regions
//	Table 3  — time/space overhead with whole-program regions
//	Fig 11   — logging time vs region length (PARSEC-like, 4 threads)
//	Fig 12   — replay time vs region length
//	Fig 13   — slice-size reduction from save/restore pruning (SPEC OMP-like)
//	Fig 14   — execution-slice replay time and %instructions kept
//	§7 text  — slicing overhead (tracing time, slice size/time)
//
// Absolute times differ from the paper (interpreter vs Xeon hardware); the
// shapes — how cost scales with region length, who wins, by what factor —
// are the reproduction target. Region lengths are scaled by the Scale
// config: the paper's 10M..1B instruction sweeps map onto 10k..1M by
// default so the full suite runs in minutes; raise Scale on the CLI for
// longer sweeps.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/maple"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/tracer"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Config parameterises the experiment harness.
type Config struct {
	Out io.Writer

	// Threads is the worker thread count (paper: 4-threaded runs).
	Threads int64
	// SweepLengths are the main-thread region lengths for Figures 11/12
	// (the paper's 10M..1B sweep, scaled).
	SweepLengths []int64
	// RegionLen is the Figures 13/14 "1 million instructions (main
	// thread)" region length, scaled.
	RegionLen int64
	// RegionLenLarge is Figure 13's second configuration ("10 million"),
	// scaled.
	RegionLenLarge int64
	// Slices is the number of slicing criteria per region (paper: 10).
	Slices int
	// Seed drives the emulated scheduling nondeterminism.
	Seed int64
	// MaxSeedSearch bounds the failing-seed search for the bug studies.
	MaxSeedSearch int64
}

// DefaultConfig returns the configuration used by `drbench` and the bench
// tests: the paper's parameters with instruction counts scaled 1000x down
// (interpreter vs native hardware).
func DefaultConfig(out io.Writer) Config {
	return Config{
		Out:            out,
		Threads:        4,
		SweepLengths:   []int64{10_000, 30_000, 100_000, 300_000, 1_000_000},
		RegionLen:      100_000,
		RegionLenLarge: 1_000_000,
		Slices:         10,
		Seed:           1,
		MaxSeedSearch:  200,
	}
}

func (c *Config) printf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

// hugeSize is the work-size input for open-ended region sweeps: the
// program would run (effectively) forever, and the logger cuts the region
// at the requested length.
const hugeSize int64 = 1 << 40

// seconds formats a duration the way the paper's tables do.
func seconds(d time.Duration) float64 { return d.Seconds() }

// mb formats a byte count in MB.
func mb(n int64) float64 { return float64(n) / (1 << 20) }

// logRegion logs one workload region and returns the pinball plus the
// logging wall time.
func logRegion(w *workloads.Workload, cfg *Config, skip, length int64) (*pinball.Pinball, time.Duration, error) {
	prog, err := w.Program()
	if err != nil {
		return nil, 0, err
	}
	lc := pinplay.LogConfig{
		Seed:     cfg.Seed,
		Input:    w.Input(cfg.Threads, hugeSize),
		RandSeed: cfg.Seed,
	}
	start := time.Now()
	pb, err := pinplay.Log(prog, lc, pinplay.RegionSpec{SkipMain: skip, LengthMain: length})
	return pb, time.Since(start), err
}

// replayTimed replays a pinball and returns the wall time.
func replayTimed(prog *isa.Program, pb *pinball.Pinball) (time.Duration, error) {
	start := time.Now()
	_, err := pinplay.Replay(prog, pb, nil)
	return time.Since(start), err
}

// collectTrace replays with the tracing pintool and returns the trace and
// the tracing wall time. The trace is the caller's own: no slicing
// engine is built or fetched from the engine cache.
func collectTrace(prog *isa.Program, pb *pinball.Pinball) (*tracer.Trace, time.Duration, error) {
	start := time.Now()
	tr, err := pinplay.CollectTrace(prog, pb, vm.Limits{})
	return tr, time.Since(start), err
}

// exposeBug finds a failing execution of a bug workload: seed search
// first, Maple's active scheduler as fallback. It returns the session and
// the seed (or -1 when Maple exposed it).
func exposeBug(w *workloads.Workload, cfg *Config, size int64) (*core.Session, int64, error) {
	prog, err := w.Program()
	if err != nil {
		return nil, 0, err
	}
	input := w.Input(w.DefaultThreads, size)
	for seed := cfg.Seed; seed < cfg.Seed+cfg.MaxSeedSearch; seed++ {
		lc := pinplay.LogConfig{Seed: seed, MeanQuantum: 20, Input: input, MaxSteps: 100_000_000}
		s, err := core.RecordFailure(prog, lc, 0)
		if err == nil {
			return s, seed, nil
		}
	}
	res, err := maple.FindBug(nil, prog, pinplay.LogConfig{Seed: cfg.Seed, MeanQuantum: 20, Input: input, MaxSteps: 100_000_000}, maple.Options{})
	if err != nil {
		return nil, 0, err
	}
	if !res.Exposed {
		return nil, 0, fmt.Errorf("bench: bug %s not exposed", w.Name)
	}
	return core.Open(prog, res.Pinball), -1, nil
}

// bugSizes gives each Table 1/2/3 bug workload its input size, chosen so
// the whole-program regions (Table 3) are an order of magnitude larger
// than the buggy regions (Table 2), as in the paper.
var bugSizes = map[string]int64{
	"pbzip2":  400,
	"aget":    250,
	"mozilla": 250,
}

// WriteJSON writes a benchmark report (slicebench, ringbench, durbench)
// to path as indented JSON.
func WriteJSON(report any, path string) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
