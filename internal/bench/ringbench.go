package bench

import (
	"fmt"
	"time"

	"repro/internal/pinplay"
	"repro/internal/workloads"
)

// RingBenchIterations is how often each flight-recorder variant is
// timed; the minimum is reported.
const RingBenchIterations = 3

// timeBest runs fn RingBenchIterations times and returns the fastest run.
func timeBest(fn func() error) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < RingBenchIterations; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func pct(over, base time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (float64(over) - float64(base)) / float64(base)
}

// RingBenchRow is one (workload, budget) flight-recorder measurement:
// what bounding the journal costs at record time, how much smaller the
// capture gets, and what gap-bridging costs at replay time — all
// relative to the same workload's full (unbounded) recording.
type RingBenchRow struct {
	Workload     string `json:"workload"`
	RegionInstrs int64  `json:"region_instrs"`

	// Capture sizes: the full recording vs the ring recording under
	// RingBudget bytes of retained window content.
	FullBytes  int64 `json:"full_bytes"`
	RingBudget int64 `json:"ring_budget"`
	RingBytes  int64 `json:"ring_bytes"`
	// Eviction facts: windows dropped and instructions that survive
	// only as spans + divergence hashes.
	Evicted   int   `json:"evicted"`
	GapInstrs int64 `json:"gap_instrs"`

	// Record wall time: full recording vs ring recording.
	LogFullSec      float64 `json:"log_full_sec"`
	LogRingSec      float64 `json:"log_ring_sec"`
	RingOverheadPct float64 `json:"ring_overhead_pct"`

	// Replay wall time: streaming replay of the full pinball vs the
	// gap-bridging replay of the ring pinball (re-execution + windowed
	// hash verification for every evicted window).
	ReplayFullSec     float64 `json:"replay_full_sec"`
	ReplayBridgeSec   float64 `json:"replay_bridge_sec"`
	BridgeOverheadPct float64 `json:"bridge_overhead_pct"`

	// BridgeExact is the correctness side of the trade: every evicted
	// window's re-derived hash matched the retained one.
	BridgeExact bool `json:"bridge_exact"`
}

// RingBenchReport is the JSON document written to BENCH_ring.json.
type RingBenchReport struct {
	RegionLen int64          `json:"region_len"`
	Threads   int64          `json:"threads"`
	Rows      []RingBenchRow `json:"rows"`
}

// ringBudgetDivisors are the ring budgets measured, as fractions of the
// workload's full pinball size: a mild bound and an aggressive one.
var ringBudgetDivisors = []int64{4, 16}

// RingBench measures flight-recorder mode against the unbounded
// journal baseline: recording overhead (sealing + evicting windows),
// capture-size reduction, and the gap-bridging replay cost of earning
// the exact-bridge verdict back.
func RingBench(cfg Config) (*RingBenchReport, error) {
	cfg.printf("Flight-recorder overhead: ring recording and gap-bridging replay, %dk-instruction regions\n",
		cfg.RegionLenLarge/1000)
	cfg.printf("%-14s | %-10s | %-22s | %-26s | %-26s | %-5s\n",
		"Workload", "instrs", "bytes full/ring", "log full/ring (s)", "replay full/bridge (s)", "exact")

	report := &RingBenchReport{RegionLen: cfg.RegionLenLarge, Threads: cfg.Threads}
	for _, name := range []string{"blackscholes", "swaptions"} {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		prog, err := w.Program()
		if err != nil {
			return nil, err
		}
		// Cadences scale with the region so the ring has enough windows
		// to evict at any benchmark size.
		lc := pinplay.LogConfig{
			Seed:            cfg.Seed,
			Input:           w.Input(cfg.Threads, hugeSize),
			RandSeed:        cfg.Seed,
			CheckpointEvery: max(4096, cfg.RegionLenLarge/16),
			JournalEvery:    max(1024, cfg.RegionLenLarge/64),
		}
		spec := pinplay.RegionSpec{LengthMain: cfg.RegionLenLarge}

		// Full-recording baseline: one pinball for sizing and replay,
		// then timed re-recordings.
		fullPB, err := pinplay.Log(prog, lc, spec)
		if err != nil {
			return nil, err
		}
		fullData, err := fullPB.EncodeBytes()
		if err != nil {
			return nil, err
		}
		logFull, err := timeBest(func() error {
			_, err := pinplay.Log(prog, lc, spec)
			return err
		})
		if err != nil {
			return nil, err
		}
		replayFull, err := timeBest(func() error {
			_, _, err := pinplay.ReplayWith(prog, fullPB, pinplay.ReplayOptions{})
			return err
		})
		if err != nil {
			return nil, err
		}

		for _, div := range ringBudgetDivisors {
			row := RingBenchRow{
				Workload:      name,
				RegionInstrs:  fullPB.RegionInstrs,
				FullBytes:     int64(len(fullData)),
				RingBudget:    int64(len(fullData)) / div,
				LogFullSec:    seconds(logFull),
				ReplayFullSec: seconds(replayFull),
			}
			rlc := lc
			rlc.RingBytes = row.RingBudget
			ringPB, err := pinplay.Log(prog, rlc, spec)
			if err != nil {
				return nil, err
			}
			if !ringPB.Gapped() {
				return nil, fmt.Errorf("ringbench: %s budget %d evicted nothing (region %d instrs)",
					name, row.RingBudget, ringPB.RegionInstrs)
			}
			ringData, err := ringPB.EncodeBytes()
			if err != nil {
				return nil, err
			}
			row.RingBytes = int64(len(ringData))
			row.Evicted = len(ringPB.Evictions)
			row.GapInstrs = ringPB.GapInstrs()

			logRing, err := timeBest(func() error {
				_, err := pinplay.Log(prog, rlc, spec)
				return err
			})
			if err != nil {
				return nil, err
			}
			row.BridgeExact = true
			replayBridge, err := timeBest(func() error {
				_, rep, err := pinplay.ReplayWith(prog, ringPB, pinplay.ReplayOptions{})
				if err != nil {
					return err
				}
				if rep.Bridge == nil || rep.Bridge.Exact != row.Evicted {
					row.BridgeExact = false
				}
				return nil
			})
			if err != nil {
				return nil, err
			}

			row.LogRingSec = seconds(logRing)
			row.RingOverheadPct = pct(logRing, logFull)
			row.ReplayBridgeSec = seconds(replayBridge)
			row.BridgeOverheadPct = pct(replayBridge, replayFull)
			report.Rows = append(report.Rows, row)

			cfg.printf("%-14s | %10d | %8d / %8d | %8.3f / %8.3f (%+.1f%%) | %8.3f / %8.3f (%+.1f%%) | %v\n",
				name, row.RegionInstrs, row.FullBytes, row.RingBytes,
				row.LogFullSec, row.LogRingSec, row.RingOverheadPct,
				row.ReplayFullSec, row.ReplayBridgeSec, row.BridgeOverheadPct, row.BridgeExact)
		}
	}
	return report, nil
}
