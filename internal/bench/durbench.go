package bench

import (
	"os"
	"path/filepath"
	"time"

	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/workloads"
)

// DurBenchIterations is how often each durability variant is timed; the
// minimum is reported, the standard wall-clock noise filter.
const DurBenchIterations = 3

// DurBenchRow is one workload's durability-overhead measurement: the
// cost of crash-safe persistence relative to its non-crash-safe
// baseline, for both write paths the logger has. The one-shot atomic
// Save (encode + temp + fsync + rename) is measured against a plain
// encode-and-write of the same pinball; journaled recording (windows
// sealed to disk during the run, so a crash mid-record leaves a
// salvageable file) is measured against record-then-plain-save, the
// cheapest way to get the same pinball onto disk without crash safety.
type DurBenchRow struct {
	Workload     string `json:"workload"`
	RegionInstrs int64  `json:"region_instrs"`
	PinballBytes int64  `json:"pinball_bytes"`
	JournalBytes int64  `json:"journal_bytes"`

	// Recording-to-durable-pinball wall time: plain log + plain save
	// (baseline), journaled log with fsync per window (crash-safe
	// default), journaled log without fsync.
	LogSaveSec          float64 `json:"log_save_sec"`
	LogJournalSec       float64 `json:"log_journal_sec"`
	LogJournalNoSyncSec float64 `json:"log_journal_nosync_sec"`
	// JournalOverheadPct is (journaled - baseline) / baseline, the
	// headline "what does crash-safe recording cost" number.
	JournalOverheadPct       float64 `json:"journal_overhead_pct"`
	JournalNoSyncOverheadPct float64 `json:"journal_nosync_overhead_pct"`

	// Save wall time, encoding included: plain encode+write vs the
	// atomic temp+fsync+rename path.
	SavePlainSec      float64 `json:"save_plain_sec"`
	SaveAtomicSec     float64 `json:"save_atomic_sec"`
	AtomicOverheadPct float64 `json:"atomic_overhead_pct"`

	// JournalIdentical reports whether the journal on disk decoded to the
	// exact recording (same content hash) — the correctness side of the
	// overhead trade.
	JournalIdentical bool `json:"journal_identical"`
}

// DurBenchReport is the JSON document written to BENCH_durability.json.
type DurBenchReport struct {
	RegionLen int64         `json:"region_len"`
	Threads   int64         `json:"threads"`
	Rows      []DurBenchRow `json:"rows"`
}

// timeBest runs fn DurBenchIterations times and returns the fastest run.
func timeBest(fn func() error) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < DurBenchIterations; i++ {
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

// DurBench measures what the crash-safety layers cost on real recording
// workloads: journaled logging vs plain logging, and atomic Save vs a
// plain write. The acceptance target is single-digit percent overhead
// for the journal's default (synced) configuration.
func DurBench(cfg Config) (*DurBenchReport, error) {
	cfg.printf("Durability overhead: journaled recording and atomic save, %dk-instruction regions\n",
		cfg.RegionLenLarge/1000)
	cfg.printf("%-14s | %-10s | %-30s | %-26s | %-5s\n",
		"Workload", "instrs", "log+save plain/journal (s)", "save plain/atomic (s)", "equal")

	report := &DurBenchReport{RegionLen: cfg.RegionLenLarge, Threads: cfg.Threads}
	dir, err := os.MkdirTemp("", "durbench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	for _, name := range []string{"blackscholes", "swaptions"} {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		prog, err := w.Program()
		if err != nil {
			return nil, err
		}
		lc := pinplay.LogConfig{
			Seed:            cfg.Seed,
			Input:           w.Input(cfg.Threads, hugeSize),
			RandSeed:        cfg.Seed,
			CheckpointEvery: 1024,
		}
		spec := pinplay.RegionSpec{LengthMain: cfg.RegionLenLarge}
		row := DurBenchRow{Workload: name}

		// Baseline: record with no journal, then persist with a plain
		// (encode + unsynced write) save — same durable artifact, no
		// crash safety at any point.
		pb, err := pinplay.Log(prog, lc, spec)
		if err != nil {
			return nil, err
		}
		row.RegionInstrs = pb.RegionInstrs
		plainPath := filepath.Join(dir, name+".plain")
		logSave, err := timeBest(func() error {
			p, err := pinplay.Log(prog, lc, spec)
			if err != nil {
				return err
			}
			data, err := p.EncodeBytes()
			if err != nil {
				return err
			}
			return os.WriteFile(plainPath, data, 0o644)
		})
		if err != nil {
			return nil, err
		}

		// Journaled recording, synced (the crash-safe default) and unsynced.
		journalPath := filepath.Join(dir, name+".journal")
		jlc := lc
		jlc.JournalPath = journalPath
		journalLog, err := timeBest(func() error {
			_, err := pinplay.Log(prog, jlc, spec)
			return err
		})
		if err != nil {
			return nil, err
		}
		jlc.JournalNoSync = true
		nosyncLog, err := timeBest(func() error {
			_, err := pinplay.Log(prog, jlc, spec)
			return err
		})
		if err != nil {
			return nil, err
		}
		if fi, err := os.Stat(journalPath); err == nil {
			row.JournalBytes = fi.Size()
		}
		if jpb, err := pinball.Load(journalPath); err == nil {
			row.JournalIdentical = jpb.ID() == pb.ID()
		}

		// One-shot persistence: plain encode+write vs atomic Save.
		if data, err := pb.EncodeBytes(); err == nil {
			row.PinballBytes = int64(len(data))
		}
		savePlain, err := timeBest(func() error {
			data, err := pb.EncodeBytes()
			if err != nil {
				return err
			}
			return os.WriteFile(plainPath, data, 0o644)
		})
		if err != nil {
			return nil, err
		}
		atomicPath := filepath.Join(dir, name+".pinball")
		saveAtomic, err := timeBest(func() error { return pb.Save(atomicPath) })
		if err != nil {
			return nil, err
		}

		row.LogSaveSec = seconds(logSave)
		row.LogJournalSec = seconds(journalLog)
		row.LogJournalNoSyncSec = seconds(nosyncLog)
		row.JournalOverheadPct = pct(journalLog, logSave)
		row.JournalNoSyncOverheadPct = pct(nosyncLog, logSave)
		row.SavePlainSec = seconds(savePlain)
		row.SaveAtomicSec = seconds(saveAtomic)
		row.AtomicOverheadPct = pct(saveAtomic, savePlain)
		report.Rows = append(report.Rows, row)

		cfg.printf("%-14s | %10d | %8.3f / %8.3f (%+.1f%%) | %.4f / %.4f (%+.1f%%) | %v\n",
			name, row.RegionInstrs, row.LogSaveSec, row.LogJournalSec, row.JournalOverheadPct,
			row.SavePlainSec, row.SaveAtomicSec, row.AtomicOverheadPct, row.JournalIdentical)
	}
	return report, nil
}
