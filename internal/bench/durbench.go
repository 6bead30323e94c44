package bench

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/workloads"
)

// Each durability variant is timed in rounds that alternate it with the
// variants it is compared against, each round starting with a different
// variant. Before every timed run the garbage is collected and the files
// the variants write are synced, untimed, so no run pays for writeback
// another left behind. Times are the median round and an overhead is the
// median of the per-round ratios to the baseline, so drift between
// rounds cancels out of it. A one-shot save takes milliseconds, which a
// best-of-3 cannot time: it measures which run dodged an fsync stall or
// a GC cycle. DurBenchLogRounds covers the recording variants (~0.1 s
// each), DurBenchSaveRounds the one-shot saves.
const (
	DurBenchLogRounds  = 61
	DurBenchSaveRounds = 201
)

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

// timeAlternated runs every fn once per round, for rounds rounds, in an
// order that rotates by one each round, and returns every fn's run times
// by round. The files in settle are synced before every run.
func timeAlternated(rounds int, settle []string, fns ...func() error) ([][]time.Duration, error) {
	runs := make([][]time.Duration, len(fns))
	for r := 0; r < rounds; r++ {
		for k := range fns {
			i := (r + k) % len(fns)
			if err := syncFiles(settle); err != nil {
				return nil, err
			}
			runtime.GC()
			start := time.Now()
			if err := fns[i](); err != nil {
				return nil, err
			}
			runs[i] = append(runs[i], time.Since(start))
		}
	}
	return runs, nil
}

// median returns the median of ds.
func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// pairedPct is the median over rounds of (over - base) / base, in
// percent.
func pairedPct(over, base []time.Duration) float64 {
	r := make([]float64, len(base))
	for i := range base {
		r[i] = 100 * (float64(over[i]) - float64(base[i])) / float64(base[i])
	}
	slices.Sort(r)
	return r[len(r)/2]
}

// syncFiles fsyncs every existing file in paths.
func syncFiles(paths []string) error {
	for _, p := range paths {
		f, err := os.OpenFile(p, os.O_RDWR, 0)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
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
		journalPath := filepath.Join(dir, name+".journal")
		jlc := lc
		jlc.JournalPath = journalPath
		nlc := jlc
		nlc.JournalNoSync = true
		atomicPath := filepath.Join(dir, name+".pinball")
		written := []string{plainPath, journalPath, atomicPath}
		// The baseline, journaled recording synced (the crash-safe
		// default) and journaled recording unsynced.
		logs, err := timeAlternated(DurBenchLogRounds, written,
			func() error {
				p, err := pinplay.Log(prog, lc, spec)
				if err != nil {
					return err
				}
				data, err := p.EncodeBytes()
				if err != nil {
					return err
				}
				return os.WriteFile(plainPath, data, 0o644)
			},
			func() error {
				_, err := pinplay.Log(prog, jlc, spec)
				return err
			},
			func() error {
				_, err := pinplay.Log(prog, nlc, spec)
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
		saves, err := timeAlternated(DurBenchSaveRounds, written,
			func() error {
				data, err := pb.EncodeBytes()
				if err != nil {
					return err
				}
				return os.WriteFile(plainPath, data, 0o644)
			},
			func() error { return pb.Save(atomicPath) })
		if err != nil {
			return nil, err
		}

		row.LogSaveSec = seconds(median(logs[0]))
		row.LogJournalSec = seconds(median(logs[1]))
		row.LogJournalNoSyncSec = seconds(median(logs[2]))
		row.JournalOverheadPct = pairedPct(logs[1], logs[0])
		row.JournalNoSyncOverheadPct = pairedPct(logs[2], logs[0])
		row.SavePlainSec = seconds(median(saves[0]))
		row.SaveAtomicSec = seconds(median(saves[1]))
		row.AtomicOverheadPct = pairedPct(saves[1], saves[0])
		report.Rows = append(report.Rows, row)

		cfg.printf("%-14s | %10d | %8.3f / %8.3f (%+.1f%%) | %.4f / %.4f (%+.1f%%) | %v\n",
			name, row.RegionInstrs, row.LogSaveSec, row.LogJournalSec, row.JournalOverheadPct,
			row.SavePlainSec, row.SaveAtomicSec, row.AtomicOverheadPct, row.JournalIdentical)
	}
	return report, nil
}
