package bench

import (
	"fmt"

	"repro/internal/slice"
	"repro/internal/workloads"
)

// AblationRow reports average slice sizes for one workload under the four
// precision configurations: both features, no CFG refinement, no
// save/restore pruning, neither.
type AblationRow struct {
	Workload string
	Full     float64 // refined + pruned (DrDebug default)
	NoRefine float64
	NoPrune  float64
	Neither  float64
	TraceLen int
	Slices   int
}

// Ablation quantifies each Section 5 precision feature in isolation over
// a mixed workload set (switch-heavy vips exercises §5.1, the call-dense
// SPEC OMP-likes exercise §5.2). CFG refinement grows slices (it
// recovers missing control dependences); save/restore pruning shrinks
// them (it removes spurious ones); the table shows both effects
// separately and combined.
func Ablation(cfg Config) ([]AblationRow, error) {
	cfg.printf("Ablation: average slice size under precision-feature combinations, %dk regions\n", cfg.RegionLen/1000)
	cfg.printf("%-14s | %-10s | %-10s | %-10s | %-10s\n",
		"Workload", "full", "no-refine", "no-prune", "neither")

	names := []string{"vips", "x264", "ammp", "mgrid", "wupwise"}
	configs := []slice.Options{
		slice.DefaultOptions(),
		{MaxSave: 10, ControlDeps: true, PruneSaveRestore: true, DisableRefinement: true},
		{MaxSave: 10, ControlDeps: true},
		{MaxSave: 10, ControlDeps: true, DisableRefinement: true},
	}

	var rows []AblationRow
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		pb, _, err := logRegion(w, &cfg, warmupSkip, cfg.RegionLen)
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
		crits := slice.LastReadsInRegion(tr, cfg.Slices)
		if len(crits) == 0 {
			return nil, fmt.Errorf("bench: ablation %s: no criteria", name)
		}
		row := AblationRow{Workload: name, TraceLen: len(tr.Global), Slices: len(crits)}
		avgs := make([]float64, len(configs))
		for ci, opts := range configs {
			s, err := slice.New(prog, tr, opts)
			if err != nil {
				return nil, err
			}
			var total int
			for _, c := range crits {
				sl, err := s.Slice(c)
				if err != nil {
					return nil, err
				}
				total += sl.Stats.Members
			}
			avgs[ci] = float64(total) / float64(len(crits))
		}
		row.Full, row.NoRefine, row.NoPrune, row.Neither = avgs[0], avgs[1], avgs[2], avgs[3]
		rows = append(rows, row)
		cfg.printf("%-14s | %10.0f | %10.0f | %10.0f | %10.0f\n",
			row.Workload, row.Full, row.NoRefine, row.NoPrune, row.Neither)
	}
	return rows, nil
}
