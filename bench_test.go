package drdebug_test

// One benchmark per evaluation table and figure (see DESIGN.md's
// experiment index), plus microbenchmarks of the substrate and ablations
// of the slicer's design choices. `go test -bench=.` runs everything at
// reduced scale; `drbench` regenerates the full tables.

import (
	"io"
	"testing"

	drdebug "repro"
	"repro/internal/bench"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/tracer"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func quietCfg() bench.Config {
	cfg := bench.DefaultConfig(io.Discard)
	cfg.SweepLengths = []int64{5_000, 20_000}
	cfg.RegionLen = 20_000
	cfg.RegionLenLarge = 50_000
	cfg.Slices = 5
	return cfg
}

// BenchmarkTable1 exposes and records the three Table 1 bugs.
func BenchmarkTable1(b *testing.B) {
	cfg := quietCfg()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 measures the buggy-execution-region workflow (log,
// replay, slice, slice pinball) for the three bugs.
func BenchmarkTable2(b *testing.B) {
	cfg := quietCfg()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 is Table 2's workflow over whole-program regions.
func BenchmarkTable3(b *testing.B) {
	cfg := quietCfg()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// regionPinball logs one region of a workload for the figure benchmarks.
func regionPinball(b *testing.B, name string, length int64) (*drdebug.Program, *drdebug.Pinball) {
	b.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	pb, err := pinplay.Log(prog, pinplay.LogConfig{Seed: 1, Input: w.Input(4, 1<<40)},
		pinplay.RegionSpec{SkipMain: 1000, LengthMain: length})
	if err != nil {
		b.Fatal(err)
	}
	return prog, pb
}

// BenchmarkFig11Logging measures region logging per PARSEC-like workload
// (the Figure 11 measurement at one length).
func BenchmarkFig11Logging(b *testing.B) {
	for _, w := range workloads.Parsec() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			prog, err := w.Program()
			if err != nil {
				b.Fatal(err)
			}
			_ = prog
			for i := 0; i < b.N; i++ {
				if _, err := pinplay.Log(prog, pinplay.LogConfig{Seed: 1, Input: w.Input(4, 1<<40)},
					pinplay.RegionSpec{SkipMain: 1000, LengthMain: 20_000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12Replay measures deterministic replay of those regions.
func BenchmarkFig12Replay(b *testing.B) {
	for _, w := range workloads.Parsec() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			prog, pb := regionPinball(b, w.Name, 20_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pinplay.Replay(prog, pb, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13Pruning measures the pruned-vs-unpruned slicing pass of
// Figure 13 on one SPEC OMP-like workload.
func BenchmarkFig13Pruning(b *testing.B) {
	prog, pb := regionPinball(b, "mgrid", 20_000)
	sess := drdebug.Open(prog, pb)
	tr, err := sess.Trace()
	if err != nil {
		b.Fatal(err)
	}
	crits := slice.LastReadsInRegion(tr, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, opts := range []slice.Options{
			{MaxSave: 10, ControlDeps: true},
			slice.DefaultOptions(),
		} {
			s, err := slice.New(prog, tr, opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range crits {
				if _, err := s.Slice(c); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkFig14ExecSlice measures the execution-slice pipeline (slice ->
// exclusions -> relog -> slice replay) of Figure 14.
func BenchmarkFig14ExecSlice(b *testing.B) {
	prog, pb := regionPinball(b, "blackscholes", 20_000)
	sess := drdebug.Open(prog, pb)
	tr, err := pinplay.CollectTrace(prog, pb, vm.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	slicer, err := slice.New(prog, tr, slice.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	crit := slice.LastReadsInRegion(tr, 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sl, err := slicer.Slice(crit)
		if err != nil {
			b.Fatal(err)
		}
		spb, _, err := sess.ExecutionSlice(sl)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pinplay.Replay(prog, spb, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlicingOverhead measures trace collection plus one slice — the
// Section 7 "slicing overhead" numbers.
func BenchmarkSlicingOverhead(b *testing.B) {
	prog, pb := regionPinball(b, "dedup", 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := pinplay.CollectTrace(prog, pb, vm.Limits{})
		if err != nil {
			b.Fatal(err)
		}
		s, err := slice.New(prog, tr, slice.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		crit := slice.LastReadsInRegion(tr, 1)[0]
		if _, err := s.Slice(crit); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate microbenchmarks ---

// BenchmarkVMExecution measures raw interpreter speed (no tracing).
func BenchmarkVMExecution(b *testing.B) {
	w, _ := workloads.ByName("blackscholes")
	prog, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		m := vm.New(prog, vm.Config{
			Sched:    vm.NewRandomScheduler(1, 1000),
			Env:      vm.NewNativeEnv(w.Input(4, 1<<40), 1),
			MaxSteps: 200_000,
		})
		m.Run()
		instrs += m.Steps()
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkVMExecutionTraced measures interpreter speed with the tracing
// pintool attached (the slowdown the paper's tracing step pays).
func BenchmarkVMExecutionTraced(b *testing.B) {
	w, _ := workloads.ByName("blackscholes")
	prog, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		m := vm.New(prog, vm.Config{
			Sched:    vm.NewRandomScheduler(1, 1000),
			Env:      vm.NewNativeEnv(w.Input(4, 1<<40), 1),
			MaxSteps: 200_000,
		})
		col := tracer.NewCollector()
		m.SetTracer(col)
		m.Run()
		instrs += m.Steps()
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// --- ablation benchmarks (DESIGN.md design choices) ---

// BenchmarkAblationLPBlockSize compares backward-traversal cost across LP
// block sizes (1 block per entry ~ no skipping vs the default).
func BenchmarkAblationLPBlockSize(b *testing.B) {
	prog, pb := regionPinball(b, "streamcluster", 50_000)
	sess := drdebug.Open(prog, pb)
	tr, err := sess.Trace()
	if err != nil {
		b.Fatal(err)
	}
	crit := slice.LastReadsInRegion(tr, 1)[0]
	for _, bs := range []int{64, 1024, 16384} {
		bs := bs
		b.Run(map[int]string{64: "block64", 1024: "block1k", 16384: "block16k"}[bs], func(b *testing.B) {
			s, err := slice.New(prog, tr, slice.Options{MaxSave: 10, ControlDeps: true, LPBlock: bs})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Slice(crit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRefinement compares forward-pass cost with and without
// §5.1 CFG refinement.
func BenchmarkAblationRefinement(b *testing.B) {
	prog, pb := regionPinball(b, "vips", 20_000)
	sess := drdebug.Open(prog, pb)
	tr, err := sess.Trace()
	if err != nil {
		b.Fatal(err)
	}
	for _, refine := range []bool{true, false} {
		refine := refine
		name := "refined"
		if !refine {
			name = "approximate"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := slice.New(prog, tr, slice.Options{
					MaxSave: 10, ControlDeps: true, DisableRefinement: !refine,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReverseStepBack measures the cost of one backward step
// (restore nearest checkpoint + replay forward) at different checkpoint
// intervals — the space/time trade-off of the reverse-debugging
// extension.
func BenchmarkReverseStepBack(b *testing.B) {
	prog, pb := regionPinball(b, "canneal", 50_000)
	sess := drdebug.Open(prog, pb)
	for _, interval := range []int64{1_000, 10_000, 50_000} {
		interval := interval
		name := map[int64]string{1_000: "ckpt1k", 10_000: "ckpt10k", 50_000: "ckpt50k"}[interval]
		b.Run(name, func(b *testing.B) {
			rr, err := sess.NewReverseReplayer(interval)
			if err != nil {
				b.Fatal(err)
			}
			if err := rr.RunTo(rr.Total()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rr.StepBack(500); err != nil {
					b.Fatal(err)
				}
				if err := rr.RunTo(rr.Total()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRaceDetection measures the happens-before pass over a traced
// region.
func BenchmarkRaceDetection(b *testing.B) {
	prog, pb := regionPinball(b, "dedup", 50_000)
	sess := drdebug.Open(prog, pb)
	if _, err := sess.Trace(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.DetectRaces(); err != nil {
			b.Fatal(err)
		}
	}
}
