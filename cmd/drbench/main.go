// Command drbench regenerates the paper's evaluation tables and figures
// on the Go substrate (see DESIGN.md for the experiment index).
//
// Usage:
//
//	drbench -experiment all
//	drbench -experiment table2
//	drbench -experiment fig11 -scale 10     # 10x longer regions
//	drbench -experiment slicebench -workers 8 -json BENCH_slice.json
//	drbench -experiment durbench               # durability write overhead
//	drbench -experiment ringbench              # flight-recorder ring overhead
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all",
			"one of: table1, table2, table3, fig11, fig12, fig13, fig14, slicing, slicebench, ringbench, durbench, ablation, all")
		scale    = flag.Int64("scale", 1, "multiply all region lengths by this factor")
		threads  = flag.Int64("threads", 4, "worker thread count")
		slices   = flag.Int("slices", 10, "slicing criteria per region")
		seed     = flag.Int64("seed", 1, "scheduling seed")
		workers  = flag.Int("workers", 0, "parallel slicing workers for slicebench (0 = GOMAXPROCS)")
		jsonPath = flag.String("json", "",
			"where slicebench/ringbench/durbench write their JSON report (default BENCH_slice.json / BENCH_ring.json / BENCH_durability.json)")
	)
	flag.Parse()

	cfg := bench.DefaultConfig(os.Stdout)
	cfg.Threads = *threads
	cfg.Slices = *slices
	cfg.Seed = *seed
	for i := range cfg.SweepLengths {
		cfg.SweepLengths[i] *= *scale
	}
	cfg.RegionLen *= *scale
	cfg.RegionLenLarge *= *scale

	if err := run(*experiment, cfg, *workers, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "drbench:", err)
		os.Exit(1)
	}
}

func run(experiment string, cfg bench.Config, workers int, jsonPath string) error {
	type exp struct {
		name string
		fn   func(bench.Config) error
	}
	wrap := func(f func(bench.Config) (any, error)) func(bench.Config) error {
		return func(c bench.Config) error { _, err := f(c); return err }
	}
	// report runs a benchmark and writes its JSON report to -json, or to
	// def when -json is unset.
	report := func(def string, f func(bench.Config) (any, error)) func(bench.Config) error {
		return func(c bench.Config) error {
			r, err := f(c)
			if err != nil {
				return err
			}
			path := jsonPath
			if path == "" {
				path = def
			}
			if err := bench.WriteJSON(r, path); err != nil {
				return err
			}
			fmt.Printf("JSON report written to %s\n", path)
			return nil
		}
	}
	experiments := []exp{
		{"table1", wrap(func(c bench.Config) (any, error) { return bench.Table1(c) })},
		{"table2", wrap(func(c bench.Config) (any, error) { return bench.Table2(c) })},
		{"table3", wrap(func(c bench.Config) (any, error) { return bench.Table3(c) })},
		{"fig11", wrap(func(c bench.Config) (any, error) { return bench.Figure11(c) })},
		{"fig12", wrap(func(c bench.Config) (any, error) { return bench.Figure12(c) })},
		{"fig13", wrap(func(c bench.Config) (any, error) { return bench.Figure13(c) })},
		{"fig14", wrap(func(c bench.Config) (any, error) { return bench.Figure14(c) })},
		{"slicing", wrap(func(c bench.Config) (any, error) { return bench.SlicingOverhead(c) })},
		{"slicebench", report("BENCH_slice.json", func(c bench.Config) (any, error) { return bench.SliceBench(c, workers) })},
		{"ringbench", report("BENCH_ring.json", func(c bench.Config) (any, error) { return bench.RingBench(c) })},
		{"durbench", report("BENCH_durability.json", func(c bench.Config) (any, error) { return bench.DurBench(c) })},
		{"ablation", wrap(func(c bench.Config) (any, error) { return bench.Ablation(c) })},
	}
	ran := false
	for _, e := range experiments {
		if experiment != "all" && experiment != e.name {
			continue
		}
		ran = true
		start := time.Now()
		if err := e.fn(cfg); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", e.name, time.Since(start).Seconds())
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}
