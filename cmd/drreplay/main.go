// Command drreplay is the PinPlay-style replayer: it deterministically
// re-executes a pinball and reports the end state, validating the
// recorded divergence checkpoints along the way.
//
// Usage:
//
//	drreplay -file bug.c -pinball bug.pinball [-check] [-budget N]
//	         [-deadline 2s] [-degraded] [-no-verify] [-salvage]
//	         [-retries N] [-watchdog 30s] [-report out.json]
//
// The replay runs under the self-healing supervisor: panics are
// isolated, -retries enables retry-with-backoff, -watchdog bounds a hung
// replay, and a replay that keeps diverging is recovered at its last
// good divergence checkpoint. -salvage additionally repairs a damaged
// pinball file before replaying it.
//
// Exit codes: 0 success, 1 usage/tool error, 2 the pinball file failed
// to load (or salvage), 3 the pinball loaded but its replay failed (the
// first divergent window is printed to stderr; for a flight-recorder
// pinball this includes a bridged window failing hash verification), 4
// the replay completed only in degraded mode (salvaged pinball or
// checkpoint-anchored recovery), 5 the replay panicked, 6 the watchdog
// fired, 9 the replay completed but carried estimated flight-recorder
// content (-degraded let a hash-unverified bridge through).
//
// Flight-recorder pinballs (recorded with drrecord -ring-bytes/-sample)
// replay through gap bridging: evicted windows are re-derived by
// re-execution and verified against their retained hashes. The bridge
// summary is printed after the replay.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	drdebug "repro"
	"repro/cmd/internal/cli"
)

func main() {
	var (
		file     = flag.String("file", "", "mini-C (.c) or assembly (.s) source file")
		workload = flag.String("workload", "", "built-in workload: "+cli.WorkloadNames())
		pinballP = flag.String("pinball", "", "pinball to replay (required)")
		check    = flag.Bool("check", false, "replay twice and verify identical end states")
		stats    = flag.Bool("stats", false, "print pinball composition before replaying")
		budget   = flag.Int64("budget", 0, "instruction budget for the replay (0 = unbounded)")
		deadline = flag.Duration("deadline", 0, "wall-clock limit for the replay (0 = unbounded)")
		degraded = flag.Bool("degraded", false, "log checkpoint divergences and continue instead of aborting")
		noVerify = flag.Bool("no-verify", false, "skip divergence-checkpoint validation")
		salvage  = flag.Bool("salvage", false, "salvage a damaged pinball file instead of rejecting it")
		retries  = flag.Int("retries", 1, "attempts per supervised phase (1 = no retry)")
		watchdog = flag.Duration("watchdog", 0, "abort a hung replay after this long (0 = no watchdog)")
		report   = flag.String("report", "", "write the supervisor's JSON report to this file")
	)
	flag.Parse()

	opts := drdebug.ReplayOptions{
		Degraded: *degraded,
		NoVerify: *noVerify,
		// In degraded mode a bridged window that fails hash verification
		// becomes estimated content (exit 9) instead of aborting the replay.
		BridgeEstimates: *degraded,
		Limits:          cli.Limits(*budget, *deadline),
	}
	sup := drdebug.SupervisorOptions{MaxAttempts: *retries, Watchdog: *watchdog}
	if err := run(*file, *workload, *pinballP, *check, *stats, *salvage, *report, sup, opts); err != nil {
		os.Exit(cli.Fail("drreplay", err))
	}
}

func run(file, workload, pinballPath string, check, stats bool, salvage bool, reportPath string,
	sup drdebug.SupervisorOptions, opts drdebug.ReplayOptions) error {
	prog, _, err := cli.LoadProgram(file, workload)
	if err != nil {
		return err
	}
	if pinballPath == "" {
		return fmt.Errorf("need -pinball")
	}
	pb, salvaged, err := cli.LoadPinballMaybeSalvage("drreplay", pinballPath, salvage)
	if err != nil {
		return err
	}
	if stats {
		printStats(pb, pinballPath)
	}
	opts.OnDivergence = func(d drdebug.Divergence) {
		fmt.Fprintf(os.Stderr, "drreplay: divergence: %s\n", d)
	}
	sup.OnRetry = func(attempt int, err error) {
		fmt.Fprintf(os.Stderr, "drreplay: attempt %d failed (%v), retrying\n", attempt, err)
	}
	start := time.Now()
	res, err := drdebug.SupervisedReplay(prog, pb, sup, opts)
	if res != nil && res.Report != nil {
		if werr := writeReport(reportPath, res.Report); werr != nil {
			fmt.Fprintf(os.Stderr, "drreplay: %v\n", werr)
		}
	}
	if err != nil {
		return err
	}
	m, rep := res.Machine, res.Replay
	executed := pb.RegionInstrs
	if res.Degraded {
		executed = res.RecoveredStep
		fmt.Fprintf(os.Stderr, "drreplay: replay diverged; recovered at last good checkpoint (step %d of %d)\n",
			res.RecoveredStep, pb.RegionInstrs)
	}
	stop := m.Stopped().String()
	if stop == "running" {
		stop = "end of region"
	}
	fmt.Printf("replayed %d instructions in %.3fs (stop: %s)\n",
		executed, time.Since(start).Seconds(), stop)
	switch {
	case rep.Checked > 0 && len(rep.Divergences) == 0:
		fmt.Printf("verified %d divergence checkpoints\n", rep.Checked)
	case len(rep.Divergences) > 0:
		fmt.Printf("checked %d divergence checkpoints: %d divergent windows (degraded mode)\n",
			rep.Checked, len(rep.Divergences))
	}
	if br := rep.Bridge; br != nil {
		fmt.Printf("bridged %d evicted windows (%d instructions re-derived): %d exact, %d estimated\n",
			br.Windows, br.GapInstrs, br.Exact, len(br.Estimated))
		for _, ev := range br.Estimated {
			fmt.Fprintf(os.Stderr, "drreplay: window %d (steps %d..%d) failed hash verification; content is estimated\n",
				ev.ID, ev.FromStep, ev.ToStep)
		}
	}
	if f := m.Failure(); f != nil {
		fmt.Printf("reproduced failure: %v\n", f)
	}
	if out := m.Output(); len(out) > 0 {
		fmt.Printf("program output: %v\n", out)
	}
	if check && !res.Degraded && !rep.Bridge.Degraded() { // must come after the replay above so both share the load cost
		m2, err := drdebug.Replay(prog, pb)
		if err != nil {
			return err
		}
		if !m.Snapshot().Mem.Equal(m2.Snapshot().Mem) {
			return fmt.Errorf("replays reached different states — determinism violated")
		}
		fmt.Println("determinism check passed: two replays reached identical memory")
	}
	if rep.Bridge.Degraded() {
		return fmt.Errorf("replay finished, but %w", cli.ErrEstimated)
	}
	if salvaged || res.Degraded {
		return fmt.Errorf("replay finished, but %w", cli.ErrDegraded)
	}
	return nil
}

// writeReport writes the supervisor report as JSON ("-" = stderr).
func writeReport(path string, rep *drdebug.SupervisorReport) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stderr.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printStats summarises what the pinball loaded from path contains.
func printStats(pb *drdebug.Pinball, path string) {
	fmt.Printf("pinball stats:\n")
	fmt.Printf("  program:        %s (%s)\n", pb.ProgramName, pb.Kind)
	fmt.Printf("  region:         %d instructions (%d main thread, skip %d), end=%s\n",
		pb.RegionInstrs, pb.MainInstrs, pb.SkipMain, pb.EndReason)
	fmt.Printf("  threads:        %d at region entry\n", len(pb.State.Threads))
	fmt.Printf("  memory pages:   %d captured\n", len(pb.State.Mem))
	fmt.Printf("  schedule:       %d quanta (avg %.1f instructions)\n",
		len(pb.Quanta), avgQuantum(pb))
	fmt.Printf("  syscalls:       %d logged\n", len(pb.Syscalls))
	fmt.Printf("  order edges:    %d shared-memory constraints\n", len(pb.OrderEdges))
	if pb.Gapped() || pb.RingBytes > 0 {
		fmt.Printf("  flight record:  %d evicted windows (%d instructions to bridge), budget %d bytes\n",
			len(pb.Evictions), pb.GapInstrs(), pb.RingBytes)
	}
	if pb.CheckpointEvery > 0 {
		fmt.Printf("  checkpoints:    %d (every %d per-thread instructions)\n",
			len(pb.Checkpoints), pb.CheckpointEvery)
	}
	if pb.Kind == "slice" {
		fmt.Printf("  exclusions:     %d regions, %d injections\n", len(pb.Exclusions), len(pb.Injections))
	}
	if pb.Failure != nil {
		fmt.Printf("  failure:        %v\n", pb.Failure)
	}
	if st, err := os.Stat(path); err == nil {
		fmt.Printf("  file:           %d bytes\n", st.Size())
	}
}

func avgQuantum(pb *drdebug.Pinball) float64 {
	if len(pb.Quanta) == 0 {
		return 0
	}
	return float64(pb.TotalQuantumInstrs()) / float64(len(pb.Quanta))
}
