// Command drrecord is the PinPlay-style logger: it runs a program
// natively, fast-forwards to an execution region (skip/length in
// main-thread instructions) and captures the region into a pinball.
//
// Usage:
//
//	drrecord -file bug.c -seed 7 -o bug.pinball              # whole run
//	drrecord -workload blackscholes -input 4,100000 \
//	         -skip 1000 -length 100000 -o region.pinball     # region
//	drrecord -file bug.c -until-failure -maxseed 200 -o bug.pinball
package main

import (
	"flag"
	"fmt"
	"os"

	drdebug "repro"
	"repro/cmd/internal/cli"
	"repro/internal/pinplay"
)

func main() {
	var (
		file     = flag.String("file", "", "mini-C (.c) or assembly (.s) source file")
		workload = flag.String("workload", "", "built-in workload: "+cli.WorkloadNames())
		seed     = flag.Int64("seed", 1, "scheduling seed")
		quantum  = flag.Int64("quantum", 1000, "mean preemption quantum")
		input    = flag.String("input", "", "program input words, comma separated")
		skip     = flag.Int64("skip", 0, "main-thread instructions to skip before logging")
		length   = flag.Int64("length", 0, "main-thread instructions to log (0 = to program end)")
		fromLoc  = flag.String("from", "", "region start point (file:line, function, or pc)")
		toLoc    = flag.String("to", "", "region end point (file:line, function, or pc; empty = program end)")
		fromNth  = flag.Int64("from-nth", 1, "dynamic instance of the start point")
		toNth    = flag.Int64("to-nth", 1, "dynamic instance of the end point")
		untilF   = flag.Bool("until-failure", false, "search seeds until the program fails, then capture")
		maxSeed  = flag.Int64("maxseed", 100, "seed search bound for -until-failure")
		ckEvery  = flag.Int64("checkpoint-every", 0, "divergence-checkpoint cadence in per-thread instructions (0 = default, negative = disable)")
		journal  = flag.String("journal", "", "also journal the recording to this path while it runs (crash-safe: a crash leaves a salvageable file for drrepair)")
		jEvery   = flag.Int64("journal-every", 0, "journal flush cadence in region instructions (0 = default; smaller = finer crash granularity, more fsyncs)")
		ringB    = flag.Int64("ring-bytes", 0, "flight-recorder mode: keep the recording within this byte budget, evicting the oldest windows (0 = record everything)")
		sample   = flag.Int64("sample", 0, "flight-recorder sampling: keep 1 window in N, evict the rest (0/1 = keep all); implies flight-recorder mode")
		out      = flag.String("o", "out.pinball", "output pinball path")
	)
	flag.Parse()

	if err := run(*file, *workload, *seed, *quantum, *input, *skip, *length,
		*fromLoc, *toLoc, *fromNth, *toNth, *untilF, *maxSeed, *ckEvery, *journal, *jEvery, *ringB, *sample, *out); err != nil {
		os.Exit(cli.Fail("drrecord", err))
	}
}

func run(file, workload string, seed, quantum int64, input string, skip, length int64,
	fromLoc, toLoc string, fromNth, toNth int64, untilFailure bool, maxSeed, ckEvery int64, journal string, jEvery, ringBytes, ringSample int64, out string) error {
	prog, _, err := cli.LoadProgram(file, workload)
	if err != nil {
		return err
	}
	in, err := cli.ParseInput(input)
	if err != nil {
		return err
	}
	cfg := drdebug.LogConfig{Seed: seed, MeanQuantum: quantum, Input: in, RandSeed: seed,
		CheckpointEvery: ckEvery, JournalPath: journal, JournalEvery: jEvery,
		RingBytes: ringBytes, RingSample: ringSample}

	var sess *drdebug.Session
	if fromLoc != "" {
		// Point-based region selection: record between two code
		// locations (paper §2, "specifying its start and end points").
		startPC, err := prog.ResolveLocation(fromLoc)
		if err != nil {
			return err
		}
		endPC := int64(-1)
		if toLoc != "" {
			endPC, err = prog.ResolveLocation(toLoc)
			if err != nil {
				return err
			}
		}
		pb, err := pinplay.LogBetween(prog, cfg, pinplay.PointSpec{
			StartPC: startPC, StartInstance: fromNth, EndPC: endPC, EndInstance: toNth,
		})
		if err != nil {
			return err
		}
		sess = drdebug.Open(prog, pb)
	} else if untilFailure {
		for s := seed; s < seed+maxSeed; s++ {
			cfg.Seed, cfg.RandSeed = s, s
			sess, err = drdebug.RecordFailure(prog, cfg, skip)
			if err == nil {
				fmt.Printf("failure exposed with seed %d: %v\n", s, sess.Pinball.Failure)
				break
			}
		}
		if sess == nil {
			return fmt.Errorf("no failure within %d seeds (try drmaple)", maxSeed)
		}
	} else {
		sess, err = drdebug.RecordRegion(prog, cfg, drdebug.RegionSpec{SkipMain: skip, LengthMain: length})
		if err != nil {
			return err
		}
	}
	pb := sess.Pinball
	if err := pb.Save(out); err != nil {
		return err
	}
	st, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("pinball %s: %d instructions (%d main thread), end=%s, %d checkpoints, %d bytes\n",
		out, pb.RegionInstrs, pb.MainInstrs, pb.EndReason, len(pb.Checkpoints), st.Size())
	if pb.RingBytes > 0 || pb.SampleKeep > 1 || pb.Gapped() {
		fmt.Printf("flight recorder: %d windows evicted (%d instructions bridgeable on replay), budget %d bytes, sample 1-in-%d\n",
			len(pb.Evictions), pb.GapInstrs(), pb.RingBytes, max(pb.SampleKeep, 1))
	}
	return nil
}
