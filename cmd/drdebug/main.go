// Command drdebug is the interactive replay debugger: gdb-style commands
// plus DrDebug's region recording, dynamic slicing and execution-slice
// stepping, on mini-C/assembly programs or the built-in workloads.
//
// Usage:
//
//	drdebug -file bug.c [-seed 7] [-input 4,100]
//	drdebug -workload pbzip2 -input 3,40 -pinball bug.pinball [-salvage]
//
// Exit codes: 0 success, 1 usage/tool error, 2 the pinball file failed
// to load (or salvage), 3 a replay of the pinball failed, 4 the session
// ran but on a salvaged (partial) pinball, 9 the session ran but some of
// its flight-recorder content is estimated (a bridged window failed hash
// verification).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	drdebug "repro"
	"repro/cmd/internal/cli"
)

func main() {
	var (
		file     = flag.String("file", "", "mini-C (.c) or assembly (.s) source file")
		workload = flag.String("workload", "", "built-in workload: "+cli.WorkloadNames())
		seed     = flag.Int64("seed", 1, "scheduling seed for native runs")
		quantum  = flag.Int64("quantum", 1000, "mean preemption quantum (instructions)")
		input    = flag.String("input", "", "program input words, comma separated")
		pinballP = flag.String("pinball", "", "open an existing pinball and start in replay mode")
		script   = flag.String("x", "", "execute debugger commands from this file, then exit")
		salvage  = flag.Bool("salvage", false, "salvage a damaged pinball file instead of rejecting it")
	)
	flag.Parse()

	if err := run(*file, *workload, *seed, *quantum, *input, *pinballP, *script, *salvage); err != nil {
		os.Exit(cli.Fail("drdebug", err))
	}
}

func run(file, workload string, seed, quantum int64, input, pinballPath, script string, salvage bool) error {
	prog, _, err := cli.LoadProgram(file, workload)
	if err != nil {
		return err
	}
	in, err := cli.ParseInput(input)
	if err != nil {
		return err
	}
	d := drdebug.NewDebugger(prog, drdebug.LogConfig{
		Seed: seed, MeanQuantum: quantum, Input: in, RandSeed: seed,
	})
	salvaged := false
	var sess *drdebug.Session
	if pinballPath != "" {
		if salvage {
			var rep *drdebug.SalvageReport
			sess, rep, err = drdebug.LoadSessionSalvage(prog, pinballPath)
			if err != nil {
				return err
			}
			if rep != nil {
				salvaged = true
				fmt.Fprintf(os.Stderr, "drdebug: pinball was damaged; salvaged %d of %d instructions\n",
					rep.SalvagedInstrs, rep.OriginalInstrs)
			}
		} else if sess, err = drdebug.LoadSession(prog, pinballPath); err != nil {
			return err
		}
		if err := d.UseSession(sess); err != nil {
			return err
		}
		fmt.Printf("loaded pinball %s (%d instructions); starting in replay mode\n",
			pinballPath, sess.Pinball.RegionInstrs)
		if sess.Pinball.Gapped() {
			fmt.Printf("flight-recorder pinball: %d evicted windows (%d instructions) bridged by re-execution\n",
				len(sess.Pinball.Evictions), sess.Pinball.GapInstrs())
		}
	}
	if script != "" {
		// Batch mode: run the command file, like gdb -x.
		data, err := os.ReadFile(script)
		if err != nil {
			return err
		}
		for _, cmd := range strings.Split(string(data), "\n") {
			cmd = strings.TrimSpace(cmd)
			if cmd == "" || strings.HasPrefix(cmd, "#") {
				continue
			}
			if cmd == "quit" || cmd == "q" {
				return degradedOK(sess, salvaged)
			}
			fmt.Printf("(drdebug) %s\n", cmd)
			if err := d.Execute(cmd, os.Stdout); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		}
		return degradedOK(sess, salvaged)
	}
	fmt.Printf("DrDebug on %s — type help for commands\n", prog.Name)
	if err := d.Run(os.Stdin, os.Stdout); err != nil {
		return err
	}
	return degradedOK(sess, salvaged)
}

// degradedOK turns a successful run on a salvaged pinball into the
// degraded-mode exit (code 4), and a session that bridged flight-recorder
// gaps with hash-unverified content into the estimated exit (code 9), so
// scripts can tell partial results apart.
func degradedOK(sess *drdebug.Session, salvaged bool) error {
	if sess != nil {
		if gr := sess.GapReport(); gr.Degraded() {
			return fmt.Errorf("session carries estimated flight-recorder content: %w", cli.ErrEstimated)
		}
	}
	if salvaged {
		return fmt.Errorf("session ran on a salvaged pinball: %w", cli.ErrDegraded)
	}
	return nil
}
