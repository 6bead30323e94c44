// Command drmatrix runs declarative scenario matrices: JSON files that
// describe workloads, axis lists (threads, sizes, seeds, quanta,
// schedulers, faults), and expected-outcome assertions. drmatrix
// expands the cross product, executes the cells in parallel under
// panic isolation and per-cell timeouts, and emits a deterministic
// pass/fail grid — a text table on stdout and, with -json, an artifact
// whose bytes are identical across identical invocations.
//
// Usage:
//
//	drmatrix run scenarios/table1.json
//	drmatrix run -workers 4 -json grid.json scenarios/smoke.json
//	drmatrix expand scenarios/table1.json   # preview cells, no execution
//	drmatrix faults                         # list fault axis values
//
// Exit status: 0 when every cell and aggregate check passes, 1 when
// any assertion fails, 2 on usage or spec errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/matrix"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:])
	case "expand":
		return cmdExpand(args[1:])
	case "faults":
		for _, name := range matrix.FaultNames() {
			fmt.Println(name)
		}
		return 0
	case "-h", "--help", "help":
		usage()
		return 0
	}
	fmt.Fprintf(os.Stderr, "drmatrix: unknown command %q\n", args[0])
	usage()
	return 2
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  drmatrix run [-workers N] [-timings] [-json FILE] [-q] SPEC.json
  drmatrix expand SPEC.json
  drmatrix faults`)
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workers := fs.Int("workers", 0, "parallel cell workers (0 = NumCPU, capped at 8)")
	timings := fs.Bool("timings", false, "include per-cell wall-clock in the artifact (breaks byte-identity)")
	jsonOut := fs.String("json", "", "write the grid artifact JSON to this path")
	quiet := fs.Bool("q", false, "suppress per-cell progress lines")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
		return 2
	}
	path := fs.Arg(0)
	spec, err := matrix.LoadSpec(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "drmatrix:", err)
		return 2
	}
	opts := matrix.RunOptions{
		Workers: *workers,
		Timings: *timings,
		BaseDir: filepath.Dir(path),
	}
	if !*quiet {
		opts.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	grid, err := matrix.Run(spec, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "drmatrix:", err)
		return 2
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "drmatrix:", err)
			return 2
		}
		if err := grid.EncodeJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "drmatrix:", err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "drmatrix:", err)
			return 2
		}
	}
	if err := grid.RenderText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "drmatrix:", err)
		return 2
	}
	if !grid.Pass {
		return 1
	}
	return 0
}

func cmdExpand(args []string) int {
	if len(args) != 1 {
		usage()
		return 2
	}
	spec, err := matrix.LoadSpec(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "drmatrix:", err)
		return 2
	}
	cells := spec.Cells()
	for _, c := range cells {
		fmt.Printf("%-16s %s seed=%d\n", c.Scenario.Name, c.Axes(), c.Seed)
	}
	fmt.Printf("suite %s: %d scenarios, %d cells (spec %s)\n",
		spec.Suite, len(spec.Scenarios), len(cells), spec.Digest())
	return 0
}
