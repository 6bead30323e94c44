package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkDef is the part of BENCHMARK.json the repeatability mode reads.
type benchmarkDef struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns runs each workload n times, each in a fresh process with its
// own seed, and prints each end-to-end metric's quartiles. A metric whose
// spread, (q3-q1)/median, exceeds its bound in BENCHMARK.json is flagged.
// It returns the process exit code: 0 when every run succeeded and no
// metric but setup_s was flagged.
func repeatRuns(c config, n, seconds int, benchmarkPath string) int {
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		return 1
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %s: %v\n", benchmarkPath, err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		return 1
	}
	names := []string{c.workload}
	if c.workload == "all" || c.workload == "" {
		names = workloadNames
	}
	code := 0
	for _, wl := range names {
		values := map[string][]float64{}
		for i := range n {
			seed := c.seed + uint64(i)
			cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0",
				"--workdir", c.workDir, "--spans-dir", c.spansDir, "--drserved", c.drserved)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			err := cmd.Run()
			res, perr := lastResult(out.Bytes())
			if err != nil || perr != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "pipebench: %s seed %d failed: run %v, result %v, correct %v\n", wl, seed, err, perr, res.Correct)
				code = 1
				continue
			}
			fmt.Printf("  %s seed %d:", wl, seed)
			for _, m := range def.EndToEnd {
				v := res.Metrics[m.Name].Value
				values[m.Name] = append(values[m.Name], v)
				fmt.Printf(" %s=%.4g", m.Name, v)
			}
			fmt.Println()
		}
		fmt.Printf("%s: %d runs, seeds %d..%d, %ds windows\n", wl, n, c.seed, c.seed+uint64(n)-1, seconds)
		fmt.Printf("  %-14s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range def.EndToEnd {
			v := values[m.Name]
			if len(v) == 0 {
				fmt.Printf("  %-14s no values\n", m.Name)
				code = 1
				continue
			}
			q1, q2, q3 := quartiles(v)
			spread := (q3 - q1) / q2
			flag := ""
			if spread > m.Bound {
				flag = "  FLAG"
				if m.Name != "setup_s" {
					code = 1
				}
			}
			fmt.Printf("  %-14s %12.4f %12.4f %12.4f %8.4f %6.3f%s\n", m.Name, q1, q2, q3, spread, m.Bound, flag)
		}
	}
	return code
}

// lastResult parses the result JSON on a run's last output line.
func lastResult(out []byte) (result, error) {
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("parsing the result line: %w", err)
	}
	return res, nil
}
