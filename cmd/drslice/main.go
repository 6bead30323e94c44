// Command drslice is the batch slicer: it replays a pinball with the
// tracing pintool, computes a backward dynamic slice (of the failure
// point, a variable's last read, or a file:line instance), prints it, and
// can emit the slice file and the relogged slice pinball.
//
// Usage:
//
//	drslice -file bug.c -pinball bug.pinball                   # failure slice
//	drslice -file bug.c -pinball bug.pinball -var counter
//	drslice -file bug.c -pinball bug.pinball -tid 1 -line 12
//	drslice ... -o bug.slice -exec -opinball bug-slice.pinball
//	drslice ... -no-prune -no-refine                           # precision ablations
//	drslice ... -workers 8 -cache-stats                        # engine build workers
//
// Exit codes: 0 success, 1 usage/tool error, 2 the pinball file failed
// to load (or salvage), 3 the pinball loaded but a replay of it failed
// (divergence checkpoint, schedule mismatch, or an execution limit hit),
// 4 the slice was computed but from a salvaged pinball (-salvage), 9 the
// slice crosses flight-recorder gaps whose content is estimated (every
// non-exact dependence edge is tagged with its provenance).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	drdebug "repro"
	"repro/cmd/internal/cli"
)

func main() {
	var (
		file     = flag.String("file", "", "mini-C (.c) or assembly (.s) source file")
		workload = flag.String("workload", "", "built-in workload: "+cli.WorkloadNames())
		pinballP = flag.String("pinball", "", "region pinball to slice (required)")
		varName  = flag.String("var", "", "slice the last read of this global variable")
		tid      = flag.Int("tid", -1, "with -line: thread id of the criterion")
		line     = flag.Int("line", 0, "with -tid: source line of the criterion")
		nth      = flag.Int("nth", 1, "with -line: dynamic instance of the line")
		noPrune  = flag.Bool("no-prune", false, "disable §5.2 save/restore pruning")
		noRefine = flag.Bool("no-refine", false, "disable §5.1 dynamic CFG refinement")
		maxSave  = flag.Int("maxsave", 10, "save/restore detector scan depth")
		out      = flag.String("o", "", "write the slice file here")
		htmlOut  = flag.String("html", "", "write an HTML slice report here")
		execSl   = flag.Bool("exec", false, "relog into a slice pinball")
		outPB    = flag.String("opinball", "slice.pinball", "slice pinball path (with -exec)")
		budget   = flag.Int64("budget", 0, "instruction budget per replay (0 = unbounded)")
		deadline = flag.Duration("deadline", 0, "wall-clock limit per replay (0 = unbounded)")
		workers  = flag.Int("workers", 0, "workers building the slicing engine (0 = all CPUs)")
		cacheSt  = flag.Bool("cache-stats", false, "print dependence-graph cache statistics")
		salvage  = flag.Bool("salvage", false, "salvage a damaged pinball file instead of rejecting it")
	)
	flag.Parse()

	if err := run(*file, *workload, *pinballP, *varName, *tid, *line, *nth,
		*noPrune, *noRefine, *maxSave, *out, *htmlOut, *execSl, *outPB,
		*workers, *cacheSt, *salvage, cli.Limits(*budget, *deadline)); err != nil {
		os.Exit(cli.Fail("drslice", err))
	}
}

func run(file, workload, pinballPath, varName string, tid, line, nth int,
	noPrune, noRefine bool, maxSave int, out, htmlOut string, execSl bool, outPB string,
	workers int, cacheSt, salvage bool, limits drdebug.Limits) error {
	prog, _, err := cli.LoadProgram(file, workload)
	if err != nil {
		return err
	}
	if pinballPath == "" {
		return fmt.Errorf("need -pinball")
	}
	pb, salvaged, err := cli.LoadPinballMaybeSalvage("drslice", pinballPath, salvage)
	if err != nil {
		return err
	}
	if pb.ProgramName != prog.Name {
		return fmt.Errorf("pinball was recorded from %q, not %q", pb.ProgramName, prog.Name)
	}
	sess := drdebug.Open(prog, pb)
	sess.SetLimits(limits)
	opts := drdebug.DefaultSliceOptions()
	opts.MaxSave = maxSave
	opts.PruneSaveRestore = !noPrune
	opts.DisableRefinement = noRefine
	sess.SetSliceOptions(opts)
	sess.SetParallelWorkers(workers)

	start := time.Now()
	var sl *drdebug.Slice
	switch {
	case varName != "":
		sl, err = sess.SliceForVariable(varName)
	case line > 0 && tid >= 0:
		sl, err = sess.SliceAtLine(tid, int32(line), nth)
	default:
		sl, err = sess.SliceAtFailure()
	}
	if err != nil {
		return err
	}
	fmt.Printf("slice computed in %.3fs: %d of %d dynamic instructions\n",
		time.Since(start).Seconds(), sl.Stats.Members, sl.Stats.TraceLen)
	if br := sess.GapReport(); br != nil {
		fmt.Printf("flight recorder: bridged %d evicted windows (%d instructions re-derived): %d exact, %d estimated\n",
			br.Windows, br.GapInstrs, br.Exact, len(br.Estimated))
	}
	if sl.Prov != nil {
		fmt.Printf("provenance: %s\n", sl.Prov)
	}
	fmt.Printf("precision: %d CFG refinements, %d save/restore pairs, %d bypasses\n",
		sl.Stats.CFGRefinements, sl.Stats.VerifiedPairs, sl.Stats.PrunedBypasses)
	eng, err := sess.ParallelSlicer()
	if err != nil {
		return err
	}
	es := eng.Stats()
	fmt.Printf("engine: %d workers, %d shards, %d indexed defs\n",
		es.Workers, es.Shards, es.IndexDefs)
	if cacheSt {
		gs := drdebug.CFGCacheStats()
		engs := drdebug.SliceEngineCacheStats()
		fmt.Printf("cfg cache: %d graphs, %d hits, %d misses\n", gs.Entries, gs.Hits, gs.Misses)
		fmt.Printf("engine cache: %d engines, %d hits, %d misses\n", engs.Entries, engs.Hits, engs.Misses)
	}

	if err := writeSliceText(sess, sl, os.Stdout); err != nil {
		return err
	}
	if out != "" {
		if err := sess.SaveSlice(sl, out); err != nil {
			return err
		}
		fmt.Printf("slice file written to %s\n", out)
	}
	if htmlOut != "" {
		if err := writeSliceHTML(sess, sl, file, htmlOut); err != nil {
			return err
		}
		fmt.Printf("HTML slice report written to %s\n", htmlOut)
	}
	if execSl {
		spb, ex, err := sess.ExecutionSlice(sl)
		if err != nil {
			return err
		}
		if err := spb.Save(outPB); err != nil {
			return err
		}
		fmt.Printf("slice pinball %s: %d instructions (%.1f%% of region), %d exclusion regions\n",
			outPB, spb.RegionInstrs, 100*float64(spb.RegionInstrs)/float64(sess.Pinball.RegionInstrs), len(ex))
	}
	if sl.Prov != nil && sl.Prov.Degraded() {
		return fmt.Errorf("slice crosses hash-unverified flight-recorder gaps: %w", cli.ErrEstimated)
	}
	if salvaged {
		return fmt.Errorf("slice computed from a salvaged pinball: %w", cli.ErrDegraded)
	}
	return nil
}

// writeSliceHTML renders the KDbg-style HTML report; when the program
// came from a source file, the listing is highlighted in place.
func writeSliceHTML(sess *drdebug.Session, sl *drdebug.Slice, srcPath, htmlOut string) error {
	sources := map[string]string{}
	if srcPath != "" {
		if data, err := os.ReadFile(srcPath); err == nil {
			sources[srcPath] = string(data)
		}
	}
	w, err := os.Create(htmlOut)
	if err != nil {
		return err
	}
	defer w.Close()
	if err := renderSliceHTML(sess, sl, sources, w); err != nil {
		return err
	}
	return w.Close()
}

// renderSliceHTML writes the HTML report for a computed slice.
func renderSliceHTML(sess *drdebug.Session, sl *drdebug.Slice, sources map[string]string, w io.Writer) error {
	f, err := sess.SliceFile(sl)
	if err != nil {
		return err
	}
	return f.WriteHTML(w, sources)
}

// writeSliceText renders the slice in the human-readable slice-file form.
func writeSliceText(sess *drdebug.Session, sl *drdebug.Slice, w io.Writer) error {
	f, err := sess.SliceFile(sl)
	if err != nil {
		return err
	}
	return f.WriteText(w)
}
