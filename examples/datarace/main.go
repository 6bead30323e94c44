// Datarace: debugging the pbzip2 bug from the paper's Table 1 — expose
// the race with Maple's active scheduler, record the buggy execution,
// and navigate the dynamic slice backwards from the symptom to the root
// cause, exactly the paper's case-study workflow.
package main

import (
	"fmt"
	"log"

	drdebug "repro"
)

func main() {
	wl, err := drdebug.WorkloadByName("pbzip2")
	if err != nil {
		log.Fatal(err)
	}
	prog, err := wl.Program()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bug under study:", wl.Description)

	// Expose the race. Maple profiles a few runs, predicts untested
	// inter-thread orderings and forces them; every attempt is logged so
	// the failing one is immediately a replayable pinball.
	res, err := drdebug.FindBug(nil, prog, drdebug.LogConfig{
		Seed: 1, MeanQuantum: 20, Input: wl.Input(3, 40),
	}, drdebug.MapleOptions{ProfileRuns: 4})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Exposed {
		log.Fatal("maple did not expose the bug")
	}
	if res.DuringProfiling {
		fmt.Println("bug exposed during profiling runs")
	} else {
		fmt.Printf("bug exposed by forcing interleaving %v (%d attempts)\n", res.Root, res.Attempts)
	}
	fmt.Printf("captured failure: %v\n", res.Pinball.Failure)

	// Open a debug session on the pinball and slice the failure.
	sess := drdebug.Open(prog, res.Pinball)
	sl, err := sess.SliceAtFailure()
	if err != nil {
		log.Fatal(err)
	}
	tr, err := sess.Trace()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failure slice: %d of %d dynamic instructions\n", sl.Stats.Members, sl.Stats.TraceLen)

	// Navigate the dependence edges backwards from the symptom — the
	// KDbg "Activate" workflow in text form. Cross-thread edges are the
	// interesting ones for a race.
	fmt.Println("backward dependence navigation from the assert:")
	shown := 0
	deps := sl.Deps()
	for i := len(deps) - 1; i >= 0 && shown < 8; i-- {
		d := deps[i]
		if d.From.Tid == d.To.Tid {
			continue
		}
		from := tr.Entry(d.From)
		to := tr.Entry(d.To)
		fmt.Printf("  T%d %s  <-%s-  T%d %s\n",
			d.From.Tid, prog.SourceOf(from.PC), d.Kind, d.To.Tid, prog.SourceOf(to.PC))
		shown++
	}
	if shown == 0 {
		fmt.Println("  (no cross-thread dependences in slice)")
	}

	// The root cause: main's teardown writing fifoValid while the
	// compressors still check it.
	sym := prog.SymbolByName("fifoValid")
	for _, m := range sl.Members {
		e := tr.Entry(m)
		if e.MemIsWrite && e.EffAddr == sym.Addr && e.MemVal == 0 {
			fmt.Printf("root cause found in slice: thread %d destroys fifo->mut at %s\n",
				e.Tid, prog.SourceOf(e.PC))
		}
	}
}
