package debugger_test

import (
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/debugger"
	"repro/internal/pinplay"
)

// reverseDebugger returns a debugger in replay mode on a failing run of
// the demo program.
func reverseDebugger(t *testing.T) *debugger.Debugger {
	t.Helper()
	prog, err := cc.CompileSource("demo.c", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.RecordFailure(prog, pinplay.LogConfig{Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := debugger.New(prog, pinplay.LogConfig{Seed: 1})
	d.UseSession(sess)
	return d
}

func TestReverseStepi(t *testing.T) {
	d := reverseDebugger(t)
	// Run forward a while.
	exec(t, d, "break bump")
	out := exec(t, d, "continue")
	if !strings.Contains(out, "breakpoint 1 hit") {
		t.Fatalf("continue: %s", out)
	}
	exec(t, d, "continue") // second hit: total = 1
	before := exec(t, d, "print total")
	if !strings.Contains(before, "total = 1") {
		t.Fatalf("print: %s", before)
	}

	// Step back far enough to undo the first bump's store.
	out = exec(t, d, "reverse-stepi 40")
	if !strings.Contains(out, "back at position") {
		t.Fatalf("rsi: %s", out)
	}
	after := exec(t, d, "print total")
	if !strings.Contains(after, "total = 0") {
		t.Fatalf("after rsi, print: %s (state not rewound)", after)
	}

	// Forward again reproduces the same value.
	out = exec(t, d, "continue")
	if !strings.Contains(out, "breakpoint 1 hit") {
		t.Fatalf("re-continue: %s", out)
	}
	again := exec(t, d, "print total")
	if again != before {
		t.Errorf("forward after reverse diverged: %q vs %q", again, before)
	}
}

func TestReverseContinue(t *testing.T) {
	d := reverseDebugger(t)
	exec(t, d, "break bump")
	exec(t, d, "continue") // hit 1 (total=0)
	exec(t, d, "continue") // hit 2 (total=1)
	exec(t, d, "continue") // hit 3 (total=3)
	third := exec(t, d, "print total")

	out := exec(t, d, "reverse-continue")
	if !strings.Contains(out, "breakpoint 1 hit (reverse)") {
		t.Fatalf("rc: %s", out)
	}
	second := exec(t, d, "print total")
	if second == third {
		t.Errorf("reverse-continue did not move backwards: %q", second)
	}
	if !strings.Contains(second, "total = 1") {
		t.Errorf("at previous hit, %s (want total = 1)", second)
	}

	// Reverse past all hits lands at region entry.
	exec(t, d, "reverse-continue") // hit 1
	out = exec(t, d, "reverse-continue")
	if !strings.Contains(out, "no earlier breakpoint hit") {
		t.Fatalf("rc at start: %s", out)
	}
}

func TestReverseRequiresReplayMode(t *testing.T) {
	prog, err := cc.CompileSource("demo.c", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	d := debugger.New(prog, pinplay.LogConfig{Seed: 1})
	execErr(t, d, "reverse-stepi")
	execErr(t, d, "reverse-continue")
	exec(t, d, "run") // native mode
	execErr(t, d, "reverse-stepi")
}

func TestReverseThenSliceStillWorks(t *testing.T) {
	d := reverseDebugger(t)
	exec(t, d, "break bump")
	exec(t, d, "continue")
	exec(t, d, "reverse-stepi 5")
	out := exec(t, d, "slice")
	if !strings.Contains(out, "slice:") {
		t.Fatalf("slice after reverse: %s", out)
	}
}

// TestReplayDivergenceIsReported: replay mode validates the pinball's
// divergence checkpoints, so running through a tampered window fails
// with the typed divergence instead of silently continuing.
func TestReplayDivergenceIsReported(t *testing.T) {
	prog := compileDemo(t)
	sess, err := core.RecordFailure(prog, pinplay.LogConfig{Seed: 1, CheckpointEvery: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cps := sess.Pinball.Checkpoints
	if len(cps) < 2 {
		t.Fatalf("only %d checkpoints recorded", len(cps))
	}
	cps[len(cps)/2].Hash ^= 0xBAD

	d := debugger.New(prog, pinplay.LogConfig{Seed: 1})
	if err := d.UseSession(sess); err != nil {
		t.Fatal(err)
	}
	var de *pinplay.DivergenceError
	if err := d.Execute("continue", io.Discard); !errors.As(err, &de) {
		t.Fatalf("continue through the tampered window: %v, want a divergence", err)
	}
	var out strings.Builder
	if err := d.Run(strings.NewReader("replay\ncontinue\n"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "error: "+de.Error()) {
		t.Errorf("divergence not printed:\n%s", out.String())
	}
}
