package core_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pinplay"
	"repro/internal/vm"
)

// reverseSession records a deterministic single-bug run with a known
// monotonically updated global, so positions map to observable state.
func reverseSession(t *testing.T) *core.Session {
	t.Helper()
	prog, err := cc.CompileSource("count.c", `
int tick;
int other;
int worker(int n) {
	int i;
	for (i = 0; i < 300; i++) { other = other + 1; }
	return 0;
}
int main() {
	int i;
	int t = spawn(worker, 0);
	for (i = 0; i < 500; i++) { tick = tick + 1; }
	join(t);
	assert(tick == 0);
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.RecordFailure(prog, pinplay.LogConfig{Seed: 3, MeanQuantum: 40}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// reverseReplayer opens a reverse replayer on s.
func reverseReplayer(t *testing.T, s *core.Session, interval int64) *core.ReverseReplayer {
	t.Helper()
	rr, err := s.NewReverseReplayer(interval)
	if err != nil {
		t.Fatal(err)
	}
	return rr
}

// stepForward steps rr once, failing the test on a replay error.
func stepForward(t *testing.T, rr *core.ReverseReplayer) bool {
	t.Helper()
	ok, err := rr.StepForward()
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// tickAt replays forward to a position and reads the counter.
func tickAt(t *testing.T, s *core.Session, rr *core.ReverseReplayer, pos int64) int64 {
	t.Helper()
	if err := rr.RunTo(pos); err != nil {
		t.Fatal(err)
	}
	sym := s.Prog.SymbolByName("tick")
	return rr.Machine().Mem.Read(sym.Addr)
}

func TestReverseRunToIsConsistent(t *testing.T) {
	s := reverseSession(t)
	rr := reverseReplayer(t, s, 500)

	// Forward to several positions, remembering state; then revisit them
	// in arbitrary (including backward) order and require identical
	// state.
	positions := []int64{100, 1500, 3000, 700, 2500, 0, 3000, 42}
	want := map[int64]int64{}
	for _, p := range positions {
		want[p] = tickAt(t, s, rr, p)
	}
	// Shuffle-ish revisit order.
	for _, p := range []int64{3000, 0, 2500, 100, 42, 1500, 700} {
		if got := tickAt(t, s, rr, p); got != want[p] {
			t.Errorf("position %d: tick = %d on revisit, was %d", p, got, want[p])
		}
	}
	if rr.Checkpoints() < 2 {
		t.Errorf("expected multiple checkpoints, got %d", rr.Checkpoints())
	}
}

func TestReverseStepBack(t *testing.T) {
	s := reverseSession(t)
	rr := reverseReplayer(t, s, 300)
	if err := rr.RunTo(2000); err != nil {
		t.Fatal(err)
	}
	before := rr.Executed()
	if err := rr.StepBack(1); err != nil {
		t.Fatal(err)
	}
	if rr.Executed() != before-1 {
		t.Fatalf("StepBack(1): at %d, want %d", rr.Executed(), before-1)
	}
	if err := rr.StepBack(499); err != nil {
		t.Fatal(err)
	}
	if rr.Executed() != before-500 {
		t.Fatalf("StepBack(499): at %d, want %d", rr.Executed(), before-500)
	}
	// Stepping back past the start clamps to region entry.
	if err := rr.StepBack(1 << 40); err != nil {
		t.Fatal(err)
	}
	if rr.Executed() != 0 {
		t.Fatalf("StepBack past start: at %d", rr.Executed())
	}
}

func TestReverseReachesFailureAtEnd(t *testing.T) {
	s := reverseSession(t)
	rr := reverseReplayer(t, s, 0)
	for stepForward(t, rr) {
	}
	m := rr.Machine()
	if m.Failure() == nil {
		t.Fatal("forward replay through ReverseReplayer missed the failure")
	}
	// Now go back and forward again; the failure must reproduce.
	if err := rr.StepBack(50); err != nil {
		t.Fatal(err)
	}
	if rr.Machine().Failure() != nil {
		t.Fatal("failure still present after stepping back")
	}
	for stepForward(t, rr) {
	}
	if rr.Machine().Failure() == nil {
		t.Fatal("failure not reproduced after reverse+forward")
	}
}

func TestReverseSyscallConsistency(t *testing.T) {
	// A program whose state depends on logged nondeterministic syscalls:
	// replays from checkpoints must feed the same values.
	prog, err := cc.CompileSource("rng.c", `
int acc;
int main() {
	int i;
	for (i = 0; i < 200; i++) {
		acc = acc + rand() % 10 + read();
	}
	assert(acc == 0 - 1);
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	input := make([]int64, 200)
	for i := range input {
		input[i] = int64(i % 7)
	}
	s, err := core.RecordFailure(prog, pinplay.LogConfig{Seed: 2, Input: input, RandSeed: 99}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rr := reverseReplayer(t, s, 250)
	sym := s.Prog.SymbolByName("acc")

	if err := rr.RunTo(rr.Total()); err != nil {
		t.Fatal(err)
	}
	finalAcc := rr.Machine().Mem.Read(sym.Addr)

	// Bounce around; the final value must be identical every time we
	// return to the end.
	for _, back := range []int64{100, 1000, rr.Total() / 2} {
		if err := rr.StepBack(back); err != nil {
			t.Fatal(err)
		}
		if err := rr.RunTo(rr.Total()); err != nil {
			t.Fatal(err)
		}
		if got := rr.Machine().Mem.Read(sym.Addr); got != finalAcc {
			t.Fatalf("after -%d/+%d bounce: acc = %d, want %d", back, back, got, finalAcc)
		}
	}
}

func TestReverseThreadCountsRestored(t *testing.T) {
	s := reverseSession(t)
	rr := reverseReplayer(t, s, 400)
	if err := rr.RunTo(1200); err != nil {
		t.Fatal(err)
	}
	counts := map[int]int64{}
	for _, th := range rr.Machine().Threads {
		counts[th.ID] = th.Count
	}
	if err := rr.RunTo(3000); err != nil {
		t.Fatal(err)
	}
	if err := rr.RunTo(1200); err != nil {
		t.Fatal(err)
	}
	for _, th := range rr.Machine().Threads {
		if counts[th.ID] != th.Count {
			t.Errorf("thread %d count %d after reverse, was %d", th.ID, th.Count, counts[th.ID])
		}
	}
	_ = isa.NumRegs
}

// TestReverseReplayBridgesFlightRecorderPinball drives reverse debugging
// over a pinball with evicted windows: it must replay the whole bridged
// region — not just the retained quanta — to the full recording's end
// state, forwards, backwards and step by step.
func TestReverseReplayBridgesFlightRecorderPinball(t *testing.T) {
	full, ring := ringDiffSessions(t)
	want, err := full.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameEnd := func(what string, m *vm.Machine) {
		t.Helper()
		if !m.Snapshot().Mem.Equal(want.Snapshot().Mem) {
			t.Errorf("%s: memory differs from the full replay", what)
		}
		if !slices.Equal(m.Output(), want.Output()) {
			t.Errorf("%s: output %v, full replay %v", what, m.Output(), want.Output())
		}
	}
	rr := reverseReplayer(t, ring, 300)
	if total := full.Pinball.TotalQuantumInstrs(); rr.Total() != total {
		t.Fatalf("reverse replay covers %d instructions, region has %d", rr.Total(), total)
	}
	if err := rr.RunTo(rr.Total()); err != nil {
		t.Fatal(err)
	}
	if rr.Executed() != rr.Total() {
		t.Fatalf("RunTo(total) stopped at %d of %d", rr.Executed(), rr.Total())
	}
	sameEnd("RunTo(total)", rr.Machine())
	if err := rr.RunTo(1000); err != nil {
		t.Fatal(err)
	}
	if rr.Executed() != 1000 {
		t.Fatalf("RunTo(1000) at %d", rr.Executed())
	}
	for stepForward(t, rr) {
	}
	if rr.Executed() != rr.Total() {
		t.Fatalf("stepping stopped at %d of %d", rr.Executed(), rr.Total())
	}
	sameEnd("step to end", rr.Machine())
}

// TestReverseReplayDetectsTamperedCheckpoint: reverse replay validates
// the pinball's divergence checkpoints on every forward pass, including
// one that restarts from a checkpoint behind the bad window.
func TestReverseReplayDetectsTamperedCheckpoint(t *testing.T) {
	prog, err := cc.CompileSource("count.c", `
int tick;
int main() {
	int i;
	for (i = 0; i < 600; i++) { tick = tick + 1; }
	write(tick);
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.RecordRegion(prog, pinplay.LogConfig{Seed: 1, CheckpointEvery: 100}, pinplay.RegionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	bad := len(s.Pinball.Checkpoints) / 2
	if bad == 0 {
		t.Fatalf("only %d checkpoints recorded", len(s.Pinball.Checkpoints))
	}
	s.Pinball.Checkpoints[bad].Hash ^= 0xBAD
	rr := reverseReplayer(t, s, 250)

	var first *pinplay.DivergenceError
	if err := rr.RunTo(rr.Total()); !errors.As(err, &first) {
		t.Fatalf("first forward pass: %v, want a divergence", err)
	}
	if first.Div.ToStep != s.Pinball.Checkpoints[bad].Step {
		t.Errorf("divergence at step %d, tampered checkpoint at %d", first.Div.ToStep, s.Pinball.Checkpoints[bad].Step)
	}
	if err := rr.RunTo(first.Div.FromStep); err != nil {
		t.Fatalf("back to the last good checkpoint (step %d): %v", first.Div.FromStep, err)
	}
	var again *pinplay.DivergenceError
	if err := rr.RunTo(rr.Total()); !errors.As(err, &again) {
		t.Fatalf("forward pass after restore: %v, want a divergence", err)
	}
	if again.Div.Window() != first.Div.Window() {
		t.Errorf("second pass diverged in %s, first in %s", again.Div.Window(), first.Div.Window())
	}
}
