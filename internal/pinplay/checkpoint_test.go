package pinplay

import (
	"errors"
	"testing"

	"repro/internal/pinball"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func TestCheckpointsRecordedAtCadence(t *testing.T) {
	prog := compileT(t, workerSrc)
	pb, err := Log(prog, LogConfig{Seed: 3, MeanQuantum: 31, CheckpointEvery: 16}, RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	if pb.CheckpointEvery != 16 {
		t.Fatalf("CheckpointEvery = %d, want 16", pb.CheckpointEvery)
	}
	if len(pb.Checkpoints) == 0 {
		t.Fatal("no checkpoints recorded")
	}
	// Every window is on cadence except each thread's trailing one,
	// which ends at the thread's last instruction.
	ran := map[int]int64{}
	for _, q := range pb.Quanta {
		ran[q.Tid] += q.Count
	}
	lastSeq := map[int]int64{}
	total := pb.TotalQuantumInstrs()
	for _, cp := range pb.Checkpoints {
		if (cp.Seq%16 != 0 && cp.Seq != ran[cp.Tid]) || cp.Seq <= 0 {
			t.Errorf("thread %d checkpoint Seq %d is neither a positive multiple of the cadence nor its last instruction (%d)", cp.Tid, cp.Seq, ran[cp.Tid])
		}
		if cp.Seq <= lastSeq[cp.Tid] {
			t.Errorf("thread %d checkpoint Seq %d not increasing", cp.Tid, cp.Seq)
		}
		lastSeq[cp.Tid] = cp.Seq
		if cp.Step <= 0 || cp.Step > total {
			t.Errorf("checkpoint Step %d outside region of %d", cp.Step, total)
		}
	}
	for tid, n := range ran {
		if lastSeq[tid] != n {
			t.Errorf("thread %d ran %d instructions, last checkpoint at %d", tid, n, lastSeq[tid])
		}
	}
}

func TestReplayVerifiesEveryCheckpoint(t *testing.T) {
	prog := compileT(t, workerSrc)
	pb, err := Log(prog, LogConfig{Seed: 3, MeanQuantum: 31, CheckpointEvery: 16}, RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	_, rep, err := ReplayWith(prog, pb, ReplayOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Checked != len(pb.Checkpoints) {
		t.Fatalf("checked %d of %d checkpoints", rep.Checked, len(pb.Checkpoints))
	}
	if len(rep.Divergences) != 0 {
		t.Fatalf("clean replay reported divergences: %v", rep.Divergences)
	}
}

func TestUnreachedCheckpointDetected(t *testing.T) {
	prog := compileT(t, workerSrc)
	pb, err := Log(prog, LogConfig{Seed: 3, MeanQuantum: 31, CheckpointEvery: 16}, RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	// A checkpoint thread 0 never reaches, but structurally valid: the
	// replay must notice it fell short of the recorded execution.
	var last pinball.Checkpoint
	for _, cp := range pb.Checkpoints {
		if cp.Tid == 0 {
			last = cp
		}
	}
	if last.Seq == 0 {
		t.Fatal("no thread-0 checkpoint to extend")
	}
	bogus := last
	bogus.Seq += pb.CheckpointEvery
	bogus.Idx += pb.CheckpointEvery
	bogus.Step = pb.TotalQuantumInstrs()
	pb.Checkpoints = append(pb.Checkpoints, bogus)
	if err := pb.Validate(); err != nil {
		t.Fatalf("bogus checkpoint should pass structural validation: %v", err)
	}

	_, _, err = ReplayWith(prog, pb, ReplayOptions{})
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("replay error = %v, want DivergenceError", err)
	}
	if de.Div.GotPC != -1 {
		t.Errorf("unreached checkpoint should report GotPC -1, got %d", de.Div.GotPC)
	}
	if !errors.Is(err, ErrReplay) {
		t.Error("DivergenceError does not wrap ErrReplay")
	}
}

func TestCheckpointingDisabled(t *testing.T) {
	prog := compileT(t, workerSrc)
	pb, err := Log(prog, LogConfig{Seed: 3, MeanQuantum: 31, CheckpointEvery: -1}, RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	if pb.CheckpointEvery != 0 || len(pb.Checkpoints) != 0 {
		t.Fatalf("disabled checkpointing still recorded: every=%d n=%d",
			pb.CheckpointEvery, len(pb.Checkpoints))
	}
	_, rep, err := ReplayWith(prog, pb, ReplayOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Checked != 0 {
		t.Fatalf("replay checked %d checkpoints on a checkpoint-free pinball", rep.Checked)
	}
}

func TestRelogCarriesSliceCheckpoints(t *testing.T) {
	prog := compileT(t, workerSrc)
	pb, err := Log(prog, LogConfig{Seed: 5, MeanQuantum: 17, CheckpointEvery: 8}, RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	// Exclude a small window of thread 1's execution.
	ex := []pinball.Exclusion{{Tid: 1, FromIdx: 40, ToIdx: 60}}
	spb, err := Relog(prog, pb, ex)
	if err != nil {
		t.Fatalf("relog: %v", err)
	}
	if spb.CheckpointEvery != 8 || len(spb.Checkpoints) == 0 {
		t.Fatalf("slice pinball checkpoints: every=%d n=%d", spb.CheckpointEvery, len(spb.Checkpoints))
	}
	_, rep, err := ReplayWith(prog, spb, ReplayOptions{})
	if err != nil {
		t.Fatalf("slice replay: %v", err)
	}
	if rep.Checked != len(spb.Checkpoints) {
		t.Fatalf("slice replay checked %d of %d checkpoints", rep.Checked, len(spb.Checkpoints))
	}
}

// TestShortThreadWindowVerified tampers with the input a short worker
// thread reads: the thread runs fewer instructions than one checkpoint
// window and nothing else reads what it computes, so only the
// checkpoint sealing its trailing partial window can catch the replay
// going wrong.
func TestShortThreadWindowVerified(t *testing.T) {
	prog := compileT(t, `
int a;
int got;
int worker(int n) {
	got = read() * n;
	return 0;
}
int main() {
	int i;
	int t;
	t = spawn(worker, 3);
	for (i = 0; i < 100; i++) { a = a + i; }
	join(t);
	write(a);
	return 0;
}`)
	const every = 64
	pb, err := Log(prog, LogConfig{Seed: 3, MeanQuantum: 13, CheckpointEvery: every, Input: []int64{5}}, RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	var ran int64
	for _, q := range pb.Quanta {
		if q.Tid == 1 {
			ran += q.Count
		}
	}
	if ran == 0 || ran >= every {
		t.Fatalf("worker ran %d instructions, want a partial window of fewer than %d", ran, every)
	}
	tampered := false
	for i := range pb.Syscalls {
		if pb.Syscalls[i].Tid == 1 {
			pb.Syscalls[i].Ret++
			tampered = true
		}
	}
	if !tampered {
		t.Fatal("worker made no syscall to tamper with")
	}
	_, _, err = ReplayWith(prog, pb, ReplayOptions{})
	var de *DivergenceError
	if !errors.As(err, &de) || de.Div.Tid != 1 {
		t.Fatalf("replay of a tampered worker input: err = %v, want a divergence in thread 1", err)
	}
}

// lineSpans records, per thread, the index range [from, to) of the
// instructions executed on one source line.
type lineSpans struct {
	vm.NopTracer
	line  int32
	spans map[int][2]int64
}

func (s *lineSpans) OnInstr(ev *vm.InstrEvent) {
	if ev.Instr.Line != s.line {
		return
	}
	sp, ok := s.spans[ev.Tid]
	if !ok {
		sp[0] = ev.Idx
	}
	sp[1] = ev.Idx + 1
	s.spans[ev.Tid] = sp
}

// TestRelogExclusionsInTwoThreads excludes a loop in each of two threads:
// the slice pinball carries one injection per thread and replays
// divergence-clean, every checkpoint verified, to the full replay's
// output and memory.
func TestRelogExclusionsInTwoThreads(t *testing.T) {
	prog := compileT(t, `
int a;
int b;
int out;
int work(int n) {
	int i;
	for (i = 0; i < 60; i++) { b = b + i; }
	return 0;
}
int main() {
	int i;
	int t;
	t = spawn(work, 3);
	for (i = 0; i < 60; i++) { a = a + i; }
	join(t);
	out = a + b;
	write(out);
	return 0;
}`)
	pb, err := Log(prog, LogConfig{Seed: 3, MeanQuantum: 13, CheckpointEvery: 8}, RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	var ex []pinball.Exclusion
	for _, c := range []struct {
		tid  int
		line int32
	}{{0, 14}, {1, 7}} {
		lt := &lineSpans{line: c.line, spans: map[int][2]int64{}}
		if _, err := Replay(prog, pb, lt); err != nil {
			t.Fatal(err)
		}
		sp, ok := lt.spans[c.tid]
		if !ok || sp[1] <= sp[0] {
			t.Fatalf("no loop span for thread %d on line %d: %v", c.tid, c.line, lt.spans)
		}
		ex = append(ex, pinball.Exclusion{Tid: c.tid, FromIdx: sp[0], ToIdx: sp[1]})
	}
	spb, err := Relog(prog, pb, ex)
	if err != nil {
		t.Fatalf("relog: %v", err)
	}
	if len(spb.Injections) != 2 || spb.Injections[0].Tid == spb.Injections[1].Tid {
		t.Fatalf("injections %+v, want one per thread", spb.Injections)
	}
	if len(spb.Checkpoints) == 0 {
		t.Fatal("slice pinball has no checkpoints")
	}
	m, rep, err := ReplayWith(prog, spb, ReplayOptions{})
	if err != nil {
		t.Fatalf("slice replay: %v", err)
	}
	if rep.Checked != len(spb.Checkpoints) {
		t.Fatalf("slice replay checked %d of %d checkpoints", rep.Checked, len(spb.Checkpoints))
	}
	full, err := Replay(prog, pb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out := m.Output(); len(out) != 1 || out[0] != 2*1770 {
		t.Errorf("slice output = %v, want [%d]", out, 2*1770)
	}
	if !m.Snapshot().Mem.Equal(full.Snapshot().Mem) {
		t.Error("slice replay memory differs from full replay")
	}
}

// TestUnreachedCheckpointNamesLowestThread cuts a multi-threaded
// recording's schedule in half, so several threads stop short of their
// recorded checkpoints. The end-of-replay check must name the same
// thread every time: the lowest tid with an unreached checkpoint.
func TestUnreachedCheckpointNamesLowestThread(t *testing.T) {
	w, err := workloads.ByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Program()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := LogConfig{Seed: 7, RandSeed: 7, Input: w.Input(w.DefaultThreads, 1<<40), CheckpointEvery: 1000}
	pb, err := Log(prog, cfg, RegionSpec{LengthMain: 20_000})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	pb.Quanta = pb.Quanta[:len(pb.Quanta)/2]

	// Instructions each thread executes under the shortened schedule.
	ran := map[int]int64{}
	for _, q := range pb.Quanta {
		ran[q.Tid] += q.Count
	}
	want, unreached := -1, 0
	for tid := 0; tid < vm.MaxThreads; tid++ {
		for _, cp := range pb.Checkpoints {
			if cp.Tid == tid && cp.Seq > ran[tid] {
				if want < 0 {
					want = tid
				}
				unreached++
				break
			}
		}
	}
	if unreached < 2 {
		t.Fatalf("%d threads with unreached checkpoints, want several", unreached)
	}

	for i := 0; i < 40; i++ {
		_, _, err := ReplayWith(prog, pb, ReplayOptions{})
		var de *DivergenceError
		if !errors.As(err, &de) {
			t.Fatalf("replay %d: error = %v, want DivergenceError", i, err)
		}
		if de.Div.Tid != want {
			t.Fatalf("replay %d named thread %d, want the lowest unreached thread %d: %v", i, de.Div.Tid, want, de)
		}
	}
}
