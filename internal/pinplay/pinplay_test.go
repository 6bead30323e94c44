package pinplay

import (
	"path/filepath"
	"testing"

	"repro/internal/cc"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/vm"
)

const workerSrc = `
int counter;
int mtx;
int results[4];
int worker(int id) {
	int i;
	int local = 0;
	for (i = 0; i < 50; i++) {
		local = local + i;
		lock(&mtx);
		counter = counter + 1;
		unlock(&mtx);
	}
	results[id] = local;
	return 0;
}
int main() {
	int t1 = spawn(worker, 1);
	int t2 = spawn(worker, 2);
	worker(0);
	join(t1);
	join(t2);
	write(counter);
	write(results[0]);
	write(results[1]);
	write(results[2]);
	return 0;
}`

func compileT(t testing.TB, src string) *isa.Program {
	t.Helper()
	p, err := cc.CompileSource("w.c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func TestLogWholeAndReplay(t *testing.T) {
	prog := compileT(t, workerSrc)
	pb, err := Log(prog, LogConfig{Seed: 3, MeanQuantum: 31}, RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	if pb.Kind != pinball.KindWhole {
		t.Errorf("kind = %v, want whole", pb.Kind)
	}
	if pb.EndReason != "exit" {
		t.Errorf("end = %q, want exit", pb.EndReason)
	}
	if pb.RegionInstrs == 0 || pb.MainInstrs == 0 {
		t.Error("empty region accounting")
	}

	m, err := Replay(prog, pb, nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	out := m.Output()
	if len(out) != 4 || out[0] != 150 || out[1] != 1225 {
		t.Fatalf("replayed output = %v", out)
	}
}

func TestLogRegionSkipLength(t *testing.T) {
	prog := compileT(t, workerSrc)
	pb, err := Log(prog, LogConfig{Seed: 5, MeanQuantum: 17}, RegionSpec{SkipMain: 200, LengthMain: 300})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	if pb.Kind != pinball.KindRegion {
		t.Errorf("kind = %v", pb.Kind)
	}
	if pb.MainInstrs < 300 {
		t.Errorf("main instrs = %d, want >= 300", pb.MainInstrs)
	}
	if pb.SkipMain != 200 {
		t.Errorf("skip = %d", pb.SkipMain)
	}
	if _, err := Replay(prog, pb, nil); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

func TestReplayIsDeterministic(t *testing.T) {
	prog := compileT(t, workerSrc)
	for _, seed := range []int64{1, 2, 3, 9, 100} {
		pb, err := Log(prog, LogConfig{Seed: seed, MeanQuantum: 23}, RegionSpec{SkipMain: 50, LengthMain: 500})
		if err != nil {
			t.Fatalf("seed %d: log: %v", seed, err)
		}
		if err := CheckReplayDeterminism(prog, pb); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestReplayMatchesOriginalFinalState(t *testing.T) {
	prog := compileT(t, workerSrc)
	// Log the whole run, then compare the replay's final memory with an
	// identically seeded native run.
	pb, err := Log(prog, LogConfig{Seed: 7, MeanQuantum: 13}, RegionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	native := vm.New(prog, vm.Config{Sched: vm.NewRandomScheduler(7, 13), MaxSteps: 1 << 30})
	native.Run()

	replayed, err := Replay(prog, pb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !native.Snapshot().Mem.Equal(replayed.Snapshot().Mem) {
		t.Error("replayed final memory differs from native run")
	}
}

func TestLogCapturesFailure(t *testing.T) {
	prog := compileT(t, `
int x;
int racer(int v) { x = v; return 0; }
int main() {
	int t = spawn(racer, 5);
	x = 1;
	join(t);
	assert(x == 1);
	return 0;
}`)
	// Find a seed where the assert fires, then check the pinball
	// reproduces the failure on every replay.
	var pb *pinball.Pinball
	for seed := int64(1); seed < 64; seed++ {
		got, err := Log(prog, LogConfig{Seed: seed, MeanQuantum: 3}, RegionSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Failure != nil {
			pb = got
			break
		}
	}
	if pb == nil {
		t.Fatal("no seed exposed the race")
	}
	for i := 0; i < 3; i++ {
		m, err := Replay(prog, pb, nil)
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if m.Stopped() != vm.StopFailure {
			t.Fatalf("replay %d: stop = %v, want failure", i, m.Stopped())
		}
		f := m.Failure()
		if f.Tid != pb.Failure.Tid || f.PC != pb.Failure.PC {
			t.Errorf("replay %d: failure at tid %d pc %d, logged tid %d pc %d",
				i, f.Tid, f.PC, pb.Failure.Tid, pb.Failure.PC)
		}
	}
}

func TestLogUntilFailureErrorsOnCleanRun(t *testing.T) {
	prog := compileT(t, `int main() { return 0; }`)
	if _, err := LogUntilFailure(prog, LogConfig{Seed: 1}, 0); err == nil {
		t.Error("expected error for non-failing program")
	}
}

func TestPinballSaveLoadRoundTrip(t *testing.T) {
	prog := compileT(t, workerSrc)
	pb, err := Log(prog, LogConfig{Seed: 11, MeanQuantum: 19}, RegionSpec{SkipMain: 10, LengthMain: 200})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.pinball")
	if err := pb.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := pinball.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.RegionInstrs != pb.RegionInstrs || len(got.Quanta) != len(pb.Quanta) {
		t.Error("round trip lost data")
	}
	if _, err := Replay(prog, got, nil); err != nil {
		t.Fatalf("replay of loaded pinball: %v", err)
	}
	if sz, err := pb.EncodedSize(); err != nil || sz <= 0 {
		t.Errorf("EncodedSize = %d, %v", sz, err)
	}
}

func TestRecorderManualRegion(t *testing.T) {
	prog := compileT(t, workerSrc)
	m := vm.New(prog, vm.Config{Sched: vm.NewRandomScheduler(2, 29), MaxSteps: 1 << 30})
	for i := 0; i < 500 && m.StepOne(); i++ {
	}
	rec := StartRecording(m)
	for i := 0; i < 2000 && m.StepOne(); i++ {
	}
	pb := rec.Finish(m, "manual")
	if pb.EndReason != "manual" {
		t.Errorf("end = %q", pb.EndReason)
	}
	if pb.RegionInstrs != 2000 {
		t.Errorf("region instrs = %d, want 2000", pb.RegionInstrs)
	}
	if _, err := Replay(prog, pb, nil); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

func TestLogErrorsWhenSkipPastEnd(t *testing.T) {
	prog := compileT(t, `int main() { return 0; }`)
	if _, err := Log(prog, LogConfig{Seed: 1}, RegionSpec{SkipMain: 1 << 40}); err == nil {
		t.Error("expected error when skip exceeds execution length")
	}
}

func TestRelogWithManualExclusion(t *testing.T) {
	// Exclude a chunk of the main thread's computation and check the
	// slice replay still reaches the same final memory via injections.
	prog := compileT(t, `
int a;
int b;
int c;
int main() {
	int i;
	a = 1;
	for (i = 0; i < 100; i++) { b = b + i; }
	c = a + 7;
	write(c);
	return 0;
}`)
	pb, err := Log(prog, LogConfig{Seed: 1}, RegionSpec{})
	if err != nil {
		t.Fatal(err)
	}

	// Find the loop's index range in the main thread by tracing a replay.
	type rng struct{ from, to int64 }
	var loop rng
	tr := &spanTracer{prog: prog}
	if _, err := Replay(prog, pb, tr); err != nil {
		t.Fatal(err)
	}
	loop = rng{tr.loopFrom, tr.loopTo}
	if loop.from == 0 || loop.to <= loop.from {
		t.Fatalf("could not locate loop span: %+v", loop)
	}

	ex := []pinball.Exclusion{{
		Tid: 0, FromIdx: loop.from, ToIdx: loop.to,
	}}
	spb, err := Relog(prog, pb, ex)
	if err != nil {
		t.Fatalf("relog: %v", err)
	}
	if spb.Kind != pinball.KindSlice {
		t.Error("relog did not mark slice pinball")
	}
	if spb.RegionInstrs >= pb.RegionInstrs {
		t.Errorf("slice pinball has %d instrs, region had %d", spb.RegionInstrs, pb.RegionInstrs)
	}
	if len(spb.Injections) != 1 {
		t.Fatalf("got %d injections, want 1", len(spb.Injections))
	}

	m, err := Replay(prog, spb, nil)
	if err != nil {
		t.Fatalf("slice replay: %v", err)
	}
	// The excluded loop's effect on b must be present via injection, and
	// the included tail must have computed c.
	full, err := Replay(prog, pb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Snapshot().Mem.Equal(full.Snapshot().Mem) {
		t.Error("slice replay memory differs from full replay")
	}
	if out := m.Output(); len(out) != 1 || out[0] != 8 {
		t.Errorf("slice output = %v, want [8]", out)
	}
}

// spanTracer finds the main-thread index range of the for loop in the
// TestRelogWithManualExclusion program (source lines 7).
type spanTracer struct {
	vm.NopTracer
	prog     *isa.Program
	loopFrom int64
	loopTo   int64
}

func (s *spanTracer) OnInstr(ev *vm.InstrEvent) {
	if ev.Tid != 0 {
		return
	}
	line := ev.Instr.Line
	if line == 8 { // "for (i = 0; ...) { b = b + i; }"
		if s.loopFrom == 0 {
			s.loopFrom = ev.Idx
		}
		s.loopTo = ev.Idx + 1
	}
}

func TestRelogRejectsBadExclusions(t *testing.T) {
	prog := compileT(t, workerSrc)
	pb, err := Log(prog, LogConfig{Seed: 1, MeanQuantum: 21}, RegionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Relog(prog, pb, []pinball.Exclusion{{Tid: 0, FromIdx: 10, ToIdx: 10}}); err == nil {
		t.Error("empty exclusion accepted")
	}
	if _, err := Relog(prog, pb, []pinball.Exclusion{
		{Tid: 0, FromIdx: 10, ToIdx: 30},
		{Tid: 0, FromIdx: 20, ToIdx: 40},
	}); err == nil {
		t.Error("overlapping exclusions accepted")
	}
	for _, tid := range []int{-1, vm.MaxThreads} {
		if _, err := Relog(prog, pb, []pinball.Exclusion{{Tid: tid, FromIdx: 10, ToIdx: 30}}); err == nil {
			t.Errorf("exclusion for thread %d accepted", tid)
		}
	}
}

// TestLogBetweenPoints captures the region between two code locations —
// the paper's start/end-point region selection — and checks the region
// covers exactly the computation between them.
func TestLogBetweenPoints(t *testing.T) {
	prog := compileT(t, `
int phase;
int work;
int stage1() { phase = 1; return 0; }
int stage2() { phase = 2; return 0; }
int main() {
	int i;
	for (i = 0; i < 500; i++) { work = work + i; }
	stage1();
	for (i = 0; i < 500; i++) { work = work + i; }
	stage2();
	for (i = 0; i < 500; i++) { work = work + i; }
	write(work);
	return 0;
}`)
	start, err := prog.ResolveLocation("stage1")
	if err != nil {
		t.Fatal(err)
	}
	end, err := prog.ResolveLocation("stage2")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := LogBetween(prog, LogConfig{Seed: 1}, PointSpec{StartPC: start, EndPC: end})
	if err != nil {
		t.Fatal(err)
	}
	if pb.EndReason != "end-point" {
		t.Errorf("end reason = %q", pb.EndReason)
	}
	// The region covers stage1 and the middle loop but not the other two
	// loops: roughly a third of the whole run.
	whole, err := Log(prog, LogConfig{Seed: 1}, RegionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if pb.RegionInstrs <= 0 || pb.RegionInstrs >= whole.RegionInstrs/2 {
		t.Errorf("region = %d instrs of %d total; want roughly a third", pb.RegionInstrs, whole.RegionInstrs)
	}
	// The region replays deterministically and its memory state at region
	// entry has phase == 0, at region end phase == 1 (stage2 not yet run).
	m, err := Replay(prog, pb, nil)
	if err != nil {
		t.Fatal(err)
	}
	sym := prog.SymbolByName("phase")
	if got := m.Mem.Read(sym.Addr); got != 1 {
		t.Errorf("phase at region end = %d, want 1", got)
	}
	if got := pb.State.Mem; got == nil {
		t.Fatal("no initial state")
	}
}

// TestLogBetweenInstances selects a later dynamic instance of the start
// point.
func TestLogBetweenInstances(t *testing.T) {
	prog := compileT(t, `
int hits;
int mark() { hits = hits + 1; return 0; }
int main() {
	int i;
	for (i = 0; i < 5; i++) { mark(); }
	return 0;
}`)
	start, err := prog.ResolveLocation("mark")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := LogBetween(prog, LogConfig{Seed: 1}, PointSpec{StartPC: start, StartInstance: 4, EndPC: -1})
	if err != nil {
		t.Fatal(err)
	}
	// At region entry, mark has executed 3 times.
	sym := prog.SymbolByName("hits")
	var entryHits int64
	for pn, words := range pb.State.Mem {
		if sym.Addr>>12 == pn {
			entryHits = words[sym.Addr&4095]
		}
	}
	if entryHits != 3 {
		t.Errorf("hits at region entry = %d, want 3", entryHits)
	}
	m, err := Replay(prog, pb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.Read(sym.Addr); got != 5 {
		t.Errorf("hits at end = %d, want 5", got)
	}
}

func TestLogBetweenUnreachedPoint(t *testing.T) {
	prog := compileT(t, `
int unreached() { return 1; }
int main() { return 0; }`)
	start, err := prog.ResolveLocation("unreached")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LogBetween(prog, LogConfig{Seed: 1}, PointSpec{StartPC: start, EndPC: -1}); err == nil {
		t.Error("unreached start point accepted")
	}
}

func TestLogWithJournalMatchesSave(t *testing.T) {
	prog := compileT(t, workerSrc)
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.pinball")
	cfg := LogConfig{Seed: 3, MeanQuantum: 31, JournalPath: jpath, JournalEvery: 512, JournalNoSync: true}
	pb, err := Log(prog, cfg, RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	got, err := pinball.Load(jpath)
	if err != nil {
		t.Fatalf("load journal: %v", err)
	}
	if got.ID() != pb.ID() {
		t.Fatalf("journaled pinball differs from the in-memory one: %s vs %s", got.ID(), pb.ID())
	}
	if got.RegionInstrs != pb.RegionInstrs || len(got.Quanta) == 0 ||
		len(got.Syscalls) != len(pb.Syscalls) || len(got.Checkpoints) != len(pb.Checkpoints) {
		t.Fatalf("journaled content mismatch: region %d/%d, %d/%d syscalls, %d/%d checkpoints",
			got.RegionInstrs, pb.RegionInstrs, len(got.Syscalls), len(pb.Syscalls),
			len(got.Checkpoints), len(pb.Checkpoints))
	}
	// The journaled file replays exactly like the in-memory pinball.
	m1, err := Replay(prog, pb, nil)
	if err != nil {
		t.Fatalf("replay original: %v", err)
	}
	m2, err := Replay(prog, got, nil)
	if err != nil {
		t.Fatalf("replay journaled: %v", err)
	}
	o1, o2 := m1.Output(), m2.Output()
	if len(o1) != len(o2) {
		t.Fatalf("outputs differ: %v vs %v", o1, o2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("outputs differ at %d: %v vs %v", i, o1, o2)
		}
	}
}
