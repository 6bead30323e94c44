package core_test

import (
	"path/filepath"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// raceSrc is an atomicity-violation bug exposed under some schedules: a
// write to x lands between t2's two reads.
const raceSrc = `
int x;
int pad;
int t2func(int unused) {
	int k = x + 1;
	yield();
	k = k + x;
	assert(k == 3);
	return k;
}
int main() {
	int i;
	x = 1;
	for (i = 0; i < 50; i++) { pad = pad + i; }
	int t = spawn(t2func, 0);
	yield();
	x = 0 - 1;
	join(t);
	return 0;
}`

func failingSession(t *testing.T) *core.Session {
	t.Helper()
	prog, err := cc.CompileSource("race.c", raceSrc)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed < 300; seed++ {
		s, err := core.RecordFailure(prog, pinplay.LogConfig{Seed: seed, MeanQuantum: 5}, 0)
		if err == nil {
			return s
		}
	}
	t.Fatal("no seed exposed the race")
	return nil
}

func TestSessionReplayAndTrace(t *testing.T) {
	s := failingSession(t)
	m, err := s.Replay(nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if m.Stopped() != vm.StopFailure {
		t.Fatalf("replay stop = %v, want failure", m.Stopped())
	}
	tr, err := s.Trace()
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	if int64(tr.Len()) != s.Pinball.RegionInstrs {
		t.Errorf("trace has %d entries, region %d", tr.Len(), s.Pinball.RegionInstrs)
	}
	// Cached.
	tr2, _ := s.Trace()
	if tr2 != tr {
		t.Error("trace not cached")
	}
}

func TestSliceAtFailureFindsRootCause(t *testing.T) {
	s := failingSession(t)
	sl, err := s.SliceAtFailure()
	if err != nil {
		t.Fatalf("slice: %v", err)
	}
	tr, _ := s.Trace()
	foundRace := false
	for _, m := range sl.Members {
		if tr.Entry(m).Instr.Line == 17 { // "x = 0 - 1"
			foundRace = true
		}
	}
	if !foundRace {
		t.Error("failure slice does not contain the racing write")
	}
}

func TestSliceForVariableAndAtLine(t *testing.T) {
	s := failingSession(t)
	if _, err := s.SliceForVariable("x"); err != nil {
		t.Errorf("SliceForVariable: %v", err)
	}
	if _, err := s.SliceForVariable("nope"); err == nil {
		t.Error("unknown variable accepted")
	}
	if _, err := s.SliceAtLine(0, 13, 1); err != nil { // "x = 1"
		t.Errorf("SliceAtLine: %v", err)
	}
}

func TestSessionSaveLoadPinballAndSlice(t *testing.T) {
	s := failingSession(t)
	dir := t.TempDir()
	pbPath := filepath.Join(dir, "r.pinball")
	if err := s.Pinball.Save(pbPath); err != nil {
		t.Fatal(err)
	}
	s2, err := core.LoadSession(s.Prog, pbPath)
	if err != nil {
		t.Fatalf("LoadSession: %v", err)
	}
	sl, err := s2.SliceAtFailure()
	if err != nil {
		t.Fatal(err)
	}
	slPath := filepath.Join(dir, "f.slice")
	if err := s2.SaveSlice(sl, slPath); err != nil {
		t.Fatal(err)
	}
	// A fresh session over the same pinball can reuse the slice — the
	// "slices usable across multiple debug sessions" property.
	s3, err := core.LoadSession(s.Prog, pbPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s3.LoadSlice(slPath)
	if err != nil {
		t.Fatalf("LoadSlice in new session: %v", err)
	}
	if len(got.Members) != len(sl.Members) {
		t.Errorf("slice changed across sessions: %d vs %d members", len(got.Members), len(sl.Members))
	}
}

func TestLoadSessionRejectsWrongProgram(t *testing.T) {
	s := failingSession(t)
	dir := t.TempDir()
	pbPath := filepath.Join(dir, "r.pinball")
	if err := s.Pinball.Save(pbPath); err != nil {
		t.Fatal(err)
	}
	other, err := cc.CompileSource("other.c", `int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadSession(other, pbPath); err == nil {
		t.Error("pinball for a different program accepted")
	}
}

func TestStepperWalksSliceForward(t *testing.T) {
	s := failingSession(t)
	sl, err := s.SliceAtFailure()
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.NewStepper(sl)
	if err != nil {
		t.Fatalf("stepper: %v", err)
	}
	var stops []*core.StepPoint
	var lastIdxPerTid = map[int]int64{}
	for {
		p, err := st.NextInstr()
		if err != nil {
			t.Fatalf("NextInstr: %v", err)
		}
		if p == nil {
			break
		}
		if last, ok := lastIdxPerTid[p.Tid]; ok && p.Idx <= last {
			t.Fatalf("stepper went backwards in thread %d: %d -> %d", p.Tid, last, p.Idx)
		}
		lastIdxPerTid[p.Tid] = p.Idx
		stops = append(stops, p)
	}
	if len(stops) == 0 {
		t.Fatal("stepper produced no stops")
	}
	// Every stop must be a slice member instruction count-wise: the
	// number of stops equals the members whose instructions executed in
	// the slice replay.
	if len(stops) > len(sl.Members) {
		t.Errorf("more stops (%d) than slice members (%d)", len(stops), len(sl.Members))
	}
	// The final stop is the failing assert.
	last := stops[len(stops)-1]
	if last.PC != s.Pinball.Failure.PC {
		t.Errorf("last stop at pc %d, failure at pc %d", last.PC, s.Pinball.Failure.PC)
	}
}

func TestStepperStatementLevelAndValues(t *testing.T) {
	s := failingSession(t)
	sl, err := s.SliceAtFailure()
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.NewStepper(sl)
	if err != nil {
		t.Fatal(err)
	}
	prevSrc := ""
	n := 0
	sawRace := false
	checkNext := false
	for {
		p, err := st.NextStatement()
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			break
		}
		if p.Src == prevSrc {
			t.Errorf("statement step repeated source %s", p.Src)
		}
		prevSrc = p.Src
		n++
		// While stepping, the user can examine program state: once the
		// racing statement has fully stepped past (the next stop), x
		// must read -1.
		if checkNext {
			checkNext = false
			v, err := st.ReadVar("x")
			if err != nil {
				t.Fatal(err)
			}
			if v != -1 {
				t.Errorf("after racing write, x = %d, want -1", v)
			}
		}
		if p.Line == 17 {
			sawRace = true
			checkNext = true
		}
	}
	if n == 0 {
		t.Fatal("no statement stops")
	}
	if !sawRace {
		t.Error("statement stepping never hit the racing write")
	}
}

func TestRecordRegionSession(t *testing.T) {
	prog, err := cc.CompileSource("loop.c", `
int acc;
int main() {
	int i;
	for (i = 0; i < 1000; i++) { acc = acc + i; }
	write(acc);
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.RecordRegion(prog, pinplay.LogConfig{Seed: 1}, pinplay.RegionSpec{SkipMain: 100, LengthMain: 500})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pinball.MainInstrs < 500 {
		t.Errorf("region main instrs = %d", s.Pinball.MainInstrs)
	}
	if _, err := s.Replay(nil); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if _, err := s.Trace(); err != nil {
		t.Fatalf("trace: %v", err)
	}
}

func TestSliceAtFailureRequiresFailure(t *testing.T) {
	prog, err := cc.CompileSource("ok.c", `int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.RecordRegion(prog, pinplay.LogConfig{Seed: 1}, pinplay.RegionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SliceAtFailure(); err == nil {
		t.Error("SliceAtFailure on clean run should fail")
	}
}

func TestSetSliceOptionsInvalidatesSlicer(t *testing.T) {
	s := failingSession(t)
	sl1, err := s.SliceAtFailure()
	if err != nil {
		t.Fatal(err)
	}
	opts := sl1.Stats
	s.SetSliceOptions(slice.Options{MaxSave: 10, ControlDeps: true})
	sl2, err := s.SliceAtFailure()
	if err != nil {
		t.Fatal(err)
	}
	// Without pruning the slice can only grow.
	if sl2.Stats.Members < sl1.Stats.Members {
		t.Errorf("unpruned slice smaller than pruned: %d < %d", sl2.Stats.Members, sl1.Stats.Members)
	}
	_ = opts
}

func TestDualSliceSessionAPI(t *testing.T) {
	prog, err := cc.CompileSource("race.c", raceSrc)
	if err != nil {
		t.Fatal(err)
	}
	var failing, passing *core.Session
	for seed := int64(1); seed < 300 && (failing == nil || passing == nil); seed++ {
		cfg := pinplay.LogConfig{Seed: seed, MeanQuantum: 5}
		if s, err := core.RecordFailure(prog, cfg, 0); err == nil {
			if failing == nil {
				failing = s
			}
			continue
		}
		if passing == nil {
			s, err := core.RecordRegion(prog, cfg, pinplay.RegionSpec{})
			if err != nil {
				t.Fatal(err)
			}
			passing = s
		}
	}
	if failing == nil || passing == nil {
		t.Fatal("could not find both outcomes")
	}
	d, err := core.DualSlice(failing, passing, "x")
	if err != nil {
		t.Fatalf("DualSlice: %v", err)
	}
	if len(d.Common) == 0 {
		t.Error("no common statements")
	}
	if _, err := core.DualSlice(failing, passing, "nope"); err == nil {
		t.Error("unknown variable accepted")
	}
	other, _ := cc.CompileSource("o.c", "int main() { return 0; }")
	otherSess, err := core.RecordRegion(other, pinplay.LogConfig{Seed: 1}, pinplay.RegionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.DualSlice(failing, otherSess, "x"); err == nil {
		t.Error("mismatched programs accepted")
	}
}

// TestTraceLocalsPresized: collecting the trace of a full (non-gapped)
// region sizes every thread's local trace exactly from the recorded
// schedule, so no array was regrown on the way or left over-allocated.
func TestTraceLocalsPresized(t *testing.T) {
	w, err := workloads.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := pinplay.Log(prog, pinplay.LogConfig{Seed: 3, Input: w.Input(4, 1<<40)},
		pinplay.RegionSpec{SkipMain: 1000, LengthMain: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Open(prog, pb).Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Locals) < 2 {
		t.Fatalf("region traced %d threads, want several", len(tr.Locals))
	}
	for tid, l := range tr.Locals {
		if cap(l) != len(l) {
			t.Errorf("thread %d: local trace cap %d, len %d", tid, cap(l), len(l))
		}
		if runs := tr.Steps[tid]; cap(runs) != len(runs) {
			t.Errorf("thread %d: step table cap %d, len %d", tid, cap(runs), len(runs))
		}
	}
}
