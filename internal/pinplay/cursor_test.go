package pinplay

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/vm"
)

// assertSrc always ends in a failing assert, which executes and is
// counted in the quanta.
const assertSrc = `
int x;
int worker(int n) {
	int i;
	for (i = 0; i < 40; i++) { x = x + 1; }
	return 0;
}
int main() {
	int i;
	int t = spawn(worker, 0);
	for (i = 0; i < 40; i++) { x = x + 2; }
	join(t);
	assert(x == 0);
	return 0;
}`

type cursorCase struct {
	name string
	prog *isa.Program
	pb   *pinball.Pinball
}

// cursorCases returns one pinball of each replay mode: a whole region, a
// slice pinball with an injection, a gapped flight-recorder pinball and
// a region ending in a failing assert.
func cursorCases(t *testing.T) []cursorCase {
	t.Helper()
	wprog := compileT(t, workerSrc)
	whole, err := Log(wprog, LogConfig{Seed: 5, MeanQuantum: 17, CheckpointEvery: 8}, RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	spb, err := Relog(wprog, whole, []pinball.Exclusion{{Tid: 1, FromIdx: 40, ToIdx: 60}})
	if err != nil {
		t.Fatalf("relog: %v", err)
	}
	if len(spb.Injections) == 0 {
		t.Fatal("slice pinball has no injections")
	}
	_, ring := logPair(t, ioSrc, RegionSpec{}, 400, 0)
	if !ring.Gapped() {
		t.Fatal("ring pinball has no gaps")
	}
	aprog := compileT(t, assertSrc)
	fail, err := Log(aprog, LogConfig{Seed: 2, MeanQuantum: 7, CheckpointEvery: 8}, RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	if fail.Failure == nil {
		t.Fatal("assert region recorded no failure")
	}
	return []cursorCase{
		{"whole", wprog, whole},
		{"slice", wprog, spb},
		{"gapped", compileT(t, ioSrc), ring},
		{"failing-assert", aprog, fail},
	}
}

// threadView is the part of a thread's state a replay reproduces. The
// wait bookkeeping of exited or running threads is residue of how they
// were scheduled, which a gap bridge (native scheduler) and a replay
// (recorded quanta) reach differently.
type threadView struct {
	Regs   [isa.NumRegs]int64
	PC     int64
	Status vm.ThreadStatus
	Count  int64
}

func threadViews(ts []vm.ThreadState) []threadView {
	out := make([]threadView, len(ts))
	for i, t := range ts {
		out[i] = threadView{t.Regs, t.PC, t.Status, t.Count}
	}
	return out
}

// machineDiff describes how two machines' replayed states differ, or
// returns "" when they are identical.
func machineDiff(a, b *vm.Machine) string {
	sa, sb := a.Snapshot(), b.Snapshot()
	ta, tb := threadViews(sa.Threads), threadViews(sb.Threads)
	switch {
	case !sa.Mem.Equal(sb.Mem):
		return "memory differs"
	case !slices.Equal(ta, tb):
		return fmt.Sprintf("threads %+v, want %+v", ta, tb)
	case !slices.Equal(sa.Output, sb.Output):
		return fmt.Sprintf("output %v, want %v", sa.Output, sb.Output)
	case sa.Steps != sb.Steps || a.Stopped() != b.Stopped():
		return fmt.Sprintf("at step %d (%v), want %d (%v)", sa.Steps, a.Stopped(), sb.Steps, b.Stopped())
	}
	return ""
}

func TestCursorStepRunAndReplayWithAgree(t *testing.T) {
	for _, tc := range cursorCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			ref, refRep, err := ReplayWith(tc.prog, tc.pb, ReplayOptions{})
			if err != nil {
				t.Fatalf("ReplayWith: %v", err)
			}
			run := NewCursor(tc.prog, tc.pb, ReplayOptions{})
			if err := run.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			step := NewCursor(tc.prog, tc.pb, ReplayOptions{})
			for {
				ok, err := step.Step()
				if err != nil {
					t.Fatalf("Step at %d: %v", step.Pos(), err)
				}
				if !ok {
					break
				}
			}
			for name, c := range map[string]*Cursor{"Run": run, "Step": step} {
				if d := machineDiff(c.Machine(), ref); d != "" {
					t.Errorf("%s vs ReplayWith: %s", name, d)
				}
				if rep := c.Report(); !reflect.DeepEqual(rep, refRep) {
					t.Errorf("%s report %+v, ReplayWith %+v", name, rep, refRep)
				}
			}
			if refRep.Executed != run.Total() {
				t.Errorf("executed %d of %d", refRep.Executed, run.Total())
			}
			if !tc.pb.Gapped() && refRep.Executed != tc.pb.TotalQuantumInstrs() {
				t.Errorf("executed %d, quanta total %d", refRep.Executed, tc.pb.TotalQuantumInstrs())
			}
			if refRep.Checked != len(tc.pb.Checkpoints) {
				t.Errorf("checked %d of %d checkpoints", refRep.Checked, len(tc.pb.Checkpoints))
			}
		})
	}
}

func TestCursorSnapshotRestore(t *testing.T) {
	for _, tc := range cursorCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCursor(tc.prog, tc.pb, ReplayOptions{})
			if tc.pb.Gapped() {
				if _, err := c.Snapshot(); err == nil {
					t.Fatal("snapshot of a gap-bridging replay succeeded")
				}
				return
			}
			ref, refRep, err := ReplayWith(tc.prog, tc.pb, ReplayOptions{})
			if err != nil {
				t.Fatalf("ReplayWith: %v", err)
			}
			steps := []int64{0, 1, c.Total() / 2, c.Total() - 1}
			for _, in := range tc.pb.Injections {
				steps = append(steps, in.AtStep)
			}
			for _, k := range steps {
				c := NewCursor(tc.prog, tc.pb, ReplayOptions{})
				if err := c.RunTo(k); err != nil {
					t.Fatalf("RunTo(%d): %v", k, err)
				}
				st, err := c.Snapshot()
				if err != nil {
					t.Fatalf("Snapshot at %d: %v", k, err)
				}
				for _, pass := range []string{"first run", "after restore"} {
					if pass != "first run" {
						c.Restore(st)
						if c.Pos() != k {
							t.Fatalf("restored to %d, want %d", c.Pos(), k)
						}
					}
					if err := c.Run(); err != nil {
						t.Fatalf("snapshot at %d, %s: %v", k, pass, err)
					}
					if d := machineDiff(c.Machine(), ref); d != "" {
						t.Errorf("snapshot at %d, %s: %s", k, pass, d)
					}
					if rep := c.Report(); !reflect.DeepEqual(rep, refRep) {
						t.Errorf("snapshot at %d, %s: report %+v, want %+v", k, pass, rep, refRep)
					}
				}
			}
		})
	}
}

// TestReplayToStepBridgesGappedPinball replays prefixes of a
// flight-recorder pinball: each must reach the state the complete
// recording's prefix reaches, bounded by the whole region rather than
// by the retained quanta.
func TestReplayToStepBridgesGappedPinball(t *testing.T) {
	full, ring := logPair(t, ioSrc, RegionSpec{}, 400, 0)
	if !ring.Gapped() || ring.TotalQuantumInstrs() >= 1000 || ring.RegionInstrs <= 1000 {
		t.Fatalf("want a gapped ring retaining <1000 of >1000 instructions, got %d of %d",
			ring.TotalQuantumInstrs(), ring.RegionInstrs)
	}
	prog := compileT(t, ioSrc)
	for _, k := range []int64{100, 1000, ring.RegionInstrs} {
		want, _, err := ReplayToStep(prog, full, k, ReplayOptions{})
		if err != nil {
			t.Fatalf("full ReplayToStep(%d): %v", k, err)
		}
		got, rep, err := ReplayToStep(prog, ring, k, ReplayOptions{})
		if err != nil {
			t.Fatalf("ring ReplayToStep(%d): %v", k, err)
		}
		if rep.Executed != k {
			t.Errorf("ReplayToStep(%d) executed %d", k, rep.Executed)
		}
		if d := machineDiff(got, want); d != "" {
			t.Errorf("ReplayToStep(%d): %s", k, d)
		}
	}
	if _, _, err := ReplayToStep(prog, ring, ring.RegionInstrs+1, ReplayOptions{}); err == nil {
		t.Error("ReplayToStep past the region succeeded")
	}
}
