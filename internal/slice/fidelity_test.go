package slice_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/tracer"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// memberWatch checks, during a slice pinball's replay, that every slice
// member executes at its original (tid, Idx) with the values the region
// trace recorded for it.
type memberWatch struct {
	vm.NopTracer
	want map[[2]int64]*vm.InstrEvent
	bad  string
}

func (w *memberWatch) OnInstr(ev *vm.InstrEvent) {
	k := [2]int64{int64(ev.Tid), ev.Idx}
	e, ok := w.want[k]
	if !ok {
		return
	}
	delete(w.want, k)
	if w.bad == "" && (e.PC != ev.PC || e.EffAddr != ev.EffAddr || e.MemVal != ev.MemVal ||
		e.NextPC != ev.NextPC || e.Taken != ev.Taken) {
		w.bad = fmt.Sprintf("member (tid %d, idx %d) %v: region {pc %d addr %d val %d next %d taken %v}, slice replay {pc %d addr %d val %d next %d taken %v}",
			ev.Tid, ev.Idx, e.Instr.Op, e.PC, e.EffAddr, e.MemVal, e.NextPC, e.Taken,
			ev.PC, ev.EffAddr, ev.MemVal, ev.NextPC, ev.Taken)
	}
}

// checkFidelity slices the session at each criterion, relogs the slice
// into a slice pinball, replays it, and requires every member to run
// with identical values. It returns how many members it checked.
func checkFidelity(t *testing.T, label string, sess *core.Session, crits []tracer.Ref) int {
	t.Helper()
	tr, err := sess.Trace()
	if err != nil {
		t.Fatalf("%s: trace: %v", label, err)
	}
	checked := 0
	for _, crit := range crits {
		sl, err := sess.SliceFor(crit)
		if err != nil {
			t.Fatalf("%s: slice %+v: %v", label, crit, err)
		}
		spb, _, err := sess.ExecutionSlice(sl)
		if err != nil {
			t.Fatalf("%s: execution slice %+v: %v", label, crit, err)
		}
		w := &memberWatch{want: make(map[[2]int64]*vm.InstrEvent, len(sl.Members))}
		for _, m := range sl.Members {
			e := tr.Entry(m)
			w.want[[2]int64{int64(m.Tid), e.Idx}] = e
		}
		if _, err := pinplay.Replay(sess.Prog, spb, w); err != nil {
			t.Fatalf("%s: slice replay %+v: %v", label, crit, err)
		}
		if w.bad != "" {
			t.Fatalf("%s: criterion %+v: %s", label, crit, w.bad)
		}
		for k, e := range w.want {
			t.Fatalf("%s: criterion %+v: member (tid %d, idx %d) %v at pc %d never executed in the slice replay (%d of %d missing)",
				label, crit, k[0], k[1], e.Instr.Op, e.PC, len(w.want), len(sl.Members))
		}
		checked += len(sl.Members)
	}
	return checked
}

// fidelityCriteria are the last reads plus reads sampled across the
// region.
func fidelityCriteria(tr *tracer.Trace) []tracer.Ref {
	return append(slice.LastReadsInRegion(tr, 3), midRegionReads(tr, 12)...)
}

// retCases pin the execution-slice RET regression in the case shape
// {summary, program, criterion, want}: a RET that returns to its caller
// (so does not exit its thread) is a slice member — it reads its return
// address from the stack — and the slice pinball used to skip it,
// injecting its effect instead.
var retCases = []struct {
	summary   string
	program   string
	criterion func(*tracer.Trace) tracer.Ref
	want      int // slice members
}{{
	summary: "the return of a called function, sliced at itself",
	program: `
int r;
int sq(int x) { return x * x; }
int main() {
	r = sq(3);
	write(r);
	return 0;
}`,
	criterion: func(tr *tracer.Trace) tracer.Ref {
		for pos, e := range tr.Locals[0] {
			if e.Instr.Op == isa.RET && e.NextPC != -1 {
				return tracer.Ref{Tid: 0, Pos: int32(pos)}
			}
		}
		return tracer.Ref{Tid: 0, Pos: -1}
	},
	want: 2,
}}

// workloadRegion records a 5000-instruction main-thread region of a
// registry workload after skipping 1000.
func workloadRegion(t *testing.T, name string, cfg pinplay.LogConfig) (*isa.Program, *pinball.Pinball) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed, cfg.RandSeed, cfg.MeanQuantum = 11, 11, 97
	cfg.Input = w.Input(w.DefaultThreads, 1<<40)
	pb, err := pinplay.Log(prog, cfg, pinplay.RegionSpec{SkipMain: 1000, LengthMain: 5000})
	if err != nil {
		t.Fatal(err)
	}
	return prog, pb
}

// TestSliceFileKeepsDigest: a slice saved as a slice file and resolved
// back onto its trace has the engine slice's Summarize digest — the
// same members and the same dependence edges, locations included — on
// every registry workload, at last and mid-region reads.
func TestSliceFileKeepsDigest(t *testing.T) {
	for _, w := range workloads.All() {
		name := w.Name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog, pb := workloadRegion(t, name, pinplay.LogConfig{CheckpointEvery: 1000})
			sess := core.Open(prog, pb)
			tr, err := sess.Trace()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "s.slice")
			for _, crit := range fidelityCriteria(tr) {
				sl, err := sess.SliceFor(crit)
				if err != nil {
					t.Fatalf("slice %+v: %v", crit, err)
				}
				if err := slice.ToFile(prog, tr, sl, nil).Save(path); err != nil {
					t.Fatal(err)
				}
				f, err := slice.LoadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				back, err := f.Resolve(tr)
				if err != nil {
					t.Fatalf("resolve %+v: %v", crit, err)
				}
				if got, want := slice.Summarize(back), slice.Summarize(sl); got != want {
					t.Fatalf("criterion %+v: resolved file %+v, engine %+v", crit, got, want)
				}
			}
		})
	}
}

// TestExecutionSliceFidelity: a slice pinball executes every member of
// its slice (paper §4), at the member's original per-thread dynamic
// index and with identical pc, memory address, memory value, next pc
// and branch outcome. It covers generated programs, every registry
// workload, and a gapped flight-recorder recording, at last and
// mid-region reads.
func TestExecutionSliceFidelity(t *testing.T) {
	t.Run("ret", func(t *testing.T) {
		for _, tc := range retCases {
			prog, err := cc.CompileSource("ret.c", tc.program)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := pinplay.Log(prog, pinplay.LogConfig{Seed: 1}, pinplay.RegionSpec{})
			if err != nil {
				t.Fatal(err)
			}
			sess := core.Open(prog, pb)
			tr, err := sess.Trace()
			if err != nil {
				t.Fatal(err)
			}
			crit := tc.criterion(tr)
			sl, err := sess.SliceFor(crit)
			if err != nil {
				t.Fatalf("%s: %v", tc.summary, err)
			}
			if len(sl.Members) != tc.want {
				t.Fatalf("%s: %d members, want %d", tc.summary, len(sl.Members), tc.want)
			}
			checkFidelity(t, tc.summary, sess, []tracer.Ref{crit})
		}
	})

	t.Run("progfuzz", func(t *testing.T) {
		seeds := int64(300)
		if testing.Short() {
			seeds = 60
		}
		members := 0
		for seed := int64(1); seed <= seeds; seed++ {
			prog, pb, _ := fuzzProgram(t, seed)
			sess := core.Open(prog, pb)
			tr, err := sess.Trace()
			if err != nil {
				t.Fatal(err)
			}
			members += checkFidelity(t, fmt.Sprintf("seed %d", seed), sess, fidelityCriteria(tr))
		}
		t.Logf("%d members checked over %d programs", members, seeds)
	})

	for _, w := range workloads.All() {
		name := w.Name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog, pb := workloadRegion(t, name, pinplay.LogConfig{CheckpointEvery: 1000})
			sess := core.Open(prog, pb)
			tr, err := sess.Trace()
			if err != nil {
				t.Fatal(err)
			}
			checkFidelity(t, name, sess, fidelityCriteria(tr))
		})
	}
	t.Run("ring:mgrid", func(t *testing.T) {
		t.Parallel()
		prog, pb := workloadRegion(t, "mgrid", pinplay.LogConfig{CheckpointEvery: 1000, RingBytes: 4000, JournalEvery: 512})
		if !pb.Gapped() {
			t.Fatal("ring recording evicted nothing")
		}
		sess := core.Open(prog, pb)
		tr, err := sess.Trace()
		if err != nil {
			t.Fatal(err)
		}
		checkFidelity(t, "ring:mgrid", sess, fidelityCriteria(tr))
	})
}
