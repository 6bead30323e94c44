package tracer_test

import (
	"testing"
	"testing/quick"

	"repro/internal/cc"
	"repro/internal/isa"
	"repro/internal/tracer"
	"repro/internal/vm"
)

func collect(t *testing.T, src string, seed int64) *tracer.Trace {
	t.Helper()
	prog, err := cc.CompileSource("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(prog, vm.Config{Sched: vm.NewRandomScheduler(seed, 17), MaxSteps: 5_000_000})
	col := tracer.NewCollector()
	m.SetTracer(col)
	m.Run()
	tr := col.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

const twoThreadSrc = `
int shared;
int mtx;
int worker(int n) {
	int i;
	for (i = 0; i < 20; i++) {
		lock(&mtx);
		shared = shared + 1;
		unlock(&mtx);
	}
	return 0;
}
int main() {
	int t = spawn(worker, 0);
	worker(0);
	join(t);
	write(shared);
	return 0;
}`

func TestRefRoundTrip(t *testing.T) {
	tr := collect(t, twoThreadSrc, 3)
	for tid, l := range tr.Locals {
		for pos := range l {
			ref, ok := tr.RefOf(tid, l[pos].Idx)
			if !ok {
				t.Fatalf("RefOf failed for tid %d pos %d", tid, pos)
			}
			if int(ref.Pos) != pos || int(ref.Tid) != tid {
				t.Fatalf("RefOf(%d, %d) = %+v", tid, l[pos].Idx, ref)
			}
			if tr.Entry(ref) != &l[pos] {
				t.Fatal("Entry does not return the same element")
			}
		}
	}
	if _, ok := tr.RefOf(99, 0); ok {
		t.Error("RefOf accepted unknown thread")
	}
	if _, ok := tr.RefOf(0, -5); ok {
		t.Error("RefOf accepted negative index")
	}
}

func TestGlobalPosBijection(t *testing.T) {
	tr := collect(t, twoThreadSrc, 5)
	if err := tr.BuildGlobal(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Global) != tr.Len() {
		t.Fatalf("global has %d entries, locals %d", len(tr.Global), tr.Len())
	}
	seen := map[tracer.Ref]bool{}
	for g, ref := range tr.Global {
		if seen[ref] {
			t.Fatalf("ref %+v appears twice", ref)
		}
		seen[ref] = true
		gp, ok := tr.GlobalPosOf(ref)
		if !ok || gp != g {
			t.Fatalf("GlobalPosOf(%+v) = %d,%v; want %d", ref, gp, ok, g)
		}
	}
}

func TestLocLaws(t *testing.T) {
	f := func(tid uint8, reg uint8, addr uint32) bool {
		r := isa.Reg(reg % isa.NumRegs)
		rl := tracer.RegLoc(int(tid), r)
		ml := tracer.MemLoc(int64(addr))
		if !rl.IsReg() || ml.IsReg() {
			return false
		}
		// Distinct threads' registers are distinct locations.
		if tid != 0 && tracer.RegLoc(0, r) == rl {
			return false
		}
		return rl != ml
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefsUsesExcludeSPAndRZ(t *testing.T) {
	var buf [8]tracer.Loc
	push := tracer.Entry{Tid: 1, Instr: isa.Instr{Op: isa.PUSH, Rs1: isa.R3}, EffAddr: 100, MemIsWrite: true}
	defs := tracer.Defs(&push, buf[:0])
	if len(defs) != 1 || defs[0] != tracer.MemLoc(100) {
		t.Errorf("PUSH defs = %v, want just the stack slot", defs)
	}
	uses := tracer.Uses(&push, buf[:0])
	if len(uses) != 1 || uses[0] != tracer.RegLoc(1, isa.R3) {
		t.Errorf("PUSH uses = %v, want just r3", uses)
	}
	lockEv := tracer.Entry{Tid: 0, Instr: isa.Instr{Op: isa.LOCK, Rs1: isa.R1}, EffAddr: 5, MemIsWrite: true, MemAlsoRead: true}
	uses = tracer.Uses(&lockEv, buf[:0])
	found := false
	for _, u := range uses {
		if u == tracer.MemLoc(5) {
			found = true
		}
	}
	if !found {
		t.Errorf("LOCK uses %v must include its cell", uses)
	}
}

func TestLPIndexSummaries(t *testing.T) {
	tr := collect(t, twoThreadSrc, 7)
	if err := tr.BuildGlobal(); err != nil {
		t.Fatal(err)
	}
	idx := tracer.BuildLPIndex(tr, 64)
	// Every entry's defs must appear in its block summary.
	var buf [8]tracer.Loc
	for g, ref := range tr.Global {
		b := idx.BlockOf(g)
		for _, l := range tracer.Defs(tr.Entry(ref), buf[:0]) {
			w := map[tracer.Loc]struct{}{l: {}}
			if !idx.MayDefine(b, w) {
				t.Fatalf("block %d summary missing def %v of global %d", b, l, g)
			}
		}
	}
	// A location never defined must not match any block.
	never := map[tracer.Loc]struct{}{tracer.MemLoc(1 << 40): {}}
	for b := 0; b*64 < len(tr.Global); b++ {
		if idx.MayDefine(b, never) {
			t.Fatalf("block %d claims to define an untouched location", b)
		}
	}
}

func TestSpawnEventRecorded(t *testing.T) {
	tr := collect(t, twoThreadSrc, 9)
	if len(tr.SpawnEvent) != 1 {
		t.Fatalf("spawn events = %d, want 1", len(tr.SpawnEvent))
	}
	sp, ok := tr.SpawnEvent[1]
	if !ok {
		t.Fatal("no spawn event for thread 1")
	}
	if tr.Entry(sp).Instr.Op != isa.SPAWN {
		t.Error("recorded spawn ref is not a SPAWN instruction")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := collect(t, twoThreadSrc, 11)
	tr.Locals[0][3].Idx = 999999
	if err := tr.Validate(); err == nil {
		t.Error("corrupted trace passed validation")
	}
}

func TestGlobalTraceCycleDetection(t *testing.T) {
	// Build a trace with a contradictory order edge; BuildGlobal must
	// fail rather than loop.
	tr := collect(t, `int main() { int x = 1; write(x); return 0; }`, 1)
	tr.Edges = append(tr.Edges, vm.OrderEdge{FromTid: 0, FromIdx: 5, ToTid: 0, ToIdx: 2})
	// A same-thread backward edge contradicts program order.
	if err := tr.BuildGlobal(); err == nil {
		t.Error("contradictory constraints accepted")
	}
}
