package slice_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/tracer"
	"repro/internal/vm"
)

// logAndTrace logs the whole execution (finding a failing seed if
// mustFail), replays it with a trace collector, and returns everything a
// slicing test needs.
func logAndTrace(t *testing.T, src string, input []int64, mustFail bool) (*isa.Program, *pinball.Pinball, *tracer.Trace) {
	t.Helper()
	prog, err := cc.CompileSource("t.c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	pb, tr := logAndTraceProg(t, prog, input, mustFail)
	return prog, pb, tr
}

// logAndTraceProg is logAndTrace for an already-built program.
func logAndTraceProg(t *testing.T, prog *isa.Program, input []int64, mustFail bool) (*pinball.Pinball, *tracer.Trace) {
	t.Helper()
	var pb *pinball.Pinball
	for seed := int64(1); seed < 200; seed++ {
		got, err := pinplay.Log(prog, pinplay.LogConfig{Seed: seed, MeanQuantum: 5, Input: input}, pinplay.RegionSpec{})
		if err != nil {
			t.Fatalf("log: %v", err)
		}
		if !mustFail || got.Failure != nil {
			pb = got
			break
		}
	}
	if pb == nil {
		t.Fatal("no seed produced the required failure")
	}
	m := pinplay.NewReplayMachine(prog, pb, nil)
	col := tracer.NewCollector()
	m.SetTracer(col)
	total := pb.TotalQuantumInstrs()
	for i := int64(0); i < total && m.StepOne(); i++ {
	}
	tr := col.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace: %v", err)
	}
	if err := tr.BuildGlobal(); err != nil {
		t.Fatalf("global trace: %v", err)
	}
	return pb, tr
}

// lines returns the set of source lines covered by slice members.
func lines(prog *isa.Program, tr *tracer.Trace, sl *slice.Slice) map[int32]bool {
	out := map[int32]bool{}
	for _, m := range sl.Members {
		out[tr.Entry(m).Instr.Line] = true
	}
	return out
}

func TestGlobalTraceIsTopological(t *testing.T) {
	_, _, tr := logAndTrace(t, `
int counter;
int mtx;
int worker(int n) {
	int i;
	for (i = 0; i < 30; i++) {
		lock(&mtx);
		counter = counter + 1;
		unlock(&mtx);
	}
	return 0;
}
int main() {
	int t1 = spawn(worker, 0);
	worker(0);
	join(t1);
	write(counter);
	return 0;
}`, nil, false)

	// Program order must be preserved.
	pos := map[int32]int{}
	for g, ref := range tr.Global {
		if last, ok := pos[ref.Tid]; ok && int(ref.Pos) != last+1 {
			t.Fatalf("thread %d positions out of order at global %d", ref.Tid, g)
		}
		pos[ref.Tid] = int(ref.Pos)
	}
	// Every order edge must point forward in the global trace.
	for _, e := range tr.Edges {
		fr, ok1 := tr.RefOf(e.FromTid, e.FromIdx)
		to, ok2 := tr.RefOf(e.ToTid, e.ToIdx)
		if !ok1 || !ok2 {
			continue
		}
		gf, _ := tr.GlobalPosOf(fr)
		gt, _ := tr.GlobalPosOf(to)
		if gf >= gt {
			t.Fatalf("order edge %+v not honoured: %d >= %d", e, gf, gt)
		}
	}
	// Spawn precedes the child's first instruction.
	for child, sp := range tr.SpawnEvent {
		first, ok := tr.RefOf(child, tr.FirstIdx[child])
		if !ok {
			continue
		}
		gs, _ := tr.GlobalPosOf(sp)
		gf, _ := tr.GlobalPosOf(first)
		if gs >= gf {
			t.Errorf("spawn of %d at global %d not before child's first %d", child, gs, gf)
		}
	}
}

func TestSliceSingleThreadDataChain(t *testing.T) {
	prog, _, tr := logAndTrace(t, `
int a;
int b;
int c;
int unrelated;
int main() {
	int i;
	a = 3;
	unrelated = 42;
	b = a * 2;
	for (i = 0; i < 10; i++) { unrelated = unrelated + i; }
	c = b + 1;
	assert(c == 6);
	return 0;
}`, nil, true)

	sl := mustSlice(t, prog, tr, slice.DefaultOptions())
	got := lines(prog, tr, sl)
	// The chain a=3 (8) -> b=a*2 (10) -> c=b+1 (12) -> assert (13) must
	// be in; the unrelated lines (9, 11) out.
	for _, want := range []int32{8, 10, 12, 13} {
		if !got[want] {
			t.Errorf("slice missing line %d (got %v)", want, got)
		}
	}
	if got[9] {
		t.Errorf("slice wrongly includes 'unrelated = 42' (line 9)")
	}
	if got[11] {
		t.Errorf("slice wrongly includes the unrelated loop (line 11)")
	}
	if sl.Stats.Members <= 0 || sl.Stats.Members > sl.Stats.TraceLen {
		t.Errorf("bad stats: %+v", sl.Stats)
	}
}

func mustSlice(t *testing.T, prog *isa.Program, tr *tracer.Trace, opts slice.Options) *slice.Slice {
	t.Helper()
	s, err := slice.New(prog, tr, opts)
	if err != nil {
		t.Fatalf("slicer: %v", err)
	}
	// Criterion: the failing thread's last event (the assert).
	var critTid = -1
	var critIdx int64 = -1
	for tid, l := range tr.Locals {
		if len(l) == 0 {
			continue
		}
		last := l[len(l)-1]
		if last.Instr.Op == isa.ASSERT {
			critTid = tid
			critIdx = last.Idx
		}
	}
	if critTid < 0 {
		t.Fatal("no assert event in trace")
	}
	crit, _ := tr.RefOf(critTid, critIdx)
	sl, err := s.Slice(crit)
	if err != nil {
		t.Fatalf("slice: %v", err)
	}
	return sl
}

// TestPaperFigure5 reproduces the paper's worked example: an atomicity
// violation where one thread's write to a shared variable lands inside
// another thread's assumed-atomic region. The slice of the failing assert
// must capture the racing write — "the dynamic slice captures exactly the
// root cause of the concurrency bug".
func TestPaperFigure5(t *testing.T) {
	src := `
int x;
int y;
int z;
int t2func(int unused) {
	int j = y;
	int k = x + 1;
	yield();
	k = k + x;
	assert(k == 3);
	return k;
}
int main() {
	x = 1;
	z = 1;
	int t = spawn(t2func, 0);
	y = 7;
	yield();
	x = 0 - 1;
	join(t);
	return 0;
}`
	prog, _, tr := logAndTrace(t, src, nil, true)
	sl := mustSlice(t, prog, tr, slice.DefaultOptions())
	got := lines(prog, tr, sl)

	// Root cause: the racing write "x = 0 - 1" (line 19) in main.
	if !got[19] {
		t.Errorf("slice missed the racing write at line 19; lines: %v", got)
	}
	// The atomic region's reads (lines 6/8/9) feed the assert.
	for _, want := range []int32{7, 9, 10} {
		if !got[want] {
			t.Errorf("slice missing line %d; lines: %v", want, got)
		}
	}
	// "j = y" (line 6) is unrelated to k and must not be included.
	if got[6] {
		t.Errorf("slice wrongly includes unrelated 'j = y'")
	}

	// There must be at least one inter-thread data dependence edge.
	cross := false
	for _, d := range sl.Deps() {
		if d.From.Tid != d.To.Tid && d.Kind == slice.DepData {
			cross = true
		}
	}
	if !cross {
		t.Error("no inter-thread data dependence in slice")
	}
}

// TestPaperFigure7 reproduces the indirect-jump control-dependence
// experiment with the paper's exact shape (a jump-table dispatch with no
// guarding conditional): with the approximate static CFG the dynamic
// control dependence of the case body on the indirect jump is missed, so
// the slice lacks the dispatch and the switch variable; dynamic CFG
// refinement recovers both.
func TestPaperFigure7(t *testing.T) {
	// The switch lives in a function called once per input — the paper's
	// P(fin, d) with its fgetc-driven switch — so dynamic refinement
	// accumulates every jump-table target across calls. The criterion's
	// call executes the fall-through case, which is exactly the
	// configuration where the approximate CFG silently loses the control
	// dependence on the dispatch.
	src := `
.table tab case0 case1 case2
.func classify
	movi r4, $tab
	add r4, r4, r1
	load r4, [r4+0]
	jmpi r4              ; line 7: switch(c) dispatch
case0:
	addi r0, r2, 2       ; line 9: w = d + 2 (the paper's slice criterion case)
	ret
case1:
	addi r0, r2, -2
	ret
case2:
	add r0, r2, r2
	ret
.endfunc
.func main
	syscall r1, 1, rz
	syscall r2, 1, rz
	call classify
	syscall r1, 1, rz
	syscall r2, 1, rz
	call classify
	syscall r1, 1, rz    ; line 25: c = fgetc(fin)
	syscall r2, 1, rz    ; line 26: d
	call classify        ; line 27
	mov r3, r0
	movi r5, 9
	cmpeq r5, r3, r5
	assert r5            ; line 31: fails (w = 5)
	halt
.endfunc
`
	prog, err := asm.Assemble("fig7.s", src)
	if err != nil {
		t.Fatal(err)
	}
	_, tr := logAndTraceProg(t, prog, []int64{1, 3, 2, 3, 0, 3}, true)

	imprecise := mustSlice(t, prog, tr, slice.Options{
		MaxSave: 10, ControlDeps: true, DisableRefinement: true,
	})
	refined := mustSlice(t, prog, tr, slice.DefaultOptions())

	impLines := lines(prog, tr, imprecise)
	refLines := lines(prog, tr, refined)

	// Imprecise slice: case body (9) and d (26) present, but the
	// dispatch (7) and c (25) missing — the 6₁→4₁ control dependence of
	// the paper's third column is lost.
	if !impLines[9] || !impLines[26] {
		t.Errorf("imprecise slice should keep the data chain; got %v", impLines)
	}
	if impLines[7] || impLines[25] {
		t.Errorf("approximate-CFG slice should miss the dispatch (7) and c (25); got %v", impLines)
	}
	// Refined slice: both recovered (fourth column).
	if !refLines[7] || !refLines[25] {
		t.Errorf("refined slice must include the dispatch (7) and c (25); got %v", refLines)
	}
	if refined.Stats.CFGRefinements == 0 {
		t.Error("no CFG refinements recorded")
	}
	// Refinement only adds members.
	for _, m := range imprecise.Members {
		if !refined.Contains(m) {
			t.Errorf("imprecise member %+v missing from refined slice", m)
		}
	}
}

// TestPaperFigure8 reproduces the save/restore spurious-dependence
// experiment (§5.2, Figure 8/13): without pruning, the slice of a value
// held in a callee-saved register wrongly includes the predicate guarding
// an intervening call (and everything it depends on); with pruning the
// save/restore chain is bypassed.
func TestPaperFigure8(t *testing.T) {
	src := `
int sink;
int q(int n) {
	int a = 1;
	int b = 2;
	int c2 = 3;
	int d2 = 4;
	sink = a + b + c2 + d2 + n;
	return 0;
}
int p(int c, int d) {
	int e = d + d;
	if (c == 5) {
		q(0);
	}
	return e + 1;
}
int main() {
	int c = read();
	int w = p(c, 7);
	assert(w == 999);
	return 0;
}`
	prog, _, tr := logAndTrace(t, src, []int64{5}, true)

	unpruned := mustSlice(t, prog, tr, slice.Options{MaxSave: 10, ControlDeps: true})
	pruned := mustSlice(t, prog, tr, slice.DefaultOptions())

	upLines := lines(prog, tr, unpruned)
	prLines := lines(prog, tr, pruned)

	// Without pruning, the restore of e's register inside q drags in the
	// guard "if (c == 5)" (line 13) and c's read (line 19).
	if !upLines[13] || !upLines[19] {
		t.Errorf("unpruned slice should include the guard and read; got %v", upLines)
	}
	// With pruning they are gone, while the true chain (d -> e -> e+1 ->
	// w -> assert) stays.
	if prLines[13] || prLines[19] {
		t.Errorf("pruned slice still includes spurious lines: %v", prLines)
	}
	for _, want := range []int32{12, 16, 20, 21} {
		if !prLines[want] {
			t.Errorf("pruned slice missing line %d; got %v", want, prLines)
		}
	}
	if pruned.Stats.Members >= unpruned.Stats.Members {
		t.Errorf("pruning did not shrink the slice: %d vs %d",
			pruned.Stats.Members, unpruned.Stats.Members)
	}
	if pruned.Stats.PrunedBypasses == 0 || pruned.Stats.VerifiedPairs == 0 {
		t.Errorf("no pruning activity recorded: %+v", pruned.Stats)
	}
	// The pruned slice must be a subset of the unpruned one.
	for _, m := range pruned.Members {
		if !unpruned.Contains(m) {
			t.Errorf("pruned slice has member %+v missing from unpruned", m)
		}
	}
}

// TestSliceSoundnessBruteForce cross-checks the slicer against a
// brute-force transitive closure over explicitly recomputed def-use
// chains on a single-threaded run.
func TestSliceSoundnessBruteForce(t *testing.T) {
	prog, _, tr := logAndTrace(t, `
int a;
int b;
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 5; i++) {
		s = s + i;
	}
	a = s * 2;
	b = a - 30;
	assert(b == 999);
	return 0;
}`, nil, true)

	sl := mustSlice(t, prog, tr, slice.Options{MaxSave: 10, ControlDeps: false})

	// Brute force: walk backward keeping a want-set, no LP, no pruning.
	type loc = tracer.Loc
	want := map[loc]bool{}
	member := map[tracer.Ref]bool{}
	crit := sl.Criterion
	var buf [8]tracer.Loc
	for _, l := range tracer.Uses(tr.Entry(crit), buf[:0]) {
		want[l] = true
	}
	member[crit] = true
	start, _ := tr.GlobalPosOf(crit)
	for g := start - 1; g >= 0; g-- {
		ref := tr.Global[g]
		e := tr.Entry(ref)
		hit := false
		for _, l := range tracer.Defs(e, buf[:0]) {
			if want[l] {
				hit = true
			}
		}
		if !hit {
			continue
		}
		member[ref] = true
		for _, l := range tracer.Defs(e, buf[:0]) {
			delete(want, l)
		}
		for _, l := range tracer.Uses(e, buf[:0]) {
			want[l] = true
		}
	}

	if len(member) != sl.Stats.Members {
		t.Fatalf("slicer found %d members, brute force %d", sl.Stats.Members, len(member))
	}
	for _, m := range sl.Members {
		if !member[m] {
			t.Errorf("slicer member %+v not in brute-force slice", m)
		}
	}
}

func TestSliceFileRoundTrip(t *testing.T) {
	prog, _, tr := logAndTrace(t, `
int a;
int main() {
	a = read();
	assert(a == 0);
	return 0;
}`, []int64{7}, true)
	sl := mustSlice(t, prog, tr, slice.DefaultOptions())
	ex := slice.BuildExclusions(tr, sl)
	f := slice.ToFile(prog, tr, sl, ex)

	path := filepath.Join(t.TempDir(), "s.slice")
	if err := f.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := slice.LoadFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(got.Members) != len(f.Members) || len(got.Exclusions) != len(f.Exclusions) {
		t.Error("round trip lost data")
	}

	resolved, err := got.Resolve(tr)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if len(resolved.Members) != len(sl.Members) {
		t.Error("resolve changed member count")
	}
	for i := range resolved.Members {
		if resolved.Members[i] != sl.Members[i] {
			t.Errorf("member %d differs after round trip", i)
		}
	}

	var buf bytes.Buffer
	if err := got.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"dynamic slice", "[statements]", "[dependences]", "[exclusion regions]", "t.c:4"} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}
}

func TestCriterionHelpers(t *testing.T) {
	prog, _, tr := logAndTrace(t, `
int v;
int main() {
	v = 5;
	v = v + 1;
	write(v);
	return 0;
}`, nil, false)
	sym := prog.SymbolByName("v")
	if sym == nil {
		t.Fatal("no symbol v")
	}
	ref, err := slice.LastReadOf(tr, sym.Addr)
	if err != nil {
		t.Fatalf("LastReadOf: %v", err)
	}
	if e := tr.Entry(ref); e.EffAddr != sym.Addr || e.MemIsWrite {
		t.Errorf("LastReadOf returned wrong entry: %+v", e)
	}
	if _, err := slice.LastReadOf(tr, 99999); err == nil {
		t.Error("LastReadOf of untouched address should fail")
	}
	if _, err := slice.LastEventOf(tr, 0); err != nil {
		t.Errorf("LastEventOf: %v", err)
	}
	if _, err := slice.LastEventOf(tr, 42); err == nil {
		t.Error("LastEventOf of missing thread should fail")
	}
	if _, err := slice.EventAtLine(tr, prog, 0, 5, 1); err != nil {
		t.Errorf("EventAtLine: %v", err)
	}
	if _, err := slice.EventAtLine(tr, prog, 0, 5, 99); err == nil {
		t.Error("EventAtLine with too-high instance should fail")
	}
	reads := slice.LastReadsInRegion(tr, 3)
	if len(reads) == 0 {
		t.Error("LastReadsInRegion found nothing")
	}
}

// TestExecutionSliceEndToEnd drives the full §4 pipeline: slice ->
// exclusion regions -> relog -> slice pinball -> replay, checking that
// the slice replay executes fewer instructions and that the values at the
// slice criterion match the full replay.
func TestExecutionSliceEndToEnd(t *testing.T) {
	src := `
int x;
int garbage;
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
	for (i = 0; i < 200; i++) { garbage = garbage + i; }
	int t = spawn(t2func, 0);
	yield();
	x = 0 - 1;
	join(t);
	return 0;
}`
	prog, pb, tr := logAndTrace(t, src, nil, true)
	sl := mustSlice(t, prog, tr, slice.DefaultOptions())
	ex := slice.BuildExclusions(tr, sl)
	if len(ex) == 0 {
		t.Fatal("no exclusion regions built")
	}

	spb, err := pinplay.Relog(prog, pb, ex)
	if err != nil {
		t.Fatalf("relog: %v", err)
	}
	if spb.RegionInstrs >= pb.RegionInstrs {
		t.Errorf("slice pinball not smaller: %d vs %d", spb.RegionInstrs, pb.RegionInstrs)
	}
	t.Logf("region %d instrs -> slice pinball %d instrs (%.1f%%)",
		pb.RegionInstrs, spb.RegionInstrs, 100*float64(spb.RegionInstrs)/float64(pb.RegionInstrs))

	// Replay the slice pinball, watching the criterion thread.
	watch := &critWatcher{prog: prog}
	m, err := pinplay.Replay(prog, spb, watch)
	if err != nil {
		t.Fatalf("slice replay: %v", err)
	}
	if m.Stopped() != vm.StopFailure {
		t.Errorf("slice replay should reach the assert failure, got %v", m.Stopped())
	}
	// The failing assert must have observed the same register value (0 =
	// condition false) and the same pc as in the full replay.
	if watch.assertPC < 0 {
		t.Fatal("slice replay never executed the assert")
	}
	if watch.assertPC != pb.Failure.PC {
		t.Errorf("assert at pc %d, logged failure at pc %d", watch.assertPC, pb.Failure.PC)
	}

	// Determinism of slice replay.
	m2, err := pinplay.Replay(prog, spb, nil)
	if err != nil {
		t.Fatalf("second slice replay: %v", err)
	}
	if !m.Snapshot().Mem.Equal(m2.Snapshot().Mem) {
		t.Error("slice replays disagree")
	}
}

type critWatcher struct {
	vm.NopTracer
	prog     *isa.Program
	assertPC int64
}

func (c *critWatcher) OnInstr(ev *vm.InstrEvent) {
	if ev.Instr.Op == isa.ASSERT {
		c.assertPC = ev.PC
	}
}

func init() {
	// Guard against accidental zero-value: critWatcher.assertPC must
	// distinguish "never saw assert" from pc 0.
}

func TestExclusionsKeepThreadLifecycle(t *testing.T) {
	prog, _, tr := logAndTrace(t, `
int x;
int child(int v) { x = v; return 0; }
int main() {
	int t = spawn(child, 3);
	join(t);
	assert(x == 99);
	return 0;
}`, nil, true)
	sl := mustSlice(t, prog, tr, slice.DefaultOptions())
	ex := slice.BuildExclusions(tr, sl)

	excluded := func(tid int, idx int64) bool {
		for _, e := range ex {
			if e.Tid == tid && idx >= e.FromIdx && idx < e.ToIdx {
				return true
			}
		}
		return false
	}
	for tid, l := range tr.Locals {
		for pos := range l {
			e := &l[pos]
			idx := e.Idx
			if e.Instr.Op == isa.SPAWN || e.Instr.Op == isa.JOIN {
				if excluded(tid, idx) {
					t.Errorf("lifecycle instruction %v excluded", e.Instr.Op)
				}
			}
			if e.Instr.Op == isa.RET && e.NextPC == -1 && excluded(tid, idx) {
				t.Error("thread-exit RET excluded")
			}
		}
	}
}

func TestLPSkipsBlocks(t *testing.T) {
	// The wanted location (a's cell) is defined before a long unrelated
	// stretch, so the backward traversal must skip those blocks via the
	// LP summaries instead of scanning them.
	prog, _, tr := logAndTrace(t, `
int noise;
int a;
int main() {
	int i;
	a = 5;
	for (i = 0; i < 30000; i++) { noise = noise + i; }
	assert(a == 6);
	return 0;
}`, nil, true)
	s, err := slice.New(prog, tr, slice.Options{MaxSave: 10, ControlDeps: false, LPBlock: 1024})
	if err != nil {
		t.Fatal(err)
	}
	crit, err := slice.LastEventOf(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := s.Slice(crit)
	if err != nil {
		t.Fatal(err)
	}
	if sl.Stats.LPBlocksSkip == 0 {
		t.Errorf("LP skipped no blocks: %+v", sl.Stats)
	}
	if sl.Stats.LPBlocksSkip < sl.Stats.LPBlocksVisit {
		t.Errorf("expected mostly-skipped traversal: %+v", sl.Stats)
	}
}

func TestWriteHTMLReport(t *testing.T) {
	src := `
int a;
int main() {
	a = read();
	int b = a * 2;
	assert(b == 0);
	return 0;
}`
	prog, _, tr := logAndTrace(t, src, []int64{5}, true)
	sl := mustSlice(t, prog, tr, slice.DefaultOptions())
	f := slice.ToFile(prog, tr, sl, slice.BuildExclusions(tr, sl))

	// With source: highlighted listing.
	var buf bytes.Buffer
	if err := f.WriteHTML(&buf, map[string]string{"t.c": src}); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	for _, want := range []string{
		"Dynamic slice", "class=\"hit\"", "a = read()", "Dependences",
		"Exclusion regions", "save/restore",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("html missing %q", want)
		}
	}
	// The unrelated line "return 0;" must not be highlighted: find its
	// row and check it has no hit class.
	for _, line := range strings.Split(html, "\n") {
		if strings.Contains(line, "return 0;") && strings.Contains(line, "class=\"hit\"") {
			t.Errorf("non-slice line highlighted: %s", line)
		}
	}

	// Without source: statement-table fallback still renders.
	buf.Reset()
	if err := f.WriteHTML(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "executions") {
		t.Error("fallback table missing")
	}
}

// TestExecutionSliceWithCondVars drives the §4 pipeline over a program
// using wait/signal: the synchronisation instructions are kept out of
// exclusions, and the slice pinball replays to the recorded failure.
func TestExecutionSliceWithCondVars(t *testing.T) {
	src := `
int mtx;
int cv;
int ready;
int data;
int garbage;
int consumer(int u) {
	lock(&mtx);
	while (!ready) {
		wait(&cv, &mtx);
	}
	int v = data;
	unlock(&mtx);
	assert(v == 42);
	return 0;
}
int main() {
	int i;
	int t = spawn(consumer, 0);
	for (i = 0; i < 100; i++) { garbage = garbage + i; }
	lock(&mtx);
	data = 41;
	ready = 1;
	signal(&cv);
	unlock(&mtx);
	join(t);
	return 0;
}`
	prog, pb, tr := logAndTrace(t, src, nil, true)
	sl := mustSlice(t, prog, tr, slice.DefaultOptions())
	got := lines(prog, tr, sl)
	// The slice must contain the producer's data write (line 22) and the
	// consumer's read (line 12); the garbage loop (line 20) must not be in.
	if !got[22] || !got[12] {
		t.Errorf("slice missing producer/consumer chain; lines: %v", got)
	}
	if got[20] {
		t.Errorf("slice includes the garbage loop; lines: %v", got)
	}

	ex := slice.BuildExclusions(tr, sl)
	for _, e := range ex {
		for idx := e.FromIdx; idx < e.ToIdx; idx++ {
			if ref, ok := tr.RefOf(e.Tid, idx); ok {
				op := tr.Entry(ref).Instr.Op
				if op == isa.WAIT || op == isa.SIGNAL {
					t.Fatalf("synchronisation op %v excluded", op)
				}
			}
		}
	}
	spb, err := pinplay.Relog(prog, pb, ex)
	if err != nil {
		t.Fatalf("relog: %v", err)
	}
	m, err := pinplay.Replay(prog, spb, nil)
	if err != nil {
		t.Fatalf("slice replay: %v", err)
	}
	if m.Stopped() != vm.StopFailure {
		t.Errorf("slice replay stop = %v, want failure", m.Stopped())
	}
}

func TestNavigator(t *testing.T) {
	prog, _, tr := logAndTrace(t, `
int a;
int b;
int main() {
	a = 3;
	b = a * 2;
	assert(b == 7);
	return 0;
}`, nil, true)
	sl := mustSlice(t, prog, tr, slice.DefaultOptions())
	nav := slice.NewNavigator(tr, sl)

	crit := nav.Criterion()
	deps := nav.DependsOn(crit)
	if len(deps) == 0 {
		t.Fatal("criterion has no dependences")
	}
	// Walking DependsOn from the criterion must stay within the slice and
	// reach the definition of a (line 5) within a few hops.
	seenA := false
	frontier := []tracer.Ref{crit}
	for hop := 0; hop < 12 && !seenA; hop++ {
		var next []tracer.Ref
		for _, r := range frontier {
			for _, d := range nav.DependsOn(r) {
				if !sl.Contains(d.To) {
					t.Fatalf("dependence target %+v outside slice", d.To)
				}
				if tr.Entry(d.To).Instr.Line == 5 {
					seenA = true
				}
				next = append(next, d.To)
			}
		}
		frontier = next
	}
	if !seenA {
		t.Error("backward navigation never reached 'a = 3'")
	}

	// Forward navigation: the definition of a has dependents.
	var aRef tracer.Ref
	for _, m := range sl.Members {
		if e := tr.Entry(m); e.Instr.Line == 5 && e.MemIsWrite {
			aRef = m
		}
	}
	if len(nav.Dependents(aRef)) == 0 {
		t.Error("store to a has no dependents")
	}

	// ResolveMember accepts members and rejects non-members.
	if _, err := nav.ResolveMember(int(crit.Tid), tr.Entry(crit).Idx); err != nil {
		t.Errorf("ResolveMember on criterion: %v", err)
	}
	if _, err := nav.ResolveMember(42, 0); err == nil {
		t.Error("bogus member accepted")
	}

	var buf bytes.Buffer
	nav.WriteChain(&buf, prog, crit, 5)
	if !strings.Contains(buf.String(), "<- data") {
		t.Errorf("chain output missing data hops:\n%s", buf.String())
	}
}
