package core_test

import (
	"bytes"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/tracer"
	"repro/internal/vm"
)

// ringDiffSrc keeps two slice criteria live: "counter" accumulates across
// the whole region (its backward slice reaches into the oldest — evicted —
// windows), while "flag" is assigned a constant just before the region
// end (its slice stays inside the always-retained final window).
const ringDiffSrc = `
int counter;
int mtx;
int flag;
int worker(int id) {
	int i;
	for (i = 0; i < 60; i++) {
		lock(&mtx);
		counter = counter + 1;
		unlock(&mtx);
	}
	return 0;
}
int main() {
	int t1 = spawn(worker, 1);
	worker(0);
	join(t1);
	flag = 7;
	write(counter);
	write(flag);
	return 0;
}`

func ringDiffProg(t *testing.T) *isa.Program {
	t.Helper()
	prog, err := cc.CompileSource("ringdiff.c", ringDiffSrc)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func ringDiffConfig() pinplay.LogConfig {
	return pinplay.LogConfig{Seed: 9, MeanQuantum: 17, RandSeed: 3}
}

// ringDiffSessions records the same execution twice — once in full, once
// in flight-recorder mode with a budget tight enough to evict windows —
// and opens a session on each.
func ringDiffSessions(t *testing.T) (full, ring *core.Session) {
	t.Helper()
	prog := ringDiffProg(t)

	fullPB, err := pinplay.Log(prog, ringDiffConfig(), pinplay.RegionSpec{})
	if err != nil {
		t.Fatalf("full log: %v", err)
	}
	ringCfg := ringDiffConfig()
	ringCfg.RingBytes = 400
	ringCfg.JournalEvery = 200
	ringPB, err := pinplay.Log(prog, ringCfg, pinplay.RegionSpec{})
	if err != nil {
		t.Fatalf("ring log: %v", err)
	}
	if !ringPB.Gapped() {
		t.Fatalf("ring budget evicted nothing (region %d instructions)", ringPB.RegionInstrs)
	}
	if ringPB.RegionInstrs != fullPB.RegionInstrs {
		t.Fatalf("ring region %d != full region %d", ringPB.RegionInstrs, fullPB.RegionInstrs)
	}
	return core.Open(prog, fullPB), core.Open(prog, ringPB)
}

// sliceKey projects a slice onto replay-stable coordinates (per-thread
// dynamic indices) so slices from two different sessions compare.
type sliceKey struct {
	members [][2]int64
	deps    [][5]int64
}

func keyOf(tr *tracer.Trace, sl *slice.Slice) sliceKey {
	var k sliceKey
	for _, m := range sl.Members {
		e := tr.Entry(m)
		k.members = append(k.members, [2]int64{int64(m.Tid), e.Idx})
	}
	for _, d := range sl.Deps() {
		fe, te := tr.Entry(d.From), tr.Entry(d.To)
		k.deps = append(k.deps, [5]int64{int64(d.From.Tid), fe.Idx, int64(d.To.Tid), te.Idx, int64(d.Kind)})
	}
	return k
}

func equalKeys(a, b sliceKey) bool {
	if len(a.members) != len(b.members) || len(a.deps) != len(b.deps) {
		return false
	}
	for i := range a.members {
		if a.members[i] != b.members[i] {
			return false
		}
	}
	for i := range a.deps {
		if a.deps[i] != b.deps[i] {
			return false
		}
	}
	return true
}

// TestRingSliceDifferential is the flight-recorder correctness property:
// slicing a ring pinball goes through gap-bridging replay, and the
// resulting slices are bit-identical (members, dependence edges, digest)
// to slices of the full recording of the same execution. A slice that
// stays inside retained windows is all-exact; a slice whose closure
// crosses evicted windows carries a provenance tag on every non-exact
// edge, exactly matching a recomputation from the trace's gap spans.
func TestRingSliceDifferential(t *testing.T) {
	full, ring := ringDiffSessions(t)

	for _, tc := range []struct {
		variable  string
		wantExact bool
	}{
		{"counter", false}, // closure reaches the evicted oldest windows
		{"flag", true},     // closure stays inside the retained tail
	} {
		slFull, err := full.SliceForVariable(tc.variable)
		if err != nil {
			t.Fatalf("full slice %s: %v", tc.variable, err)
		}
		slRing, err := ring.SliceForVariable(tc.variable)
		if err != nil {
			t.Fatalf("ring slice %s: %v", tc.variable, err)
		}

		// Bit-identical content, gap or no gap.
		trFull, _ := full.Trace()
		trRing, _ := ring.Trace()
		if trFull.Len() != trRing.Len() {
			t.Fatalf("%s: bridged trace length %d != full %d", tc.variable, trRing.Len(), trFull.Len())
		}
		if !equalKeys(keyOf(trFull, slFull), keyOf(trRing, slRing)) {
			t.Errorf("%s: ring slice differs from full-trace slice", tc.variable)
		}
		if df, dr := slice.Summarize(slFull).Digest, slice.Summarize(slRing).Digest; df != dr {
			t.Errorf("%s: ring digest %s != full digest %s", tc.variable, dr, df)
		}

		// Provenance: the ring slice is annotated (its trace has gaps),
		// the full slice is not.
		if slFull.Prov != nil {
			t.Errorf("%s: full-trace slice unexpectedly annotated", tc.variable)
		}
		if slRing.Prov == nil {
			t.Fatalf("%s: ring slice not annotated", tc.variable)
		}
		if got := slRing.Prov.Exact(); got != tc.wantExact {
			t.Errorf("%s: provenance exact = %v, want %v (%s)", tc.variable, got, tc.wantExact, slRing.Prov)
		}
		if slRing.Prov.Degraded() {
			t.Errorf("%s: clean bridge reported estimated content: %s", tc.variable, slRing.Prov)
		}

		// Every edge's tag matches an independent recomputation from the
		// trace's gap spans: worst provenance of the two endpoints.
		var bridged int
		for _, d := range slRing.Deps() {
			want := trRing.ProvenanceOf(d.From)
			if p := trRing.ProvenanceOf(d.To); p > want {
				want = p
			}
			if d.Provenance != want {
				t.Fatalf("%s: edge tagged %s, recomputed %s", tc.variable, d.Provenance, want)
			}
			if d.Provenance != tracer.ProvExact && d.Confidence != d.Provenance.Confidence() {
				t.Fatalf("%s: edge confidence %v, want %v", tc.variable, d.Confidence, d.Provenance.Confidence())
			}
			if d.Provenance == tracer.ProvBridged {
				bridged++
			}
		}
		if !tc.wantExact && bridged == 0 {
			t.Errorf("%s: gap-crossing slice has no bridged edges", tc.variable)
		}
	}
}

// TestRingSliceDeterministic pins byte-determinism end to end: recording
// the same execution in ring mode twice yields byte-identical pinballs,
// and slicing the ring pinball in fresh sessions whose engines are built
// at several worker counts yields the sequential oracle's digest and
// provenance summary every time.
func TestRingSliceDeterministic(t *testing.T) {
	prog := ringDiffProg(t)
	cfg := ringDiffConfig()
	cfg.RingBytes = 400
	cfg.JournalEvery = 200

	pb1, err := pinplay.Log(prog, cfg, pinplay.RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	pb2, err := pinplay.Log(prog, cfg, pinplay.RegionSpec{})
	if err != nil {
		t.Fatalf("relog: %v", err)
	}
	b1, err1 := pb1.EncodeBytes()
	b2, err2 := pb2.EncodeBytes()
	if err1 != nil || err2 != nil {
		t.Fatalf("encode: %v / %v", err1, err2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("two ring recordings of the same execution differ byte-for-byte")
	}

	// The reference is the sequential oracle over its own bridged replay.
	oracle, err := oracleSlicer(prog, pb1, vm.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	crit, err := slice.LastReadOf(oracle.Trace, prog.SymbolByName("counter").Addr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Slice(crit)
	if err != nil {
		t.Fatal(err)
	}
	slice.AnnotateProvenance(oracle.Trace, want)
	if want.Prov == nil {
		t.Fatal("oracle slice of the ring pinball not annotated")
	}
	wantDigest, wantProv := slice.Summarize(want).Digest, *want.Prov

	defer slice.ResetEngineCache()
	for _, workers := range []int{0, 1, 4, 7} {
		slice.ResetEngineCache() // each worker count builds its own engine
		sess := core.Open(prog, pb1)
		sess.SetParallelWorkers(workers)
		sl, err := sess.SliceForVariable("counter")
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sl.Prov == nil {
			t.Fatalf("workers=%d: slice not annotated", workers)
		}
		if digest := slice.Summarize(sl).Digest; digest != wantDigest {
			t.Errorf("workers=%d: digest %s, want %s", workers, digest, wantDigest)
		}
		if *sl.Prov != wantProv {
			t.Errorf("workers=%d: provenance %+v, want %+v", workers, *sl.Prov, wantProv)
		}
	}
}

// stepRecorder numbers every replayed instruction with its global region
// step, per thread in program order: the per-instruction step column that
// the trace's run-length step table replaces.
type stepRecorder struct {
	vm.NopTracer
	n     int64
	steps map[int][]int64
}

func (r *stepRecorder) OnInstr(ev *vm.InstrEvent) {
	r.n++
	r.steps[ev.Tid] = append(r.steps[ev.Tid], r.n)
}

// TestRingStepTableMatchesPerInstructionSteps: on a gapped ring trace,
// StepOf and ProvenanceOf agree for every entry with the per-instruction
// step numbering and a linear scan of the gap spans.
func TestRingStepTableMatchesPerInstructionSteps(t *testing.T) {
	_, ring := ringDiffSessions(t)
	tr, err := ring.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Gaps) == 0 {
		t.Fatal("ring trace carries no gap spans")
	}
	rec := &stepRecorder{steps: map[int][]int64{}}
	if _, err := ring.Replay(rec); err != nil {
		t.Fatal(err)
	}

	counts := map[tracer.Provenance]int{}
	for tid, l := range tr.Locals {
		if len(rec.steps[tid]) != len(l) {
			t.Fatalf("thread %d: %d recorded steps, %d trace entries", tid, len(rec.steps[tid]), len(l))
		}
		for pos := range l {
			ref := tracer.Ref{Tid: int32(tid), Pos: int32(pos)}
			step := rec.steps[tid][pos]
			if got := tr.StepOf(ref); got != step {
				t.Fatalf("StepOf(%+v) = %d, want %d", ref, got, step)
			}
			want := tracer.ProvExact
			for _, g := range tr.Gaps {
				if g.From < step && step <= g.To {
					want = tracer.ProvBridged
					if g.Estimated {
						want = tracer.ProvEstimated
					}
				}
			}
			if got := tr.ProvenanceOf(ref); got != want {
				t.Fatalf("ProvenanceOf(%+v) at step %d = %s, want %s", ref, step, got, want)
			}
			counts[want]++
		}
	}
	if counts[tracer.ProvExact] == 0 || counts[tracer.ProvBridged] == 0 {
		t.Fatalf("provenance mix %v does not cover both exact and bridged entries", counts)
	}
}
