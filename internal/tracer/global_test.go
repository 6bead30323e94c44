package tracer_test

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/progfuzz"
	"repro/internal/tracer"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// referenceGlobal is the original map-based merge, kept as the oracle
// for BuildGlobal: per-target predecessor map, per-thread cursor map, and
// one readiness probe per entry. Same emission rule — lowest tid first,
// cluster while ready — so its order must match BuildGlobal exactly.
func referenceGlobal(t *tracer.Trace) ([]tracer.Ref, map[tracer.Ref]int, error) {
	type Ref = tracer.Ref
	preds := make(map[Ref][]Ref, len(t.Edges))
	for _, e := range t.Edges {
		fr, ok1 := t.RefOf(e.FromTid, e.FromIdx)
		to, ok2 := t.RefOf(e.ToTid, e.ToIdx)
		if !ok1 || !ok2 {
			continue
		}
		preds[to] = append(preds[to], fr)
	}
	for child, sp := range t.SpawnEvent {
		if first, ok := t.RefOf(child, t.FirstIdx[child]); ok {
			preds[first] = append(preds[first], sp)
		}
	}
	for tid, l := range t.Locals {
		for pos := range l {
			if e := &l[pos]; e.Instr.Op == isa.JOIN {
				child := int(e.Aux)
				if cl := t.Locals[child]; len(cl) > 0 {
					at := Ref{Tid: int32(tid), Pos: int32(pos)}
					preds[at] = append(preds[at], Ref{Tid: int32(child), Pos: int32(len(cl) - 1)})
				}
			}
		}
	}

	tids := make([]int, 0, len(t.Locals))
	total := 0
	for tid, l := range t.Locals {
		tids = append(tids, tid)
		total += len(l)
	}
	sort.Ints(tids)

	cursor := make(map[int]int, len(tids))
	emitted := func(r Ref) bool { return int(r.Pos) < cursor[int(r.Tid)] }
	ready := func(tid int) bool {
		pos := cursor[tid]
		if pos >= len(t.Locals[tid]) {
			return false
		}
		for _, p := range preds[Ref{Tid: int32(tid), Pos: int32(pos)}] {
			if !emitted(p) {
				return false
			}
		}
		return true
	}

	global := make([]Ref, 0, total)
	gpos := make(map[Ref]int, total)
	for len(global) < total {
		progress := false
		for _, tid := range tids {
			for ready(tid) {
				r := Ref{Tid: int32(tid), Pos: int32(cursor[tid])}
				gpos[r] = len(global)
				global = append(global, r)
				cursor[tid]++
				progress = true
			}
		}
		if !progress {
			return global, nil, fmt.Errorf("cycle (%d of %d emitted)", len(global), total)
		}
	}
	return global, gpos, nil
}

// checkAgainstReference requires BuildGlobal's Global and GlobalPosOf to
// match the reference merge entry for entry.
func checkAgainstReference(t *testing.T, tr *tracer.Trace) {
	t.Helper()
	want, wantPos, err := referenceGlobal(tr)
	if err != nil {
		t.Fatalf("reference merge: %v", err)
	}
	if err := tr.BuildGlobal(); err != nil {
		t.Fatalf("BuildGlobal: %v", err)
	}
	if len(tr.Global) != len(want) {
		t.Fatalf("global trace has %d entries, reference %d", len(tr.Global), len(want))
	}
	for g := range want {
		if tr.Global[g] != want[g] {
			t.Fatalf("global trace differs from the reference first at %d", g)
		}
	}
	for ref, g := range wantPos {
		if got, ok := tr.GlobalPosOf(ref); !ok || got != g {
			t.Fatalf("GlobalPosOf(%+v) = %d,%v; reference %d", ref, got, ok, g)
		}
	}
}

// replayTrace collects the trace of a pinball's region with the given
// collector (no global merge).
func replayTrace(t testing.TB, prog *isa.Program, pb *pinball.Pinball, col *tracer.Collector) *tracer.Trace {
	t.Helper()
	if _, err := pinplay.Replay(prog, pb, col); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return col.Trace()
}

// TestBuildGlobalMatchesReferenceCorpus runs the differential over the
// committed progfuzz corpus (fine-grained schedules, many order edges).
func TestBuildGlobalMatchesReferenceCorpus(t *testing.T) {
	for _, seed := range progfuzz.CorpusSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(fmt.Sprintf("../progfuzz/corpus/seed-%d.c", seed))
			if err != nil {
				t.Fatalf("corpus file: %v", err)
			}
			prog, err := cc.CompileSource(fmt.Sprintf("seed-%d.c", seed), string(src))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			pb, err := pinplay.Log(prog, pinplay.LogConfig{Seed: seed, MeanQuantum: 5}, pinplay.RegionSpec{})
			if err != nil {
				t.Fatalf("log: %v", err)
			}
			checkAgainstReference(t, replayTrace(t, prog, pb, tracer.NewRegionCollector(pb.Quanta)))
		})
	}
}

// TestBuildGlobalMatchesReferenceWorkloads runs the differential over
// every registered workload, recorded whole at its default thread count.
func TestBuildGlobalMatchesReferenceWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := w.Program()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			pb, err := pinplay.Log(prog, pinplay.LogConfig{
				Seed: 1, MeanQuantum: 50, RandSeed: 1,
				Input:    w.Input(w.DefaultThreads, 12),
				MaxSteps: 50_000_000,
			}, pinplay.RegionSpec{})
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			tr, err := core.Open(prog, pb).Trace()
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			checkAgainstReference(t, tr)
		})
	}
}

// TestCollectorSizeHintIsOnlyCapacity: a schedule that under-, over- or
// mis-states the per-thread counts, or claims a size no replay could
// fill, must still yield the same trace as an unsized collector — the
// hint only sets starting capacities.
func TestCollectorSizeHintIsOnlyCapacity(t *testing.T) {
	prog, err := cc.CompileSource("t.c", twoThreadSrc)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := pinplay.Log(prog, pinplay.LogConfig{Seed: 4, MeanQuantum: 7}, pinplay.RegionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	want := replayTrace(t, prog, pb, tracer.NewCollector())
	for name, hint := range map[string][]vm.Quantum{
		"exact":  pb.Quanta,
		"none":   nil,
		"short":  {{Tid: 0, Count: 3}},
		"long":   {{Tid: 0, Count: 100_000}, {Tid: 1, Count: 100_000}, {Tid: 5, Count: 10}},
		"swap":   {{Tid: 1, Count: pb.TotalQuantumInstrs()}},
		"huge":   {{Tid: 0, Count: 1 << 40}},
		"badtid": {{Tid: -1, Count: 5}, {Tid: vm.MaxThreads, Count: 5}},
	} {
		got := replayTrace(t, prog, pb, tracer.NewRegionCollector(hint))
		if !reflect.DeepEqual(got.Locals, want.Locals) || !reflect.DeepEqual(got.FirstIdx, want.FirstIdx) ||
			!reflect.DeepEqual(got.Steps, want.Steps) || !reflect.DeepEqual(got.SpawnEvent, want.SpawnEvent) ||
			!reflect.DeepEqual(got.Edges, want.Edges) {
			t.Errorf("%s size hint changed the collected trace", name)
		}
	}
}

// BenchmarkCollect measures trace collection over a replayed region: the
// replay plus the collector's per-instruction work.
func BenchmarkCollect(b *testing.B) {
	prog, pb := benchRegion(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayTrace(b, prog, pb, tracer.NewRegionCollector(pb.Quanta))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pb.TotalQuantumInstrs()), "ns/instr")
}

// BenchmarkBuildGlobal measures the §3(ii) merge alone on a collected
// trace.
func BenchmarkBuildGlobal(b *testing.B) {
	prog, pb := benchRegion(b)
	tr := replayTrace(b, prog, pb, tracer.NewRegionCollector(pb.Quanta))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.BuildGlobal(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/instr")
}

// benchRegion records a 50k-main-instruction region of a four-thread
// PARSEC-like kernel.
func benchRegion(b *testing.B) (*isa.Program, *pinball.Pinball) {
	b.Helper()
	w, err := workloads.ByName("dedup")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	pb, err := pinplay.Log(prog, pinplay.LogConfig{Seed: 1, Input: w.Input(4, 1<<40)},
		pinplay.RegionSpec{SkipMain: 1000, LengthMain: 50_000})
	if err != nil {
		b.Fatal(err)
	}
	return prog, pb
}
