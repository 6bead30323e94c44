package core_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/vm"
)

// sameNameSrcs are two programs compiled under one name whose code
// differs in a single load: x is copied from a in the first and from b
// in the second, with the same value and so the same output. Their
// checkpoint-less pinballs share a pinball.ID.
var sameNameSrcs = [2]string{
	"int a;\nint b;\nint x;\nint main() { a = 1; b = 1; x = a; write(x); return 0; }\n",
	"int a;\nint b;\nint x;\nint main() { a = 1; b = 1; x = b; write(x); return 0; }\n",
}

// sliceOutcome is what a slice request answers: the digest, the length
// of the trace it was cut from, and the provenance summary for
// flight-recorder sessions.
type sliceOutcome struct {
	digest   string
	traceLen int
	prov     *slice.ProvSummary
}

func outcomeOf(sl *slice.Slice) sliceOutcome {
	return sliceOutcome{digest: slice.Summarize(sl).Digest, traceLen: sl.Stats.TraceLen, prov: sl.Prov}
}

func sliceVar(t *testing.T, s *core.Session, name string) sliceOutcome {
	t.Helper()
	sl, err := s.SliceForVariable(name)
	if err != nil {
		t.Fatalf("slice %s: %v", name, err)
	}
	return outcomeOf(sl)
}

// oracleSlicer is the sequential reference slicer over a trace of its
// own replay of pb under limits, never one from the engine cache. A
// flight-recorder pinball is bridged first and its trace carries the
// gap overlay, as a session's does.
func oracleSlicer(prog *isa.Program, pb *pinball.Pinball, limits vm.Limits) (*slice.Slicer, error) {
	eff, brep, err := pinplay.BridgePinball(prog, pb, pinplay.ReplayOptions{Limits: limits})
	if err != nil {
		return nil, err
	}
	tr, err := pinplay.CollectTrace(prog, eff, limits)
	if err != nil {
		return nil, err
	}
	if pb.Gapped() {
		tr.SetGaps(brep.GapSpans(pb))
	}
	return slice.New(prog, tr, slice.DefaultOptions())
}

// oracleDigest is the reference answer to sliceVar: the oracle's slice
// of the last read of the named global.
func oracleDigest(t *testing.T, prog *isa.Program, pb *pinball.Pinball, name string) string {
	t.Helper()
	s, err := oracleSlicer(prog, pb, vm.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	crit, err := slice.LastReadOf(s.Trace, prog.SymbolByName(name).Addr)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := s.Slice(crit)
	if err != nil {
		t.Fatal(err)
	}
	return slice.Summarize(sl).Digest
}

// TestEngineCacheTellsSameNamedProgramsApart slices two programs that
// share a name and a pinball.ID in turn through the column engine.
// Each answer must be its own program's sequential slice, not the
// engine cached for the other program.
func TestEngineCacheTellsSameNamedProgramsApart(t *testing.T) {
	slice.ResetEngineCache()
	defer slice.ResetEngineCache()

	var ids []string
	for i, src := range sameNameSrcs {
		prog, err := cc.CompileSource("p.c", src)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := pinplay.Log(prog, pinplay.LogConfig{CheckpointEvery: -1}, pinplay.RegionSpec{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, pb.ID())
		par := core.Open(prog, pb)
		par.SetParallelWorkers(1)
		got := sliceVar(t, par, "x")
		if want := oracleDigest(t, prog, pb, "x"); got.digest != want {
			t.Errorf("program %d: engine slice %s, sequential %s", i, got.digest, want)
		}
	}
	if ids[0] != ids[1] {
		t.Errorf("pinball ids differ (%s, %s): the programs no longer test a shared ID", ids[0], ids[1])
	}
}

// TestWarmSessionReplaysNothing opens a second session on a recording
// whose engine is resident: under a one-instruction budget it must still
// answer every slice identically, because it adopts the engine's trace
// instead of replaying. With the cache emptied, the same budget fails.
func TestWarmSessionReplaysNothing(t *testing.T) {
	slice.ResetEngineCache()
	defer slice.ResetEngineCache()
	full, _ := ringDiffSessions(t)
	prog, pb := full.Prog, full.Pinball

	full.SetParallelWorkers(2)
	want := []sliceOutcome{sliceVar(t, full, "counter"), sliceVar(t, full, "flag")}
	before := slice.GetEngineCacheStats()

	warm := core.Open(prog, pb)
	warm.SetParallelWorkers(2)
	warm.SetLimits(vm.Limits{Steps: 1})
	got := []sliceOutcome{sliceVar(t, warm, "counter"), sliceVar(t, warm, "flag")}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warm session answered %+v, want %+v", got, want)
	}
	eng, err := warm.ParallelSlicer()
	if err != nil {
		t.Fatal(err)
	}
	if tr, _ := warm.Trace(); tr != eng.Trace {
		t.Error("warm session's trace is not the cached engine's")
	}
	after := slice.GetEngineCacheStats()
	if after.Hits-before.Hits != 1 || after.Misses != before.Misses {
		t.Errorf("warm session counted %d hits and %d misses, want 1 and 0",
			after.Hits-before.Hits, after.Misses-before.Misses)
	}

	slice.ResetEngineCache()
	cold := core.Open(prog, pb)
	cold.SetParallelWorkers(2)
	cold.SetLimits(vm.Limits{Steps: 1})
	if _, err := cold.SliceForVariable("counter"); !errors.Is(err, pinplay.ErrLimit) {
		t.Fatalf("cold session under a 1-step budget: %v, want ErrLimit", err)
	}
}

// TestOracleReplaysWhileEngineWarm: the sequential reference the tests
// compare against collects a trace of its own replay even while the
// recording's engine is resident, so it stays an independent oracle.
// Under a one-instruction budget a warm session still answers, and the
// oracle fails with ErrLimit.
func TestOracleReplaysWhileEngineWarm(t *testing.T) {
	slice.ResetEngineCache()
	defer slice.ResetEngineCache()
	full, _ := ringDiffSessions(t)
	want := sliceVar(t, full, "counter")

	warm := core.Open(full.Prog, full.Pinball)
	warm.SetLimits(vm.Limits{Steps: 1})
	if got := sliceVar(t, warm, "counter"); !reflect.DeepEqual(got, want) {
		t.Fatalf("warm session answered %+v, want %+v", got, want)
	}
	if _, err := oracleSlicer(full.Prog, full.Pinball, vm.Limits{Steps: 1}); !errors.Is(err, pinplay.ErrLimit) {
		t.Fatalf("oracle under a 1-step budget: %v, want ErrLimit", err)
	}
	if got := oracleDigest(t, full.Prog, full.Pinball, "counter"); got != want.digest {
		t.Fatalf("oracle slice %s, engine %s", got, want.digest)
	}
}

// TestConcurrentWarmSessionsShareTrace runs warm sessions on one
// recording from several goroutines at once: they all adopt the same
// cached trace and must all answer like the session that built it.
func TestConcurrentWarmSessionsShareTrace(t *testing.T) {
	slice.ResetEngineCache()
	defer slice.ResetEngineCache()
	_, ring := ringDiffSessions(t)
	ring.SetParallelWorkers(2)
	want := []sliceOutcome{sliceVar(t, ring, "counter"), sliceVar(t, ring, "flag")}

	const sessions = 8
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := core.Open(ring.Prog, ring.Pinball)
			s.SetParallelWorkers(2)
			for j, name := range []string{"counter", "flag"} {
				sl, err := s.SliceForVariable(name)
				if err != nil {
					t.Error(err)
					return
				}
				got := outcomeOf(sl)
				if !reflect.DeepEqual(got, want[j]) {
					t.Errorf("concurrent warm slice of %s: %+v, want %+v", name, got, want[j])
				}
			}
		}()
	}
	wg.Wait()
}

// TestWarmGappedSessionAdoptsEngineTrace: a flight-recorder session still
// bridges its gaps (the GapReport needs the run), but a second session
// takes its trace, gap overlay included, from the resident engine and
// answers with the same digests and provenance as the first.
func TestWarmGappedSessionAdoptsEngineTrace(t *testing.T) {
	slice.ResetEngineCache()
	defer slice.ResetEngineCache()
	_, ring := ringDiffSessions(t)

	ring.SetParallelWorkers(2)
	want := []sliceOutcome{sliceVar(t, ring, "counter"), sliceVar(t, ring, "flag")}
	if want[0].prov == nil {
		t.Fatal("gapped slice carries no provenance")
	}
	eng, err := ring.ParallelSlicer()
	if err != nil {
		t.Fatal(err)
	}

	warm := core.Open(ring.Prog, ring.Pinball)
	warm.SetParallelWorkers(2)
	tr, err := warm.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if tr != eng.Trace {
		t.Fatal("warm gapped session replayed instead of adopting the engine's trace")
	}
	if len(tr.Gaps) == 0 {
		t.Fatal("adopted trace lost its gap overlay")
	}
	if warm.GapReport() == nil {
		t.Error("warm gapped session has no gap report")
	}
	got := []sliceOutcome{sliceVar(t, warm, "counter"), sliceVar(t, warm, "flag")}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warm gapped session answered %+v, want %+v", got, want)
	}
}

// TestWarmCacheStillDetectsCorruption applies every semantic corruptor,
// plus keyCorruptors, to a region and a ring recording, and slices the
// tampered clone twice: once after warming the cache with the clean
// recording, once with the cache emptied. A warm engine must never
// answer for a tampered recording: both runs fail with the same
// sentinel, or both succeed with the same answer.
func TestWarmCacheStillDetectsCorruption(t *testing.T) {
	defer slice.ResetEngineCache()
	prog := ringDiffProg(t)
	region := ringDiffConfig()
	region.CheckpointEvery = 16
	ring := region
	ring.RingBytes = 400
	ring.JournalEvery = 200

	corruptors := append(faultinject.PinballCorruptors(), faultinject.RingCorruptors()...)
	corruptors = append(corruptors, keyCorruptors...)
	// The partial region stops with both threads running, so a
	// recorded failure there would add a trailing fault step.
	recordings := []struct {
		name string
		lc   pinplay.LogConfig
		spec pinplay.RegionSpec
	}{
		{"region", region, pinplay.RegionSpec{}},
		{"ring", ring, pinplay.RegionSpec{}},
		{"partial", region, pinplay.RegionSpec{LengthMain: 300}},
	}
	for _, rec := range recordings {
		clean, err := pinplay.Log(prog, rec.lc, rec.spec)
		if err != nil {
			t.Fatal(err)
		}
		applied := 0
		for _, c := range corruptors {
			bad, err := faultinject.Clone(clean)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Apply(bad) {
				continue
			}
			applied++
			name := rec.name + "/" + c.Name

			slice.ResetEngineCache()
			if _, err := sliceTampered(prog, clean); err != nil {
				t.Fatalf("%s: warming with the clean recording: %v", name, err)
			}
			warm, warmErr := sliceTampered(prog, bad)
			slice.ResetEngineCache()
			cold, coldErr := sliceTampered(prog, bad)

			if want := keyCorruptorErr[c.Name]; want != nil && !errors.Is(coldErr, want) {
				t.Errorf("%s: cold cache gives %v, want %v", name, coldErr, want)
			}
			switch ws, cs := sentinel(warmErr), sentinel(coldErr); {
			case ws != cs:
				t.Errorf("%s: warm cache gives %v, cold cache %v", name, warmErr, coldErr)
			case coldErr != nil && cs == nil:
				t.Errorf("%s: untyped failure %v", name, coldErr)
			case coldErr == nil && !reflect.DeepEqual(warm, cold):
				t.Errorf("%s: warm cache answers %+v, cold cache %+v", name, warm, cold)
			}
		}
		if applied == 0 {
			t.Fatalf("no corruptor applies to the %s recording", rec.name)
		}
	}
}

// keyCorruptors tamper with fields that pinball.ID leaves out but a
// replay checks (a checkpoint's registers and per-thread index) or that
// decide how it ends (the recorded failure). keyCorruptorErr names the
// sentinel a cold slice of the tampered recording must fail with.
var keyCorruptors = []faultinject.PinballCorruptor{
	{Name: "tamper-checkpoint-regs", Apply: func(pb *pinball.Pinball) bool {
		if len(pb.Checkpoints) == 0 {
			return false
		}
		pb.Checkpoints[len(pb.Checkpoints)/2].Regs[1] ^= 1
		return true
	}},
	{Name: "tamper-checkpoint-idx", Apply: func(pb *pinball.Pinball) bool {
		if len(pb.Checkpoints) == 0 {
			return false
		}
		pb.Checkpoints[len(pb.Checkpoints)/2].Idx++
		return true
	}},
	{Name: "invent-failure", Apply: func(pb *pinball.Pinball) bool {
		if pb.Failure != nil {
			return false
		}
		pb.Failure = &vm.Failure{Tid: 0, Reason: "invented"}
		return true
	}},
}

var keyCorruptorErr = map[string]error{
	"tamper-checkpoint-regs": pinplay.ErrReplay,
	"tamper-checkpoint-idx":  pinplay.ErrReplay,
}

// sliceTampered loads pb the way a tool does (decode plus validation)
// and slices "counter" in a fresh bounded session on the parallel
// engine.
func sliceTampered(prog *isa.Program, pb *pinball.Pinball) (sliceOutcome, error) {
	data, err := pb.EncodeBytes()
	if err != nil {
		return sliceOutcome{}, err
	}
	loaded, err := pinball.Decode(data)
	if err != nil {
		return sliceOutcome{}, err
	}
	s := core.Open(prog, loaded)
	s.SetParallelWorkers(2)
	s.SetLimits(vm.Timeout(5_000_000, 2*time.Second))
	sl, err := s.SliceForVariable("counter")
	if err != nil {
		return sliceOutcome{}, err
	}
	return outcomeOf(sl), nil
}

// sentinel classifies err by the typed sentinel it wraps, most specific
// first; nil for a nil or untyped error.
func sentinel(err error) error {
	for _, s := range []error{pinball.ErrCorrupt, pinplay.ErrLimit, pinplay.ErrBridge, pinplay.ErrReplay} {
		if errors.Is(err, s) {
			return s
		}
	}
	return nil
}
