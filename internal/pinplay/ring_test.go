package pinplay

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/pinball"
	"repro/internal/vm"
)

// ioSrc exercises every environment syscall the recipe must resume
// (read, rand, time) alongside multi-thread scheduling.
const ioSrc = `
int mtx;
int sum;
int worker(int id) {
	int i;
	for (i = 0; i < 30; i++) {
		lock(&mtx);
		sum = sum + rand() % 7 + time() % 3;
		unlock(&mtx);
	}
	return 0;
}
int main() {
	int i;
	int t1 = spawn(worker, 1);
	int t2 = spawn(worker, 2);
	for (i = 0; i < 20; i++) {
		lock(&mtx);
		sum = sum + read();
		unlock(&mtx);
	}
	join(t1);
	join(t2);
	write(sum);
	return 0;
}`

func ringInput() []int64 {
	in := make([]int64, 64)
	for i := range in {
		in[i] = int64(i*3 + 1)
	}
	return in
}

// logPair records the same execution twice: once full-trace, once in
// ring mode with the given budget/sample, and returns both pinballs.
func logPair(t *testing.T, src string, spec RegionSpec, budget, sample int64) (*pinball.Pinball, *pinball.Pinball) {
	t.Helper()
	prog := compileT(t, src)
	cfg := LogConfig{Seed: 11, MeanQuantum: 13, Input: ringInput(), RandSeed: 5}
	full, err := Log(prog, cfg, spec)
	if err != nil {
		t.Fatalf("full log: %v", err)
	}
	rcfg := cfg
	rcfg.RingBytes, rcfg.RingSample = budget, sample
	rcfg.JournalEvery = 150 // ring window cadence
	ring, err := Log(prog, rcfg, spec)
	if err != nil {
		t.Fatalf("ring log: %v", err)
	}
	return full, ring
}

func TestRingNoEvictionMatchesFullTrace(t *testing.T) {
	full, ring := logPair(t, ioSrc, RegionSpec{}, 1<<40, 0)
	if len(ring.Evictions) != 0 {
		t.Fatalf("unexpected evictions under a huge budget: %v", ring.Evictions)
	}
	if ring.Recipe == nil {
		t.Fatal("ring pinball has no recipe")
	}
	if !reflect.DeepEqual(full.Quanta, ring.Quanta) {
		t.Errorf("quanta differ: full %d entries, ring %d entries", len(full.Quanta), len(ring.Quanta))
	}
	if !reflect.DeepEqual(full.Syscalls, ring.Syscalls) {
		t.Errorf("syscalls differ: full %d, ring %d", len(full.Syscalls), len(ring.Syscalls))
	}
	if !reflect.DeepEqual(full.OrderEdges, ring.OrderEdges) {
		t.Errorf("order edges differ: full %d, ring %d", len(full.OrderEdges), len(ring.OrderEdges))
	}
	if !reflect.DeepEqual(full.Checkpoints, ring.Checkpoints) {
		t.Error("checkpoints differ")
	}
	if ring.RegionInstrs != full.RegionInstrs {
		t.Errorf("region %d, want %d", ring.RegionInstrs, full.RegionInstrs)
	}
}

func TestRingEvictionBridgesExactly(t *testing.T) {
	full, ring := logPair(t, ioSrc, RegionSpec{}, 400, 0)
	if len(ring.Evictions) == 0 {
		t.Fatal("tiny budget produced no evictions")
	}
	if ring.GapInstrs() == 0 {
		t.Fatal("evictions cover no instructions")
	}
	if err := ring.Validate(); err != nil {
		t.Fatalf("gapped pinball invalid: %v", err)
	}

	fm, err := Replay(compileT(t, ioSrc), full, nil)
	if err != nil {
		t.Fatalf("full replay: %v", err)
	}
	prog := compileT(t, ioSrc)
	rm, rep, err := ReplayWith(prog, ring, ReplayOptions{})
	if err != nil {
		t.Fatalf("bridged replay: %v", err)
	}
	if rep.Bridge == nil {
		t.Fatal("no bridge report")
	}
	if rep.Bridge.Exact != len(ring.Evictions) || len(rep.Bridge.Estimated) != 0 {
		t.Fatalf("bridge exact=%d estimated=%d, want %d exact", rep.Bridge.Exact, len(rep.Bridge.Estimated), len(ring.Evictions))
	}
	if !fm.Snapshot().Mem.Equal(rm.Snapshot().Mem) {
		t.Error("bridged replay reached a different memory state")
	}
	if !reflect.DeepEqual(fm.Output(), rm.Output()) {
		t.Errorf("bridged output %v, full output %v", rm.Output(), fm.Output())
	}
}

func TestRingBridgeMidQuantumRegion(t *testing.T) {
	// A skipped prefix leaves the scheduler mid-quantum at region entry;
	// the recipe's primed quantum must reproduce that exactly.
	full, ring := logPair(t, ioSrc, RegionSpec{SkipMain: 137, LengthMain: 400}, 300, 0)
	if len(ring.Evictions) == 0 {
		t.Fatal("no evictions")
	}
	prog := compileT(t, ioSrc)
	fm, err := Replay(prog, full, nil)
	if err != nil {
		t.Fatalf("full replay: %v", err)
	}
	rm, rep, err := ReplayWith(prog, ring, ReplayOptions{})
	if err != nil {
		t.Fatalf("bridged replay: %v", err)
	}
	if rep.Bridge.Exact != len(ring.Evictions) {
		t.Fatalf("only %d of %d windows bridged exactly", rep.Bridge.Exact, len(ring.Evictions))
	}
	if !fm.Snapshot().Mem.Equal(rm.Snapshot().Mem) {
		t.Error("bridged replay reached a different memory state")
	}
}

func TestRingSamplingEvicts(t *testing.T) {
	_, ring := logPair(t, ioSrc, RegionSpec{}, 0, 2)
	if len(ring.Evictions) == 0 {
		t.Fatal("sampling keep-1-in-2 evicted nothing")
	}
	if ring.SampleKeep != 2 {
		t.Errorf("SampleKeep = %d", ring.SampleKeep)
	}
	prog := compileT(t, ioSrc)
	if _, rep, err := ReplayWith(prog, ring, ReplayOptions{}); err != nil {
		t.Fatalf("bridged replay: %v", err)
	} else if rep.Bridge.Exact != len(ring.Evictions) {
		t.Errorf("exact = %d, want %d", rep.Bridge.Exact, len(ring.Evictions))
	}
}

func TestRingBridgeDetectsFlippedHash(t *testing.T) {
	_, ring := logPair(t, ioSrc, RegionSpec{}, 400, 0)
	if len(ring.Evictions) == 0 {
		t.Fatal("no evictions")
	}
	prog := compileT(t, ioSrc)
	ring.Evictions[0].Hash ^= 1

	// Strict policy: a typed bridge error, classified as a replay failure.
	_, _, err := ReplayWith(prog, ring, ReplayOptions{})
	if !errors.Is(err, ErrBridge) || !errors.Is(err, ErrReplay) {
		t.Fatalf("err = %v, want ErrBridge wrapping ErrReplay", err)
	}
	var be *BridgeError
	if !errors.As(err, &be) || be.Ev.ID != ring.Evictions[0].ID {
		t.Fatalf("err = %v, want BridgeError for window %d", err, ring.Evictions[0].ID)
	}

	// Estimate policy: the replay completes, the window is flagged.
	_, rep, err := ReplayWith(prog, ring, ReplayOptions{BridgeEstimates: true})
	if err != nil {
		t.Fatalf("estimates replay: %v", err)
	}
	if len(rep.Bridge.Estimated) != 1 || rep.Bridge.Estimated[0].ID != ring.Evictions[0].ID {
		t.Fatalf("estimated = %v, want exactly the flipped window", rep.Bridge.Estimated)
	}
	if rep.Bridge.Exact != len(ring.Evictions)-1 {
		t.Errorf("exact = %d, want %d", rep.Bridge.Exact, len(ring.Evictions)-1)
	}
}

func TestRingBridgeDetectsTamperedRecipe(t *testing.T) {
	_, ring := logPair(t, ioSrc, RegionSpec{}, 400, 0)
	prog := compileT(t, ioSrc)
	ring.Recipe.SchedState ^= 1
	_, _, err := ReplayWith(prog, ring, ReplayOptions{})
	if !errors.Is(err, ErrReplay) {
		t.Fatalf("err = %v, want a typed replay failure", err)
	}
}

func TestBridgePinballMatchesFullTrace(t *testing.T) {
	full, ring := logPair(t, ioSrc, RegionSpec{}, 400, 0)
	prog := compileT(t, ioSrc)
	bpb, brep, err := BridgePinball(prog, ring, ReplayOptions{})
	if err != nil {
		t.Fatalf("bridge: %v", err)
	}
	if brep.Degraded() {
		t.Fatalf("unexpected estimated windows: %v", brep.Estimated)
	}
	if bpb.Gapped() {
		t.Fatal("bridged pinball still gapped")
	}
	if !reflect.DeepEqual(full.Quanta, bpb.Quanta) {
		t.Errorf("regenerated quanta differ (%d vs %d entries)", len(bpb.Quanta), len(full.Quanta))
	}
	if !reflect.DeepEqual(full.Syscalls, bpb.Syscalls) {
		t.Errorf("regenerated syscalls differ (%d vs %d)", len(bpb.Syscalls), len(full.Syscalls))
	}
	if !reflect.DeepEqual(full.OrderEdges, bpb.OrderEdges) {
		t.Errorf("regenerated order edges differ (%d vs %d)", len(bpb.OrderEdges), len(full.OrderEdges))
	}
	if err := CheckReplayDeterminism(prog, bpb); err != nil {
		t.Errorf("bridged pinball: %v", err)
	}
}

func TestRingCapturesFailure(t *testing.T) {
	src := `
int x;
int racer(int v) { x = v; return 0; }
int main() {
	int i; int t;
	for (i = 0; i < 200; i++) { x = x + rand() % 3; }
	t = spawn(racer, 5);
	x = 1;
	join(t);
	assert(x == 1);
	return 0;
}`
	prog := compileT(t, src)
	var ring *pinball.Pinball
	for seed := int64(1); seed < 64; seed++ {
		cfg := LogConfig{Seed: seed, MeanQuantum: 3, RandSeed: 2, RingBytes: 300, JournalEvery: 100}
		got, err := Log(prog, cfg, RegionSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Failure != nil && len(got.Evictions) > 0 {
			ring = got
			break
		}
	}
	if ring == nil {
		t.Skip("no seed exposed the race with evictions")
	}
	m, rep, err := ReplayWith(prog, ring, ReplayOptions{})
	if err != nil {
		t.Fatalf("bridged replay: %v", err)
	}
	if rep.Bridge.Exact != len(ring.Evictions) {
		t.Errorf("exact = %d of %d", rep.Bridge.Exact, len(ring.Evictions))
	}
	if m.Stopped() != vm.StopFailure {
		t.Fatalf("stop = %v, want failure", m.Stopped())
	}
	if f := m.Failure(); f.Tid != ring.Failure.Tid || f.PC != ring.Failure.PC {
		t.Errorf("failure at tid %d pc %d, logged tid %d pc %d", f.Tid, f.PC, ring.Failure.Tid, ring.Failure.PC)
	}
}

func TestRingJournalCommitRoundTrip(t *testing.T) {
	prog := compileT(t, ioSrc)
	path := filepath.Join(t.TempDir(), "ring.pb")
	cfg := LogConfig{
		Seed: 11, MeanQuantum: 13, Input: ringInput(), RandSeed: 5,
		JournalPath: path, JournalEvery: 150, JournalNoSync: true,
		RingBytes: 400,
	}
	pb, err := Log(prog, cfg, RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	if len(pb.Evictions) == 0 {
		t.Fatal("no evictions")
	}
	loaded, err := pinball.Load(path)
	if err != nil {
		t.Fatalf("load committed ring journal: %v", err)
	}
	if loaded.ID() != pb.ID() {
		t.Fatalf("journal round trip changed the pinball: %s vs %s", loaded.ID(), pb.ID())
	}
	if loaded.Recipe == nil || len(loaded.Evictions) != len(pb.Evictions) {
		t.Fatal("ring fields lost in the journal round trip")
	}
	if _, rep, err := ReplayWith(prog, loaded, ReplayOptions{}); err != nil {
		t.Fatalf("replay of loaded ring journal: %v", err)
	} else if rep.Bridge.Exact != len(loaded.Evictions) {
		t.Errorf("exact = %d of %d", rep.Bridge.Exact, len(loaded.Evictions))
	}
}

// TestRingJournalTornSalvageBridges is the end-to-end crash story: a
// real ring recording's journal is torn at an arbitrary mid-file frame
// boundary (as a crash would leave it), salvaged into a fully evicted
// pinball, and gap-bridging replay re-derives the whole prefix and
// proves it against the retained window hashes.
func TestRingJournalTornSalvageBridges(t *testing.T) {
	prog := compileT(t, ioSrc)
	path := filepath.Join(t.TempDir(), "ring.pb")
	cfg := LogConfig{
		Seed: 11, MeanQuantum: 13, Input: ringInput(), RandSeed: 5,
		JournalPath: path, JournalEvery: 150, JournalNoSync: true,
		RingBytes: 400,
	}
	if _, err := Log(prog, cfg, RegionSpec{}); err != nil {
		t.Fatalf("log: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the journal's frames (13-byte header: id, length, CRC) and cut
	// a few bytes into every window-seal frame (id 15) past the first.
	const headerLen, frameHdr = 6, 13
	var cuts []int64
	seals := 0
	for off := int64(headerLen); off+frameHdr <= int64(len(data)); {
		id := data[off]
		plen := int64(binary.BigEndian.Uint64(data[off+1 : off+9]))
		if id == 15 {
			seals++
			if seals > 1 {
				cuts = append(cuts, off+5)
			}
		}
		off += frameHdr + plen
	}
	if len(cuts) == 0 {
		t.Fatalf("recording sealed only %d windows; no mid-file tear point", seals)
	}
	for i, cut := range cuts {
		pb, rep, err := pinball.SalvageBytes(data[:cut])
		if err != nil {
			t.Fatalf("cut %d: salvage: %v\n%s", i, err, rep.Summary())
		}
		if rep.Evicted == 0 || !pb.Gapped() || len(pb.Quanta) != 0 {
			t.Fatalf("cut %d: salvage kept content (evicted=%d quanta=%d), want fully evicted", i, rep.Evicted, len(pb.Quanta))
		}
		_, rrep, err := ReplayWith(prog, pb, ReplayOptions{})
		if err != nil {
			t.Fatalf("cut %d: bridged replay of salvaged pinball: %v", i, err)
		}
		if rrep.Bridge.Exact != len(pb.Evictions) || len(rrep.Bridge.Estimated) != 0 {
			t.Errorf("cut %d: exact=%d estimated=%d of %d windows", i, rrep.Bridge.Exact, len(rrep.Bridge.Estimated), len(pb.Evictions))
		}
	}
}

func TestRingStatsReporting(t *testing.T) {
	prog := compileT(t, ioSrc)
	cfg := LogConfig{Seed: 11, MeanQuantum: 13, Input: ringInput(), RandSeed: 5}
	m := vm.New(prog, vm.Config{Sched: cfg.sched(), Env: cfg.env(), MaxSteps: 1 << 30})
	rec := StartRecording(m)
	if st := rec.RingStats(); st != (RingStats{}) {
		t.Errorf("non-ring recorder reports ring stats: %+v", st)
	}
	m.SetTracer(nil)
}
