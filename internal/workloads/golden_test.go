package workloads_test

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/workloads"
)

// golden pins one recording: the pinball's digest and what its validated
// replay executes and checks.
type golden struct {
	digest   uint64
	executed int64
	checked  int
}

// goldenRecordings are the recordings of every registry workload (a
// checkpointed region at a fixed seed) plus one flight-recorder
// recording and one slice pinball relogged from a region. The recorder and the replay validator must reproduce them
// bit for bit: a change to the interpreter's hot path, the checkpoint
// fold or the recorder that alters any recorded byte shows up here.
var goldenRecordings = map[string]golden{
	"aget":          {0x88ff1c500e372d00, 60080, 62},
	"ammp":          {0x3bf86e65dd4a156e, 78771, 80},
	"apsi":          {0xdf090168782c90d1, 78771, 80},
	"blackscholes":  {0xa73aaad917ef2258, 78771, 80},
	"canneal":       {0xb0c4e246f31f2985, 78771, 80},
	"dedup":         {0x13a3e7b5e11e91a0, 78834, 80},
	"fluidanimate":  {0x9cf8b8a0afd1616d, 78771, 80},
	"galgel":        {0xa420d4514ca78dcc, 78771, 80},
	"mgrid":         {0x296774cd8814d113, 78771, 80},
	"mozilla":       {0x2fc9371ea8172f1e, 10085, 11},
	"pbzip2":        {0xe99eb153bd26c380, 42486, 43},
	"ring:mgrid":    {0x56d669cdf69844f2, 78771, 80},
	"slice:canneal": {0xffed93db4c3f6cad, 70771, 76},
	"streamcluster": {0xb9c70c3924f1a4a1, 78771, 80},
	"swaptions":     {0x6ad5bbc04339527a, 78771, 80},
	"vips":          {0xcb4b59b65e941188, 78771, 80},
	"wupwise":       {0x775b595ddde73171, 78771, 80},
	"x264":          {0x6ee6800452e132ff, 78771, 80},
}

// TestGoldenRecordings records every registry workload, one ring
// recording and one slice pinball, and requires each digest and validated replay to match the
// committed table.
func TestGoldenRecordings(t *testing.T) {
	all := workloads.All()
	if len(all)+2 != len(goldenRecordings) {
		t.Errorf("%d workloads + ring + slice, golden table has %d entries", len(all), len(goldenRecordings))
	}
	for _, w := range all {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, w.Name, w, pinplay.LogConfig{CheckpointEvery: 1000})
		})
	}
	t.Run("ring", func(t *testing.T) {
		t.Parallel()
		w, err := workloads.ByName("mgrid")
		if err != nil {
			t.Fatal(err)
		}
		pb := checkGolden(t, "ring:mgrid", w, pinplay.LogConfig{CheckpointEvery: 1000, RingBytes: 20_000, JournalEvery: 2048})
		if !pb.Gapped() {
			t.Error("ring recording evicted nothing")
		}
	})
	t.Run("slice", func(t *testing.T) {
		t.Parallel()
		w, err := workloads.ByName("canneal")
		if err != nil {
			t.Fatal(err)
		}
		prog, err := w.Program()
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		region, err := record(prog, w, pinplay.LogConfig{CheckpointEvery: 1000})
		if err != nil {
			t.Fatalf("log: %v", err)
		}
		var excl []pinball.Exclusion
		for _, ts := range region.State.Threads {
			excl = append(excl, pinball.Exclusion{Tid: ts.ID, FromIdx: ts.Count + 100, ToIdx: ts.Count + 2100})
		}
		slice, err := pinplay.RelogWith(prog, region, excl, pinplay.ReplayOptions{})
		if err != nil {
			t.Fatalf("relog: %v", err)
		}
		checkReplay(t, "slice:canneal", prog, slice)
	})
}

// record logs a 20k-main region of w under cfg, seeded and open ended.
func record(prog *isa.Program, w *workloads.Workload, cfg pinplay.LogConfig) (*pinball.Pinball, error) {
	cfg.Seed, cfg.RandSeed, cfg.MeanQuantum = 11, 11, 97
	cfg.Input = w.Input(w.DefaultThreads, 1<<40)
	return pinplay.Log(prog, cfg, pinplay.RegionSpec{SkipMain: 1000, LengthMain: 20_000})
}

// checkGolden records a region of w under cfg and checks it.
func checkGolden(t *testing.T, key string, w *workloads.Workload, cfg pinplay.LogConfig) *pinball.Pinball {
	t.Helper()
	prog, err := w.Program()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	pb, err := record(prog, w, cfg)
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	checkReplay(t, key, prog, pb)
	return pb
}

// checkReplay replays pb with validation and compares its digest and
// replay report against the table.
func checkReplay(t *testing.T, key string, prog *isa.Program, pb *pinball.Pinball) {
	t.Helper()
	_, rep, err := pinplay.ReplayWith(prog, pb, pinplay.ReplayOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	got := golden{pb.Digest(), rep.Executed, rep.Checked}
	if want := goldenRecordings[key]; got != want {
		t.Errorf("%q: {%#x, %d, %d}, golden {%#x, %d, %d}",
			key, got.digest, got.executed, got.checked, want.digest, want.executed, want.checked)
	}
}
