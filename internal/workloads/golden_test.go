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
	"aget":          {0x9a25fdddbb0714d9, 60080, 59},
	"ammp":          {0xabba7dea9cf0c402, 78771, 77},
	"apsi":          {0xba952cffa34e95bb, 78771, 77},
	"blackscholes":  {0x2a6d30d19f17be26, 78771, 77},
	"canneal":       {0xfde9a37c4f8be67b, 78771, 77},
	"dedup":         {0x4d508d3d723538d5, 78834, 77},
	"fluidanimate":  {0xbfd5375bc1006353, 78771, 77},
	"galgel":        {0x4dc8abae79b0e545, 78771, 77},
	"mgrid":         {0x3808edc328acd0d1, 78771, 77},
	"mozilla":       {0x9b58ea46cddc90ed, 10085, 9},
	"pbzip2":        {0xbc9ca8f5436fd17, 42486, 41},
	"ring:mgrid":    {0x890b34beb2efc11a, 78771, 77},
	"slice:canneal": {0xeffc5d6b2e90635a, 70771, 69},
	"streamcluster": {0x6c7f71e48a9e94e5, 78771, 77},
	"swaptions":     {0xf5ae03fc85621c91, 78771, 77},
	"vips":          {0x27b34d6862f3121b, 78771, 77},
	"wupwise":       {0xba046c0e2bc9aff9, 78771, 77},
	"x264":          {0xd0d58bc46beac71a, 78771, 77},
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
