package pinball_test

import (
	"testing"

	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/workloads"
)

// captureKernels are the programs the capture-reopen pipeline records.
var captureKernels = []string{"canneal", "mgrid", "swaptions"}

// capture records kernel's first main250k main-thread instructions with
// open-ended input and checkpoints at the default cadence: the region a
// capture-and-reopen cycle encodes and decodes.
func capture(tb testing.TB, kernel string) *pinball.Pinball {
	tb.Helper()
	const main250k = 250_000
	w, err := workloads.ByName(kernel)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := w.Program()
	if err != nil {
		tb.Fatalf("compile %s: %v", kernel, err)
	}
	cfg := pinplay.LogConfig{Seed: 1, RandSeed: 1, Input: w.Input(w.DefaultThreads, 1<<40)}
	pb, err := pinplay.Log(prog, cfg, pinplay.RegionSpec{LengthMain: main250k})
	if err != nil {
		tb.Fatalf("record %s: %v", kernel, err)
	}
	return pb
}

// reportCodec, called after the timed loop, reports allocations, the
// time per region instruction and the encoded size per instruction.
func reportCodec(b *testing.B, pb *pinball.Pinball, size int) {
	b.ReportAllocs()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*pb.RegionInstrs), "ns/instr")
	b.ReportMetric(float64(size)/float64(pb.RegionInstrs), "bytes/instr")
}

// BenchmarkEncode measures EncodeBytes on each capture kernel's region.
func BenchmarkEncode(b *testing.B) {
	for _, k := range captureKernels {
		b.Run(k, func(b *testing.B) {
			pb := capture(b, k)
			var data []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if data, err = pb.EncodeBytes(); err != nil {
					b.Fatal(err)
				}
			}
			reportCodec(b, pb, len(data))
		})
	}
}

// BenchmarkDecode measures Decode, checksums and validation included, on
// each capture kernel's encoded region.
func BenchmarkDecode(b *testing.B) {
	for _, k := range captureKernels {
		b.Run(k, func(b *testing.B) {
			pb := capture(b, k)
			data, err := pb.EncodeBytes()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pinball.Decode(data); err != nil {
					b.Fatal(err)
				}
			}
			reportCodec(b, pb, len(data))
		})
	}
}
