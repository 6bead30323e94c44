package pinplay

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// benchSrc is a longer workload (~100k region instructions) so the
// per-instruction checkpoint overhead dominates fixed costs.
const benchSrc = `
int counter;
int mtx;
int worker(int id) {
	int i;
	int local = 0;
	for (i = 0; i < 2000; i++) {
		local = local + i;
		lock(&mtx);
		counter = counter + 1;
		unlock(&mtx);
	}
	return local;
}
int main() {
	int t1 = spawn(worker, 1);
	int t2 = spawn(worker, 2);
	worker(0);
	join(t1);
	join(t2);
	write(counter);
	return 0;
}`

func benchProgram(b *testing.B) *isa.Program {
	b.Helper()
	return compileT(b, benchSrc)
}

// benchmarkLog measures recording cost at a given checkpoint cadence
// (negative disables checkpointing — the baseline).
func benchmarkLog(b *testing.B, every int64) {
	prog := benchProgram(b)
	cfg := LogConfig{Seed: 3, MeanQuantum: 41, CheckpointEvery: every}
	pb, err := Log(prog, cfg, RegionSpec{})
	if err != nil {
		b.Fatalf("log: %v", err)
	}
	b.SetBytes(pb.RegionInstrs) // "bytes" = instructions: ns/instr falls out
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Log(prog, cfg, RegionSpec{}); err != nil {
			b.Fatalf("log: %v", err)
		}
	}
}

func BenchmarkLogNoCheckpoints(b *testing.B)      { benchmarkLog(b, -1) }
func BenchmarkLogCheckpointEvery1k(b *testing.B)  { benchmarkLog(b, 1_000) }
func BenchmarkLogCheckpointEvery10k(b *testing.B) { benchmarkLog(b, 10_000) }

// benchmarkReplay measures validated replay cost at a given cadence.
func benchmarkReplay(b *testing.B, every int64, noVerify bool) {
	prog := benchProgram(b)
	pb, err := Log(prog, LogConfig{Seed: 3, MeanQuantum: 41, CheckpointEvery: every}, RegionSpec{})
	if err != nil {
		b.Fatalf("log: %v", err)
	}
	opts := ReplayOptions{NoVerify: noVerify}
	b.SetBytes(pb.RegionInstrs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReplayWith(prog, pb, opts); err != nil {
			b.Fatalf("replay: %v", err)
		}
	}
}

func BenchmarkReplayNoCheckpoints(b *testing.B)      { benchmarkReplay(b, -1, false) }
func BenchmarkReplayCheckpointEvery1k(b *testing.B)  { benchmarkReplay(b, 1_000, false) }
func BenchmarkReplayCheckpointEvery10k(b *testing.B) { benchmarkReplay(b, 10_000, false) }
func BenchmarkReplayVerifyDisabled(b *testing.B)     { benchmarkReplay(b, 1_000, true) }

// kernelRegion records the mgrid registry kernel's first 50k main-thread
// instructions (open-ended input, checkpoints at the default cadence):
// the call-dense, memory-heavy stream the interpreter's hot path sees
// in real sessions, unlike the lock-bound benchSrc toy.
func kernelRegion(b *testing.B) (*isa.Program, LogConfig, RegionSpec, *pinball.Pinball) {
	b.Helper()
	w, err := workloads.ByName("mgrid")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := w.Program()
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	cfg := LogConfig{Seed: 5, RandSeed: 5, Input: w.Input(w.DefaultThreads, 1<<40)}
	spec := RegionSpec{LengthMain: 50_000}
	pb, err := Log(prog, cfg, spec)
	if err != nil {
		b.Fatalf("log: %v", err)
	}
	return prog, cfg, spec, pb
}

// reportPerInstr, called after the timed loop, sets "bytes" to
// instructions, reports allocations and adds ns/instr.
func reportPerInstr(b *testing.B, instrs int64) {
	b.SetBytes(instrs)
	b.ReportAllocs()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*instrs), "ns/instr")
}

// BenchmarkLogKernelRegion measures recording the kernel region.
func BenchmarkLogKernelRegion(b *testing.B) {
	prog, cfg, spec, pb := kernelRegion(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Log(prog, cfg, spec); err != nil {
			b.Fatalf("log: %v", err)
		}
	}
	reportPerInstr(b, pb.RegionInstrs)
}

// benchmarkReplayKernel measures replaying the kernel region with opts.
func benchmarkReplayKernel(b *testing.B, opts ReplayOptions) {
	prog, _, _, pb := kernelRegion(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReplayWith(prog, pb, opts); err != nil {
			b.Fatalf("replay: %v", err)
		}
	}
	reportPerInstr(b, pb.RegionInstrs)
}

// BenchmarkReplayKernelRegion measures validated replay of the kernel
// region.
func BenchmarkReplayKernelRegion(b *testing.B) { benchmarkReplayKernel(b, ReplayOptions{}) }

// BenchmarkReplayKernelRegionUnverified measures replay of the kernel
// region without checkpoint validation: the bare run loop.
func BenchmarkReplayKernelRegionUnverified(b *testing.B) {
	benchmarkReplayKernel(b, ReplayOptions{NoVerify: true})
}

// BenchmarkCollectKernelRegion measures trace collection over the kernel
// region: a validated replay feeding the region collector, plus the
// global-trace merge.
func BenchmarkCollectKernelRegion(b *testing.B) {
	prog, _, _, pb := kernelRegion(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CollectTrace(prog, pb, vm.Limits{}); err != nil {
			b.Fatalf("collect: %v", err)
		}
	}
	reportPerInstr(b, pb.RegionInstrs)
}
