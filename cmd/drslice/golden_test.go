package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	drdebug "repro"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/vm"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenSrc is a deterministic single-threaded program exercising the
// renderer's full surface: a data chain into a failing assert, a pruned
// save/restore pair (the guarded call), and excluded noise.
const goldenSrc = `
int sink;
int noise;
int q(int n) {
	sink = sink + n;
	return 0;
}
int p(int c, int d) {
	int e = d + d;
	if (c == 5) {
		q(1);
	}
	return e + 1;
}
int main() {
	int i;
	int c = read();
	for (i = 0; i < 8; i++) { noise = noise + i; }
	int w = p(c, 7);
	assert(w == 999);
	return 0;
}`

// goldenSession records the program and computes the failure slice
// twice: with the session's engine, and with the sequential reference
// slicer over a trace of the test's own replay.
func goldenSession(t *testing.T) (sess *drdebug.Session, engine, oracle *drdebug.Slice) {
	t.Helper()
	prog, err := drdebug.Compile("golden.c", goldenSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sess, err = drdebug.RecordFailure(prog, drdebug.LogConfig{Seed: 1, Input: []int64{5}}, 0)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	sess.SetParallelWorkers(4)
	if engine, err = sess.SliceAtFailure(); err != nil {
		t.Fatalf("slice: %v", err)
	}
	tr, err := pinplay.CollectTrace(prog, sess.Pinball, vm.Limits{})
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	ref, err := slice.New(prog, tr, slice.DefaultOptions())
	if err != nil {
		t.Fatalf("reference slicer: %v", err)
	}
	crit, err := slice.LastEventOf(tr, sess.Pinball.Failure.Tid)
	if err != nil {
		t.Fatalf("criterion: %v", err)
	}
	if oracle, err = ref.Slice(crit); err != nil {
		t.Fatalf("reference slice: %v", err)
	}
	return sess, engine, oracle
}

// compareGolden checks got against testdata/<name>, rewriting it under
// -update.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from golden file (re-run with -update after reviewing)\n--- got ---\n%s", name, got)
	}
}

// TestGoldenTextReport locks the text renderer's output, for the
// engine's slice and the sequential reference's: the byte-identical-
// slices guarantee must survive all the way through the CLI's rendering
// path.
func TestGoldenTextReport(t *testing.T) {
	sess, engine, oracle := goldenSession(t)
	var outputs [][]byte
	for _, sl := range []*drdebug.Slice{oracle, engine} {
		var buf bytes.Buffer
		if err := writeSliceText(sess, sl, &buf); err != nil {
			t.Fatalf("render: %v", err)
		}
		outputs = append(outputs, buf.Bytes())
	}
	if !bytes.Equal(outputs[0], outputs[1]) {
		t.Fatalf("sequential and engine text reports differ:\n--- sequential ---\n%s--- engine ---\n%s",
			outputs[0], outputs[1])
	}
	compareGolden(t, "failure_slice.txt", outputs[0])
}

// TestGoldenHTMLReport locks the HTML renderer's output (source listing
// highlighted in place), again for both slicers.
func TestGoldenHTMLReport(t *testing.T) {
	sources := map[string]string{"golden.c": goldenSrc}
	sess, engine, oracle := goldenSession(t)
	var outputs [][]byte
	for _, sl := range []*drdebug.Slice{oracle, engine} {
		var buf bytes.Buffer
		if err := renderSliceHTML(sess, sl, sources, &buf); err != nil {
			t.Fatalf("render: %v", err)
		}
		outputs = append(outputs, buf.Bytes())
	}
	if !bytes.Equal(outputs[0], outputs[1]) {
		t.Fatal("sequential and engine HTML reports differ")
	}
	compareGolden(t, "failure_slice.html", outputs[0])
}
