package pinball_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/pinball"
	"repro/internal/vm"
)

// varints appends each value to b as a zigzag varint.
func varints(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// count starts a record payload claiming n records.
func count(n uint64) []byte { return binary.AppendUvarint(nil, n) }

// withChunk returns a version 4 file that holds the header, meta and
// state frames of a valid encoding followed by one stream chunk frame
// with the given id and payload.
func withChunk(t testing.TB, id byte, payload []byte) []byte {
	t.Helper()
	good, err := journalPinball().EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	secs, err := pinball.SectionOffsets(good)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), good[:secs[2].Off]...)
	return append(out, frameBytes(id, uint64(len(payload)), payload)...)
}

// TestRecordDecodeErrors pins the stream chunk decoder's rejections:
// each malformed, CRC-valid payload must fail Decode with ErrCorrupt
// naming the chunk's section, and Salvage typed, without a panic.
func TestRecordDecodeErrors(t *testing.T) {
	const quanta, syscalls, edges, checkpoints = 8, 9, 10, 11 // chunk frame ids
	for _, tc := range []struct {
		summary string
		input   []byte
		wantErr error
	}{
		{"count too large for the payload", withChunk(t, quanta, varints(count(1<<20), 0, 1)), pinball.ErrCorrupt},
		{"unreadable count", withChunk(t, quanta, []byte{0x80}), pinball.ErrCorrupt},
		{"truncated varint", withChunk(t, quanta, append(varints(count(1), 0), 0x80)), pinball.ErrCorrupt},
		{"over-long varint", withChunk(t, syscalls,
			append(count(1), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)), pinball.ErrCorrupt},
		{"thread id past vm.MaxThreads", withChunk(t, quanta, varints(count(1), vm.MaxThreads, 5)), pinball.ErrCorrupt},
		{"negative thread id", withChunk(t, edges, varints(count(1), 0, 1, -1, 2, 0)), pinball.ErrCorrupt},
		{"index delta that overflows", withChunk(t, edges,
			varints(count(2), 0, math.MaxInt64, 1, 0, 0, 0, 1, 1, 0, 0)), pinball.ErrCorrupt},
		{"checkpoint cut inside its hash", withChunk(t, checkpoints,
			append(varints(count(1), 0, math.MaxInt64, math.MaxInt64, math.MaxInt64), 0xaa, 0xbb)), pinball.ErrCorrupt},
		{"trailing bytes after the last record", withChunk(t, quanta, varints(count(1), 0, 5, 0)), pinball.ErrCorrupt},
	} {
		t.Run(tc.summary, func(t *testing.T) {
			err := checkDecode(t, tc.input)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Decode: err = %v, want %v", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), "section id") || !strings.Contains(err.Error(), "payload byte") {
				t.Errorf("error %q does not locate the damage", err)
			}
			checkSalvage(t, tc.input)
		})
	}
}

// TestRecordCountAllocatesNothing checks that a record count the payload
// cannot hold is rejected before anything sized by it is allocated: a
// claim of 2^20 quanta (16 MiB decoded) allocates no more bytes per
// decode than a claim of 512. The allocation counts can differ by the
// boxing of the claimed number in the error message, so bytes decide.
func TestRecordCountAllocatesNothing(t *testing.T) {
	perRun := func(claim uint64) (allocs float64, bytes uint64) {
		input := withChunk(t, 8, varints(count(claim), 0, 1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(20, func() {
			if _, err := pinball.Decode(input); !errors.Is(err, pinball.ErrCorrupt) {
				t.Fatalf("claim %d: err = %v, want ErrCorrupt", claim, err)
			}
		})
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 21 // AllocsPerRun adds a warm-up run
	}
	smallAllocs, smallBytes := perRun(512)
	hugeAllocs, hugeBytes := perRun(1 << 20)
	if hugeBytes > smallBytes+1024 {
		t.Errorf("claim 2^20: %d bytes in %v allocs per decode, claim 512: %d bytes in %v allocs",
			hugeBytes, hugeAllocs, smallBytes, smallAllocs)
	}
}

// TestValidateRejectsBadOrderEdges checks the order-edge invariants the
// record codec relies on: thread ids in range and indices that are not
// negative. Such an edge still encodes, and Decode rejects it.
func TestValidateRejectsBadOrderEdges(t *testing.T) {
	for name, e := range map[string]vm.OrderEdge{
		"tid past vm.MaxThreads": {FromTid: 0, FromIdx: 3, ToTid: vm.MaxThreads, ToIdx: 9},
		"negative index":         {FromTid: 0, FromIdx: -1, ToTid: 1, ToIdx: 9},
		"overflowing delta":      {FromTid: 0, FromIdx: math.MinInt64, ToTid: 1, ToIdx: 9},
	} {
		t.Run(name, func(t *testing.T) {
			pb := journalPinball()
			pb.OrderEdges = []vm.OrderEdge{{FromTid: 0, FromIdx: math.MaxInt64, ToTid: 1, ToIdx: 9}, e}
			if err := pb.Validate(); !errors.Is(err, pinball.ErrCorrupt) {
				t.Errorf("Validate: err = %v, want ErrCorrupt", err)
			}
			data, err := pb.EncodeBytes()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if _, err := pinball.Decode(data); !errors.Is(err, pinball.ErrCorrupt) {
				t.Errorf("Decode: err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestRecordingsRoundTrip encodes the capture kernels' regions, whose
// chunks hold thousands of records of several threads, and checks that
// the bytes decode to the same Digest and re-encode to the same bytes:
// the store's dedup and the capture checks rely on the encoding being a
// function of the pinball alone.
func TestRecordingsRoundTrip(t *testing.T) {
	for _, k := range captureKernels {
		pb := capture(t, k)
		data, err := pb.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		got, err := pinball.Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", k, err)
		}
		if got.Digest() != pb.Digest() {
			t.Errorf("%s: decoded digest %#x, recorded %#x", k, got.Digest(), pb.Digest())
		}
		again, err := got.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoding changed the bytes (%d -> %d)", k, len(data), len(again))
		}
	}
}
