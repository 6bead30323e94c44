package pinball_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/pinball"
)

// fuzzSeeds returns the decoder fuzz corpus: the Save encoding of every
// pinball kind, the version 2 and 3 fixtures, and every file corruptor's
// output on each encoding.
func fuzzSeeds(f *testing.F) [][]byte {
	whole := samplePinball()
	whole.Kind = pinball.KindWhole
	var seeds [][]byte
	for _, pb := range []*pinball.Pinball{journalPinball(), whole, slicePinball(), ringPinball()} {
		data, err := pb.EncodeBytes()
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
		for _, c := range faultinject.FileCorruptors() {
			if bad, ok := c.Apply(data); ok {
				seeds = append(seeds, bad)
			}
		}
	}
	for _, fx := range v2Fixtures {
		seeds = append(seeds, readFixture(f, fx.file))
	}
	for _, fx := range v2Fixtures {
		seeds = append(seeds, readFixture(f, v3Fixture(fx.file)))
	}
	return seeds
}

// typedDecodeErr reports whether err wraps one of Decode's sentinels.
func typedDecodeErr(err error) bool {
	for _, s := range []error{pinball.ErrNotPinball, pinball.ErrVersionSkew, pinball.ErrTruncated, pinball.ErrCorrupt} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// checkDecode is FuzzDecode's property: Decode fails typed, or its
// pinball re-encodes and decodes to the same Digest.
func checkDecode(t *testing.T, data []byte) error {
	p, err := pinball.Decode(data)
	if err != nil {
		if !typedDecodeErr(err) {
			t.Fatalf("untyped decode error: %v", err)
		}
		return err
	}
	re, err := p.EncodeBytes()
	if err != nil {
		t.Fatalf("decoded pinball does not re-encode: %v", err)
	}
	q, err := pinball.Decode(re)
	if err != nil {
		t.Fatalf("re-encoded pinball does not decode: %v", err)
	}
	if q.Digest() != p.Digest() {
		t.Fatalf("re-encoding changed the digest: %#x -> %#x", p.Digest(), q.Digest())
	}
	return nil
}

// checkSalvage is FuzzSalvage's property: Salvage fails typed with a
// report, or returns a pinball that passes Validate.
func checkSalvage(t *testing.T, data []byte) error {
	p, rep, err := pinball.SalvageBytes(data)
	if rep == nil {
		t.Fatal("salvage returned no report")
	}
	if err != nil {
		if !errors.Is(err, pinball.ErrUnsalvageable) {
			t.Fatalf("salvage error is not ErrUnsalvageable: %v", err)
		}
		return err
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("salvaged pinball fails validation: %v", err)
	}
	return nil
}

func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data) })
}

func FuzzSalvage(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkSalvage(t, data) })
}

// frameBytes builds one raw frame: id, big-endian length, CRC, payload.
func frameBytes(id byte, n uint64, payload []byte) []byte {
	out := []byte{id}
	out = binary.BigEndian.AppendUint64(out, n)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// TestDecodeEdgeInputs pins framing edge cases the fuzz targets explore:
// each input must fail Decode with its typed error, and Salvage typed.
func TestDecodeEdgeInputs(t *testing.T) {
	good, err := journalPinball().EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	secs, err := pinball.SectionOffsets(good)
	if err != nil {
		t.Fatal(err)
	}
	state, commit := secs[1], secs[len(secs)-1]
	header := []byte("DRPB\x04R")
	for _, tc := range []struct {
		summary string
		input   []byte
		wantErr error
	}{
		{"empty input", nil, pinball.ErrNotPinball},
		{"magic without a version byte", []byte("DRPB"), pinball.ErrNotPinball},
		{"version byte without a kind byte", []byte("DRPB\x04"), pinball.ErrTruncated},
		{"retired version 1 header", []byte("DRPB\x01\x1f\x8b"), pinball.ErrVersionSkew},
		{"journal header without frames", header, pinball.ErrTruncated},
		{"version 2 file declaring no sections", []byte("DRPB\x02R\x00"), pinball.ErrCorrupt},
		{"version 2 count byte missing", []byte("DRPB\x02R"), pinball.ErrTruncated},
		{"empty unknown frame, no commit", append(header, frameBytes(99, 0, nil)...), pinball.ErrTruncated},
		{"frame length past the 1 GiB cap", append(header, frameBytes(1, 1<<62, nil)...), pinball.ErrCorrupt},
		{"empty meta payload", append(header, frameBytes(1, 0, nil)...), pinball.ErrCorrupt},
		{"commit frame with no other frames",
			append(append([]byte(nil), header...), good[commit.Off:commit.Off+commit.Len]...), pinball.ErrCorrupt},
		{"state frame duplicated before the commit",
			append(append(append([]byte(nil), good[:commit.Off]...), good[state.Off:state.Off+state.Len]...),
				good[commit.Off:]...), pinball.ErrCorrupt},
		{"frames after the commit frame",
			append(append([]byte(nil), good...), frameBytes(99, 0, nil)...), pinball.ErrCorrupt},
	} {
		t.Run(tc.summary, func(t *testing.T) {
			if err := checkDecode(t, tc.input); !errors.Is(err, tc.wantErr) {
				t.Errorf("Decode: err = %v, want %v", err, tc.wantErr)
			}
			checkSalvage(t, tc.input)
		})
	}
}
