package pinball_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pinball"
)

// slicePinball is samplePinball as a slice pinball without syscalls or
// order edges, so its slice section directly follows the schedule.
func slicePinball() *pinball.Pinball {
	pb := samplePinball()
	pb.Kind = pinball.KindSlice
	pb.Syscalls, pb.OrderEdges = nil, nil
	return pb
}

// v2Fixtures are version 2 (read-only format) files under testdata,
// written by the last encoder of that format from the helper pinballs
// named here, with the Digest they were encoded from.
var v2Fixtures = []struct {
	file   string
	pb     func() *pinball.Pinball
	digest uint64
}{
	{"v2-region.pinball", journalPinball, 0xb06a7fe5903645d8},
	{"v2-slice.pinball", slicePinball, 0x6409d41c44f544c6},
	{"v2-ring.pinball", ringPinball, 0x5fc97e5d92b9a3d2},
}

// readFixture returns the bytes of a testdata file.
func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// encodings returns the version 2 fixture and the Save encoding of pb,
// keyed by format version, so one test covers both read paths.
func encodings(t *testing.T, fixture string, pb *pinball.Pinball) map[string][]byte {
	t.Helper()
	v3, err := pb.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"v2": readFixture(t, fixture), "v3": v3}
}

// TestV2FixturesLoadEqual checks that each version 2 fixture and the
// Save encoding of the same pinball decode to the recorded Digest.
func TestV2FixturesLoadEqual(t *testing.T) {
	for _, fx := range v2Fixtures {
		t.Run(fx.file, func(t *testing.T) {
			pb := fx.pb()
			if got := pb.Digest(); got != fx.digest {
				t.Fatalf("helper pinball digest %#x, fixture was written from %#x", got, fx.digest)
			}
			for version, data := range encodings(t, fx.file, pb) {
				if want := byte(version[1] - '0'); data[4] != want {
					t.Fatalf("%s: version byte %d, want %d", version, data[4], want)
				}
				got, err := pinball.Decode(data)
				if err != nil {
					t.Fatalf("%s: decode: %v", version, err)
				}
				if got.Digest() != fx.digest {
					t.Errorf("%s: decoded digest %#x, want %#x", version, got.Digest(), fx.digest)
				}
			}
		})
	}
}

// TestSaveIsOneShotJournal pins the written layout: a committed version
// 3 journal whose leading meta and commit frame bracket the streams,
// optional streams last.
func TestSaveIsOneShotJournal(t *testing.T) {
	data, err := journalPinball().EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != 3 {
		t.Fatalf("Save wrote version %d, want 3", data[4])
	}
	secs, err := pinball.SectionOffsets(data)
	if err != nil {
		t.Fatal(err)
	}
	var ids []byte
	for _, s := range secs {
		ids = append(ids, s.ID)
	}
	if want := []byte{1, 2, 8, 9, 10, 11, 12}; !bytes.Equal(ids, want) {
		t.Errorf("frame ids %v, want %v", ids, want)
	}
}
