package pinball_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
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
// named here, with the Digest they were encoded from. The version 3
// fixtures (v3Fixture) were written from the same pinballs by the last
// encoder of version 3.
var v2Fixtures = []struct {
	file   string
	pb     func() *pinball.Pinball
	digest uint64
}{
	{"v2-region.pinball", journalPinball, 0xb06a7fe5903645d8},
	{"v2-slice.pinball", slicePinball, 0x6409d41c44f544c6},
	{"v2-ring.pinball", ringPinball, 0x5fc97e5d92b9a3d2},
}

// v3Fixture names the version 3 fixture written from the same pinball as
// the version 2 fixture v2file.
func v3Fixture(v2file string) string {
	return "v3" + strings.TrimPrefix(v2file, "v2")
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

// encodings returns the version 2 fixture, its version 3 sibling and
// the Save encoding of pb, keyed by format version, so one test covers
// every read path.
func encodings(t *testing.T, fixture string, pb *pinball.Pinball) map[string][]byte {
	t.Helper()
	v4, err := pb.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"v2": readFixture(t, fixture), "v3": readFixture(t, v3Fixture(fixture)), "v4": v4}
}

// TestV2FixturesLoadEqual checks that each version 2 fixture, its
// version 3 sibling and the Save encoding of the same pinball decode to
// the recorded Digest.
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

// TestV3FixturesReencode decodes each version 3 fixture, re-encodes it
// (as version 4, the only version written) and checks that the new
// bytes decode to the fixture's recorded Digest.
func TestV3FixturesReencode(t *testing.T) {
	for _, fx := range v2Fixtures {
		file := v3Fixture(fx.file)
		t.Run(file, func(t *testing.T) {
			old, err := pinball.Decode(readFixture(t, file))
			if err != nil {
				t.Fatal(err)
			}
			data, err := old.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			if data[4] != 4 {
				t.Fatalf("re-encoded as version %d, want 4", data[4])
			}
			got, err := pinball.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if got.Digest() != fx.digest {
				t.Errorf("re-encoded digest %#x, want %#x", got.Digest(), fx.digest)
			}
		})
	}
}

// TestSalvageTornV3Journal tears the version 3 region fixture and its
// version 4 re-encoding before each frame after the state frame: both
// versions must salvage to the same pinball, or both fail.
func TestSalvageTornV3Journal(t *testing.T) {
	v3 := readFixture(t, "v3-region.pinball")
	v4, err := journalPinball().EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	s3, err := pinball.SectionOffsets(v3)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := pinball.SectionOffsets(v4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s3) != len(s4) {
		t.Fatalf("v3 fixture has %d frames, v4 encoding %d", len(s3), len(s4))
	}
	salvaged := 0
	for i := 2; i < len(s3); i++ {
		p3, _, err3 := pinball.SalvageBytes(v3[:s3[i].Off+5])
		p4, _, err4 := pinball.SalvageBytes(v4[:s4[i].Off+5])
		if (err3 == nil) != (err4 == nil) {
			t.Fatalf("torn before frame #%d (id %d): v3 err %v, v4 err %v", i+1, s3[i].ID, err3, err4)
		}
		if err3 != nil {
			continue
		}
		salvaged++
		if p3.Digest() != p4.Digest() {
			t.Errorf("torn before frame #%d (id %d): v3 salvages to %#x, v4 to %#x", i+1, s3[i].ID, p3.Digest(), p4.Digest())
		}
	}
	if salvaged == 0 {
		t.Error("no torn v3 journal salvaged")
	}
}

// TestSaveIsOneShotJournal pins the written layout: a committed version
// 4 journal whose leading meta and commit frame bracket the streams,
// optional streams last.
func TestSaveIsOneShotJournal(t *testing.T) {
	data, err := journalPinball().EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != 4 {
		t.Fatalf("Save wrote version %d, want 4", data[4])
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
