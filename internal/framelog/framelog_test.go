package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// testFrame mirrors the callers' frame shape: exactly one field set.
type testFrame struct {
	Header *testHeader
	Entry  *testEntry
}

type testHeader struct {
	Magic   string
	Version int
}

type testEntry struct {
	Key  string
	Vals []int
}

// scan decodes frames from b until the first error, returning them, the
// scanner's end offset and that error.
func scan(b []byte) ([]testFrame, int64, error) {
	sc := NewScanner(bytes.NewReader(b), int64(len(b)))
	var frames []testFrame
	for {
		var fr testFrame
		if err := sc.Next(&fr); err != nil {
			return frames, sc.End(), err
		}
		frames = append(frames, fr)
	}
}

// FuzzFrames feeds arbitrary bytes to the scanner. It must never panic,
// must stop with a clean end, a torn frame or a corrupt one, must report
// an end offset inside the input, and the input cut at that offset must
// rescan to the same frames followed by a clean end — the property that
// makes trimming there safe.
func FuzzFrames(f *testing.F) {
	var log bytes.Buffer
	var lastFrame int // offset of the last frame
	for _, fr := range []testFrame{
		{Header: &testHeader{Magic: "turbulence-test", Version: 3}},
		{Entry: &testEntry{Key: "a", Vals: []int{1, 2, 3}}},
		{Entry: &testEntry{Key: "b"}},
	} {
		lastFrame = log.Len()
		if _, err := Append(&log, fr); err != nil {
			f.Fatal(err)
		}
	}
	whole := log.Bytes()
	last := len(whole) - 20 // inside the last frame's body

	oversized := bytes.Clone(whole)
	oversized = binary.BigEndian.AppendUint32(oversized, 0xFFFFFFF0)
	oversized = binary.BigEndian.AppendUint32(oversized, 0)
	oversized = append(oversized, 1, 2, 3, 4)

	badCRC := bytes.Clone(whole)
	badCRC[last] ^= 0x01

	longer := bytes.Clone(whole) // the last frame's length prefix grown
	longer[lastFrame+2] ^= 0x01

	f.Add(whole)
	f.Add(whole[:last]) // torn tail
	f.Add(oversized)
	f.Add(badCRC)
	f.Add(longer)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		frames, end, err := scan(b)
		if err != io.EOF && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("scan stopped with %v, want io.EOF, ErrTorn or ErrCorrupt", err)
		}
		if end < 0 || end > int64(len(b)) {
			t.Fatalf("end offset %d outside a %d-byte input", end, len(b))
		}
		again, end2, err := scan(b[:end])
		if err != io.EOF {
			t.Fatalf("input cut at its end offset %d rescans to %v, want io.EOF", end, err)
		}
		if end2 != end || !reflect.DeepEqual(again, frames) {
			t.Fatalf("input cut at %d rescans to %d frames ending at %d, want %d ending at %d",
				end, len(again), end2, len(frames), end)
		}
	})
}
