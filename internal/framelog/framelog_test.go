package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"testing"
)

// scan reads frame bodies from b until the first error, returning copies
// of them, the scanner's end offset and that error.
func scan(b []byte) ([][]byte, int64, error) {
	sc := NewScanner(bytes.NewReader(b), int64(len(b)))
	var bodies [][]byte
	for {
		body, err := sc.Next()
		if err != nil {
			return bodies, sc.End(), err
		}
		bodies = append(bodies, bytes.Clone(body))
	}
}

// TestFrameLayout pins a frame byte for byte: [uint32 len][uint32
// CRC32-IEEE][body], big-endian, and a scan hands the bodies back in order,
// including an empty one, even though the scanner reuses its buffer.
func TestFrameLayout(t *testing.T) {
	bodies := [][]byte{[]byte("header"), {}, []byte("a longer second body")}
	var log, byHand bytes.Buffer
	for _, body := range bodies {
		n, err := Append(&log, body)
		if err != nil || n != prefixLen+len(body) {
			t.Fatalf("Append = %d, %v; want %d bytes", n, err, prefixLen+len(body))
		}
		byHand.Write(binary.BigEndian.AppendUint32(nil, uint32(len(body))))
		byHand.Write(binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(body)))
		byHand.Write(body)
	}
	if !bytes.Equal(log.Bytes(), byHand.Bytes()) {
		t.Fatalf("Append writes\n%x\nwant\n%x", log.Bytes(), byHand.Bytes())
	}
	got, end, err := scan(log.Bytes())
	if err != io.EOF || end != int64(log.Len()) || !reflect.DeepEqual(got, [][]byte{bodies[0], {}, bodies[2]}) {
		t.Fatalf("scan = %q, end %d, %v; want %q, end %d, io.EOF", got, end, err, bodies, log.Len())
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
	for _, body := range []string{
		"turbulence-test header v3",
		"entry a: a body long enough to tear in the middle",
		"entry b",
	} {
		lastFrame = log.Len()
		if _, err := Append(&log, []byte(body)); err != nil {
			f.Fatal(err)
		}
	}
	whole := log.Bytes()
	last := len(whole) - 4 // inside the last frame's body

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
