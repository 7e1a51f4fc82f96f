package segment

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// appendListByteLoop is the test oracle for AppendList: the encoder as it
// was before the filler was copied from a table — zero-grown output and a
// byte-at-a-time filler loop.
func appendListByteLoop(dst []byte, segs []Segment) []byte {
	total := 0
	for _, s := range segs {
		total += int(s.Length)
	}
	base := len(dst)
	dst = append(dst, make([]byte, 2+headerLen*len(segs)+total)...)
	out := dst[base:]
	binary.BigEndian.PutUint16(out[0:], uint16(len(segs)))
	off := 2
	for _, s := range segs {
		binary.BigEndian.PutUint32(out[off:], s.FrameIndex)
		binary.BigEndian.PutUint16(out[off+4:], s.Offset)
		binary.BigEndian.PutUint16(out[off+6:], s.Length)
		var flags byte
		if s.Key {
			flags |= flagKey
		}
		if s.Last {
			flags |= flagLast
		}
		out[off+8] = flags
		out[off+9] = 0
		off += headerLen
	}
	for i := off; i < len(out); i++ {
		out[i] = byte(i * 131)
	}
	return dst
}

// randomSegs draws a segment list of up to maxSegs descriptors whose
// lengths stay under maxLen each.
func randomSegs(rng *rand.Rand, maxSegs, maxLen int) []Segment {
	segs := make([]Segment, rng.Intn(maxSegs+1))
	for i := range segs {
		segs[i] = Segment{
			FrameIndex: rng.Uint32(),
			Offset:     uint16(rng.Intn(0x10000)),
			Length:     uint16(rng.Intn(maxLen + 1)),
			Key:        rng.Intn(2) == 0,
			Last:       rng.Intn(2) == 0,
		}
	}
	return segs
}

// TestAppendListMatchesByteLoop compares AppendList with the byte-loop
// oracle on random segment lists, encoded at random nonzero bases behind a
// protocol-header-like prefix into buffers whose spare capacity holds
// garbage, and on lists whose filler exceeds 64 KiB.
func TestAppendListMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	check := func(base int, segs []Segment) {
		t.Helper()
		prefix := make([]byte, base)
		rng.Read(prefix)
		want := appendListByteLoop(bytes.Clone(prefix), segs)
		dirty := bytes.Repeat([]byte{0xA5}, base+ListWireSize(segs))
		copy(dirty, prefix)
		for _, dst := range [][]byte{bytes.Clone(prefix), dirty[:base]} {
			got := AppendList(dst, segs)
			if !bytes.Equal(got, want) {
				t.Fatalf("base=%d segs=%d filler=%d: AppendList differs from the byte loop",
					base, len(segs), ListWireSize(segs)-2-headerLen*len(segs))
			}
		}
	}
	for i := 0; i < 3000; i++ {
		check(rng.Intn(40), randomSegs(rng, 12, 1500))
	}
	// Filler above 64 KiB: several maximal segments in one list.
	for _, base := range []int{0, 1, 9, 11, 255, 256, 257} {
		check(base, []Segment{{Length: 0xFFFF}, {Length: 0xFFFF, Last: true}, {Length: 3}})
	}
	// Every filler phase: lengths around the 256-byte period.
	for n := 0; n <= 600; n++ {
		check(n%13, []Segment{{Length: uint16(n)}})
	}
}

// FuzzDecodeListInto feeds arbitrary bytes to the segment-list decoder
// (live mode hands it socket bytes): it must not panic, and any list it
// accepts must re-encode to the same length and decode back to the same
// descriptors, wherever in a buffer it is encoded. The seed corpus holds
// segment lists cut from a golden pair run's data packets.
func FuzzDecodeListInto(f *testing.F) {
	f.Add(EncodeList([]Segment{{FrameIndex: 3, Length: 5, Key: true, Last: true}}))
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		segs, err := DecodeListInto(nil, b)
		if err != nil {
			return
		}
		enc := AppendList([]byte{0xEE, 0xEE, 0xEE}, segs)[3:]
		if len(enc) != len(b) {
			t.Fatalf("re-encoded list is %d bytes, input %d", len(enc), len(b))
		}
		if !bytes.Equal(enc, EncodeList(segs)) {
			t.Fatal("encoding depends on the buffer base")
		}
		again, err := DecodeList(enc)
		if err != nil {
			t.Fatalf("re-encoded list does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, segs) {
			t.Fatalf("round trip changed the descriptors:\n got %+v\nwant %+v", again, segs)
		}
	})
}
