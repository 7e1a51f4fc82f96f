package inet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"turbulence/internal/racecheck"
)

// rfc1071Checksum is the test oracle for checksumWithInitial: the RFC 1071
// reference algorithm, one big-endian 16-bit word at a time (an odd last
// byte padded with a zero low byte), carries folded back until the sum
// fits 16 bits, then complemented.
func rfc1071Checksum(initial uint32, b []byte) uint16 {
	sum := uint64(initial)
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint64(b[i])<<8 | uint64(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint64(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// checksumInitials are the running sums the differential tests start
// from: none, the smallest and a one's-complement zero, a real UDP
// pseudo-header, the largest a pseudo-header can sum to, and the top of
// the range.
var checksumInitials = []uint32{
	0, 1, 0xFFFF, 0x10000,
	pseudoHeaderSum(srcEP.Addr, dstEP.Addr, ProtoUDP, 1472),
	pseudoHeaderSum(Addr{255, 255, 255, 255}, Addr{255, 255, 255, 255}, 0xFF, 0xFFFF),
	0xFFFFFFFF,
}

// TestChecksumMatchesRFC1071 compares the 64-bit checksum against the
// reference on every length 0..2048 and on 65,535 bytes (odd lengths
// included), for random, all-0x00 and all-0xFF buffers (the carry edges),
// at every start alignment within a word, and from nonzero initial sums.
func TestChecksumMatchesRFC1071(t *testing.T) {
	const maxLen = 2048
	rng := rand.New(rand.NewSource(1071))
	random := make([]byte, 0xFFFF+8)
	rng.Read(random)
	zeros := make([]byte, 0xFFFF+8)
	ones := bytes.Repeat([]byte{0xFF}, 0xFFFF+8)
	bufs := []struct {
		name string
		b    []byte
	}{{"random", random}, {"zeros", zeros}, {"ones", ones}}
	check := func(name string, initial uint32, b []byte) {
		t.Helper()
		if got, want := checksumWithInitial(initial, b), rfc1071Checksum(initial, b); got != want {
			t.Fatalf("%s len=%d initial=%#x: checksum %#04x, reference %#04x", name, len(b), initial, got, want)
		}
	}
	for _, buf := range bufs {
		for _, initial := range checksumInitials {
			for n := 0; n <= maxLen; n++ {
				check(buf.name, initial, buf.b[n%8:n%8+n])
			}
			check(buf.name, initial, buf.b[:0xFFFF])
			check(buf.name, initial, buf.b[3:3+0xFFFF])
		}
	}
	// Random lengths and initials, with the 0x00/0xFF extremes spliced in
	// so long runs of all-ones meet carries mid-word.
	for i := 0; i < 2000; i++ {
		n := rng.Intn(0xFFFF + 1)
		b := make([]byte, n)
		switch rng.Intn(3) {
		case 0:
			rng.Read(b)
		case 1:
			copy(b, ones)
			for k := rng.Intn(4); k > 0 && n > 0; k-- {
				b[rng.Intn(n)] = byte(rng.Intn(256))
			}
		}
		check("mixed", rng.Uint32(), b)
	}
}

// TestChecksumFoldEdges pins the one's-complement corner the fold must
// keep: a sum that is zero only modulo 0xFFFF (all-ones data) verifies to
// 0x0000, while a true zero sum gives 0xFFFF.
func TestChecksumFoldEdges(t *testing.T) {
	if got := Checksum(make([]byte, 40)); got != 0xFFFF {
		t.Fatalf("all-zero checksum %#04x, want 0xffff", got)
	}
	if got := Checksum(bytes.Repeat([]byte{0xFF}, 40)); got != 0 {
		t.Fatalf("all-ones checksum %#04x, want 0", got)
	}
	if got := checksumWithInitial(0xFFFF, nil); got != 0 {
		t.Fatalf("initial 0xffff alone: %#04x, want 0", got)
	}
}

// zeroChecksumPayload returns a payload whose UDP checksum from srcEP to
// dstEP computes to zero: its last word is the checksum the datagram has
// with that word zeroed, which brings the folded sum to 0xFFFF.
func zeroChecksumPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i * 7)
	}
	p[n-2], p[n-1] = 0, 0
	b, _ := MarshalUDP(srcEP, dstEP, p)
	b[6], b[7] = 0, 0
	binary.BigEndian.PutUint16(p[n-2:], udpChecksum(srcEP.Addr, dstEP.Addr, b))
	return p
}

// TestUDPComputedZeroSentAsOnes covers RFC 768's rule on the send path: a
// checksum that computes to zero goes out as 0xFFFF (zero would mean "no
// checksum"), and the receiver still verifies it.
func TestUDPComputedZeroSentAsOnes(t *testing.T) {
	for _, n := range []int{2, 64, 1472} {
		p := zeroChecksumPayload(n)
		b, _ := MarshalUDP(srcEP, dstEP, p)
		b[6], b[7] = 0, 0
		if cs := udpChecksum(srcEP.Addr, dstEP.Addr, b); cs != 0 {
			t.Fatalf("n=%d: crafted payload computes checksum %#04x, want 0", n, cs)
		}
		b, err := MarshalUDP(srcEP, dstEP, p)
		if err != nil {
			t.Fatal(err)
		}
		if cs := binary.BigEndian.Uint16(b[6:]); cs != 0xFFFF {
			t.Fatalf("n=%d: computed-zero checksum sent as %#04x, want 0xffff", n, cs)
		}
		if _, got, err := ParseUDP(srcEP.Addr, dstEP.Addr, b); err != nil || !bytes.Equal(got, p) {
			t.Fatalf("n=%d: receiver rejects the 0xffff checksum: %v", n, err)
		}
	}
}

// TestAppendUDPIgnoresStaleBytes marshals into buffers whose spare
// capacity holds garbage — as a recycled pool buffer does — and requires
// the same bytes as a fresh marshal: nothing stale may reach the header or
// the checksum.
func TestAppendUDPIgnoresStaleBytes(t *testing.T) {
	for _, n := range []int{0, 1, 7, 972, 1472, 16 << 10} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*31 + n)
		}
		want, _ := MarshalUDP(srcEP, dstEP, payload)
		for _, junk := range []byte{0x00, 0xA5, 0xFF} {
			buf := bytes.Repeat([]byte{junk}, 3+len(want))[:3]
			got, err := appendUDP(buf, srcEP, dstEP, payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[3:], want) {
				t.Fatalf("n=%d junk=%#02x: marshal into a dirty buffer differs from a fresh one", n, junk)
			}
			if _, _, err := ParseUDP(srcEP.Addr, dstEP.Addr, got[3:]); err != nil {
				t.Fatalf("n=%d junk=%#02x: %v", n, junk, err)
			}
		}
	}
}

// TestTCPCodecAllocFree pins the TCP checksum's in-place pseudo-header:
// parsing a segment allocates nothing, and MarshalTCP allocates only the
// segment it returns.
func TestTCPCodecAllocFree(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation pins are unreliable under -race")
	}
	h := TCPHeader{SrcPort: 80, DstPort: 1025, Seq: 1, Flags: TCPAck | TCPPsh, Window: 8192}
	payload := make([]byte, 1460)
	seg, err := MarshalTCP(srcEP.Addr, dstEP.Addr, h, payload)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := ParseTCP(srcEP.Addr, dstEP.Addr, seg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseTCP allocates %.1f times, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		seg, _ := MarshalTCP(srcEP.Addr, dstEP.Addr, h, payload)
		if _, _, err := ParseTCP(srcEP.Addr, dstEP.Addr, seg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("MarshalTCP + ParseTCP allocate %.1f times, want 1 (the returned segment)", allocs)
	}
}

// FuzzChecksum checks the 64-bit checksum against the RFC 1071 reference
// on arbitrary bytes and initial sums. The seed corpus holds UDP segments
// cut from a golden pair run, each with its pseudo-header sum.
func FuzzChecksum(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(0xFFFF), []byte{0xFF})
	f.Fuzz(func(t *testing.T, initial uint32, b []byte) {
		if got, want := checksumWithInitial(initial, b), rfc1071Checksum(initial, b); got != want {
			t.Fatalf("len=%d initial=%#x: checksum %#04x, reference %#04x", len(b), initial, got, want)
		}
	})
}

// FuzzParseUDP feeds arbitrary bytes to the UDP decoder (live mode hands
// it socket bytes): it must not panic, and any datagram it accepts must
// re-marshal to exactly the bytes it covered. A zero checksum ("none") is
// the one field a re-marshal may fill in. The seed corpus holds the UDP
// segments of a golden pair run with their IPv4 addresses.
func FuzzParseUDP(f *testing.F) {
	f.Add(uint32(0x82D70A05), uint32(0xCF2E0109), []byte{0, 1, 0, 2, 0, 8, 0, 0})
	f.Fuzz(func(t *testing.T, src, dst uint32, b []byte) {
		var sa, da Addr
		binary.BigEndian.PutUint32(sa[:], src)
		binary.BigEndian.PutUint32(da[:], dst)
		h, payload, err := ParseUDP(sa, da, b)
		if err != nil {
			return
		}
		again, err := MarshalUDP(Endpoint{Addr: sa, Port: h.SrcPort}, Endpoint{Addr: da, Port: h.DstPort}, payload)
		if err != nil {
			t.Fatalf("accepted datagram does not re-marshal: %v", err)
		}
		want := b[:h.Length]
		if h.Checksum == 0 {
			want = bytes.Clone(want)
			copy(want[6:8], again[6:8])
		}
		if !bytes.Equal(again, want) {
			t.Fatalf("re-marshal differs:\n got %x\nwant %x", again, want)
		}
	})
}
