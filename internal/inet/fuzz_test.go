package inet

import (
	"bytes"
	"testing"
)

// FuzzIPv4Parsers feeds arbitrary bytes to the IPv4 decoders: ParseIPv4
// and ParseDatagram on the input as a datagram, ParseTCP and ParseICMP on
// its payload and on the raw input. They must never panic, ParseDatagram
// must agree with ParseIPv4, and every accepted value must re-marshal to
// the bytes it was parsed from and parse back equal. The marshallers
// recompute checksums and write as zero the bits the parsers ignore (the
// IPv4 reserved flag, the TCP reserved bits and urgent pointer), so those
// are left out of the byte comparison, and checksum fields out of the
// value comparison. The corpus is the golden pair run's first datagram of
// each kind plus a TCP segment; `go run ./scripts/fuzzcorpus` writes it.
func FuzzIPv4Parsers(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		h, payload, err := ParseIPv4(b)
		d, derr := ParseDatagram(b)
		if (err == nil) != (derr == nil) {
			t.Fatalf("ParseIPv4 error %v, ParseDatagram error %v", err, derr)
		}
		checkTCP(t, Addr{}, Addr{}, b)
		checkICMP(t, b)
		if err != nil {
			return
		}
		if d.Header != h || !bytes.Equal(d.Payload, payload) {
			t.Fatalf("ParseDatagram = %+v, %x; ParseIPv4 = %+v, %x", d.Header, d.Payload, h, payload)
		}
		wire, err := d.Marshal()
		if err != nil {
			t.Fatalf("accepted datagram does not re-marshal: %v", err)
		}
		want := bytes.Clone(b[:h.TotalLen])
		want[6] &^= 0x80 // the reserved flag bit
		requireRemarshal(t, "datagram", wire, want, 10)
		again, err := ParseDatagram(wire)
		if err != nil {
			t.Fatalf("re-marshalled datagram %x does not parse: %v", wire, err)
		}
		h.Checksum, again.Header.Checksum = 0, 0
		if again.Header != h || !bytes.Equal(again.Payload, payload) {
			t.Fatalf("datagram parses back as %+v, %x; want %+v, %x", again.Header, again.Payload, h, payload)
		}
		switch h.Protocol {
		case ProtoTCP:
			checkTCP(t, h.Src, h.Dst, payload)
		case ProtoICMP:
			checkICMP(t, payload)
		}
	})
}

// requireRemarshal fails unless got equals want outside the 2-byte
// checksum field at sum.
func requireRemarshal(t *testing.T, what string, got, want []byte, sum int) {
	t.Helper()
	want = bytes.Clone(want)
	if len(got) == len(want) {
		copy(want[sum:sum+2], got[sum:sum+2])
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s re-marshals to\n%x\nnot\n%x", what, got, want)
	}
}

// checkTCP parses b as a TCP segment between src and dst and, if it is
// accepted, requires it to re-marshal to b and parse back equal.
func checkTCP(t *testing.T, src, dst Addr, b []byte) {
	t.Helper()
	h, payload, err := ParseTCP(src, dst, b)
	if err != nil {
		return
	}
	seg, err := MarshalTCP(src, dst, h, payload)
	if err != nil {
		t.Fatalf("accepted TCP segment does not re-marshal: %v", err)
	}
	want := bytes.Clone(b)
	want[12] = 5 << 4         // data offset 5 words, reserved bits zero
	want[18], want[19] = 0, 0 // urgent pointer
	requireRemarshal(t, "TCP segment", seg, want, 16)
	again, payload2, err := ParseTCP(src, dst, seg)
	if err != nil {
		t.Fatalf("re-marshalled TCP segment %x does not parse: %v", seg, err)
	}
	h.Checksum, again.Checksum = 0, 0
	if again != h || !bytes.Equal(payload2, payload) {
		t.Fatalf("TCP segment parses back as %+v, %x; want %+v, %x", again, payload2, h, payload)
	}
}

// checkICMP parses b as an ICMP message and, if it is accepted, requires
// it to re-marshal to b and parse back equal.
func checkICMP(t *testing.T, b []byte) {
	t.Helper()
	m, err := ParseICMP(b)
	if err != nil {
		return
	}
	msg := MarshalICMP(m)
	requireRemarshal(t, "ICMP message", msg, b, 2)
	again, err := ParseICMP(msg)
	if err != nil {
		t.Fatalf("re-marshalled ICMP message does not parse: %v", err)
	}
	if again.Type != m.Type || again.Code != m.Code || again.ID != m.ID || again.Seq != m.Seq || !bytes.Equal(again.Payload, m.Payload) {
		t.Fatalf("ICMP message parses back as %+v; want %+v", again, m)
	}
}
