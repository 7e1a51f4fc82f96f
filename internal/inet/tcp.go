package inet

import (
	"encoding/binary"
	"fmt"
)

// TCP flag bits.
const (
	TCPFin = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
)

// TCPHeaderLen is the fixed header size (no options).
const TCPHeaderLen = 20

// TCPHeader is a fixed 20-byte TCP header. It exists so the paper's
// "players can also stream over TCP" comparison (§II.D) and the window-
// based-transport burstiness analysis (§I) run over real TCP segments that
// the capture tooling can parse.
type TCPHeader struct {
	SrcPort, DstPort Port
	Seq, Ack         uint32
	Flags            byte
	Window           uint16
	Checksum         uint16
}

// HasFlag reports whether all given flag bits are set.
func (h TCPHeader) HasFlag(f byte) bool { return h.Flags&f == f }

// MarshalTCP serialises a segment (header + payload) with the
// pseudo-header checksum.
func MarshalTCP(src, dst Addr, h TCPHeader, payload []byte) ([]byte, error) {
	total := TCPHeaderLen + len(payload)
	if total > 0xFFFF {
		return nil, ErrPayloadRange
	}
	b := make([]byte, total)
	binary.BigEndian.PutUint16(b[0:], uint16(h.SrcPort))
	binary.BigEndian.PutUint16(b[2:], uint16(h.DstPort))
	binary.BigEndian.PutUint32(b[4:], h.Seq)
	binary.BigEndian.PutUint32(b[8:], h.Ack)
	b[12] = 5 << 4 // data offset: 5 words
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:], h.Window)
	copy(b[TCPHeaderLen:], payload)
	cs := tcpChecksum(src, dst, b)
	binary.BigEndian.PutUint16(b[16:], cs)
	return b, nil
}

// ParseTCP decodes and checksum-verifies a segment from the IP payload.
func ParseTCP(src, dst Addr, b []byte) (TCPHeader, []byte, error) {
	var h TCPHeader
	if len(b) < TCPHeaderLen {
		return h, nil, ErrShortHeader
	}
	if off := int(b[12]>>4) * 4; off != TCPHeaderLen {
		return h, nil, fmt.Errorf("%w: tcp options unsupported (offset %d)", ErrBadLength, off)
	}
	if tcpChecksum(src, dst, b) != 0 {
		return h, nil, ErrBadChecksum
	}
	h.SrcPort = Port(binary.BigEndian.Uint16(b[0:]))
	h.DstPort = Port(binary.BigEndian.Uint16(b[2:]))
	h.Seq = binary.BigEndian.Uint32(b[4:])
	h.Ack = binary.BigEndian.Uint32(b[8:])
	h.Flags = b[13]
	h.Window = binary.BigEndian.Uint16(b[14:])
	h.Checksum = binary.BigEndian.Uint16(b[16:])
	return h, b[TCPHeaderLen:], nil
}

// tcpChecksum computes the TCP checksum including the IPv4 pseudo-header.
// Verifying a segment containing its checksum yields 0.
func tcpChecksum(src, dst Addr, seg []byte) uint16 {
	return checksumWithInitial(pseudoHeaderSum(src, dst, ProtoTCP, len(seg)), seg)
}

// BuildTCP assembles a complete TCP/IPv4 datagram.
func BuildTCP(src, dst Endpoint, ipID uint16, h TCPHeader, payload []byte) (*Datagram, error) {
	h.SrcPort, h.DstPort = src.Port, dst.Port
	seg, err := MarshalTCP(src.Addr, dst.Addr, h, payload)
	if err != nil {
		return nil, err
	}
	d := &Datagram{
		Header: IPv4Header{
			ID:       ipID,
			TTL:      DefaultTTL,
			Protocol: ProtoTCP,
			Src:      src.Addr,
			Dst:      dst.Addr,
		},
		Payload: seg,
	}
	if d.Len() > 0xFFFF {
		return nil, ErrPayloadRange
	}
	d.Header.TotalLen = uint16(d.Len())
	return d, nil
}

// String summarises the header.
func (h TCPHeader) String() string {
	flags := ""
	for _, f := range []struct {
		bit  byte
		name string
	}{{TCPSyn, "S"}, {TCPAck, "A"}, {TCPFin, "F"}, {TCPRst, "R"}, {TCPPsh, "P"}} {
		if h.Flags&f.bit != 0 {
			flags += f.name
		}
	}
	return fmt.Sprintf("TCP %d -> %d [%s] seq=%d ack=%d win=%d", h.SrcPort, h.DstPort, flags, h.Seq, h.Ack, h.Window)
}
