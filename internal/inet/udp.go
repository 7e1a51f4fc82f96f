package inet

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// UDPHeader is the 8-byte UDP header. The checksum is computed over the
// pseudo-header, header and payload as RFC 768 prescribes.
type UDPHeader struct {
	SrcPort, DstPort Port
	Length           uint16 // header + payload
	Checksum         uint16
}

// MarshalUDP serialises a UDP header plus payload, computing the checksum
// with the pseudo-header for src/dst.
func MarshalUDP(src, dst Endpoint, payload []byte) ([]byte, error) {
	return appendUDP(nil, src, dst, payload)
}

// appendUDP is MarshalUDP into buf's spare capacity — the pooled send
// path's allocation-free form. The spare capacity is overwritten without
// being zeroed first.
func appendUDP(buf []byte, src, dst Endpoint, payload []byte) ([]byte, error) {
	total := UDPHeaderLen + len(payload)
	if total > 0xFFFF {
		return buf, ErrPayloadRange
	}
	base := len(buf)
	buf = slices.Grow(buf, total)[:base+total]
	b := buf[base:]
	binary.BigEndian.PutUint16(b[0:], uint16(src.Port))
	binary.BigEndian.PutUint16(b[2:], uint16(dst.Port))
	binary.BigEndian.PutUint16(b[4:], uint16(total))
	b[6], b[7] = 0, 0 // summed as zero; grown capacity may hold a stale checksum
	copy(b[UDPHeaderLen:], payload)
	cs := udpChecksum(src.Addr, dst.Addr, b)
	if cs == 0 {
		cs = 0xFFFF // RFC 768: transmitted all-ones when computed zero
	}
	binary.BigEndian.PutUint16(b[6:], cs)
	return buf, nil
}

// ParseUDP decodes a UDP header from b (the IP payload) and returns it with
// the application payload. src/dst are needed to verify the pseudo-header
// checksum.
func ParseUDP(srcAddr, dstAddr Addr, b []byte) (UDPHeader, []byte, error) {
	var h UDPHeader
	if len(b) < UDPHeaderLen {
		return h, nil, ErrShortHeader
	}
	h.SrcPort = Port(binary.BigEndian.Uint16(b[0:]))
	h.DstPort = Port(binary.BigEndian.Uint16(b[2:]))
	h.Length = binary.BigEndian.Uint16(b[4:])
	h.Checksum = binary.BigEndian.Uint16(b[6:])
	if int(h.Length) < UDPHeaderLen || int(h.Length) > len(b) {
		return h, nil, ErrBadLength
	}
	if h.Checksum != 0 { // zero means "no checksum" in UDP over IPv4
		if udpChecksum(srcAddr, dstAddr, b[:h.Length]) != 0 {
			return h, nil, ErrBadChecksum
		}
	}
	return h, b[UDPHeaderLen:h.Length], nil
}

// udpChecksum computes the UDP checksum including the IPv4 pseudo-header.
// Verifying a buffer containing its checksum yields 0.
func udpChecksum(src, dst Addr, udp []byte) uint16 {
	return checksumWithInitial(pseudoHeaderSum(src, dst, ProtoUDP, len(udp)), udp)
}

// String summarises the header.
func (h UDPHeader) String() string {
	return fmt.Sprintf("UDP %d -> %d len=%d", h.SrcPort, h.DstPort, h.Length)
}
