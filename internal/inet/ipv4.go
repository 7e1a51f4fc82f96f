package inet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Header and size constants. EthernetOverhead is why the paper's Ethereal
// traces report 1514-byte packets for a 1500-byte IP MTU: libpcap counts the
// 14-byte Ethernet header.
const (
	IPv4HeaderLen    = 20 // we do not model IP options
	UDPHeaderLen     = 8
	DefaultMTU       = 1500 // Windows 2000 default Ethernet MTU (paper §3.C)
	EthernetOverhead = 14   // dest MAC + src MAC + ethertype
	MaxWirePacket    = DefaultMTU + EthernetOverhead
)

// Protocol numbers carried in the IPv4 header.
const (
	ProtoICMP byte = 1
	ProtoTCP  byte = 6
	ProtoUDP  byte = 17
)

// IPv4 flag bits (in the flags/fragment-offset word).
const (
	FlagDontFragment = 0x4000
	FlagMoreFrags    = 0x2000
	fragOffsetMask   = 0x1FFF
)

// IPv4Header is a fixed 20-byte IPv4 header (no options).
type IPv4Header struct {
	TOS      byte
	TotalLen uint16 // header + payload, in bytes
	ID       uint16 // identification, shared by all fragments of a datagram
	Flags    uint16 // FlagDontFragment | FlagMoreFrags
	FragOff  uint16 // fragment offset in 8-byte units
	TTL      byte
	Protocol byte
	Checksum uint16 // computed on marshal, verified on parse
	Src, Dst Addr
}

// MoreFragments reports whether the MF bit is set.
func (h *IPv4Header) MoreFragments() bool { return h.Flags&FlagMoreFrags != 0 }

// DontFragment reports whether the DF bit is set.
func (h *IPv4Header) DontFragment() bool { return h.Flags&FlagDontFragment != 0 }

// IsFragment reports whether this header belongs to a fragment of a larger
// datagram: either a non-first fragment (offset > 0) or a first fragment
// with more to come. This is the predicate the trace analysis uses to count
// "IP fragments" for Figure 5.
func (h *IPv4Header) IsFragment() bool {
	return h.FragOff != 0 || h.MoreFragments()
}

// PayloadLen returns the number of payload bytes after the header.
func (h *IPv4Header) PayloadLen() int { return int(h.TotalLen) - IPv4HeaderLen }

// Marshal serialises the header into a fresh 20-byte slice, computing the
// header checksum.
func (h *IPv4Header) Marshal() []byte {
	b := make([]byte, IPv4HeaderLen)
	h.MarshalTo(b)
	return b
}

// MarshalTo serialises the header into b, which must hold at least
// IPv4HeaderLen bytes, computing the header checksum. Callers that manage
// their own buffers use this to serialise without allocating.
func (h *IPv4Header) MarshalTo(b []byte) {
	b = b[:IPv4HeaderLen]
	b[0] = 0x45 // version 4, IHL 5 words
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	flagsOff := (h.Flags & 0x6000) | (h.FragOff & fragOffsetMask)
	binary.BigEndian.PutUint16(b[6:], flagsOff)
	b[8] = h.TTL
	b[9] = h.Protocol
	b[10], b[11] = 0, 0 // checksum computed over the header with the field zeroed
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	cs := Checksum(b)
	binary.BigEndian.PutUint16(b[10:], cs)
	h.Checksum = cs
}

// Errors returned by the parsers.
var (
	ErrShortHeader  = errors.New("inet: buffer shorter than header")
	ErrBadVersion   = errors.New("inet: not an IPv4 header")
	ErrBadChecksum  = errors.New("inet: header checksum mismatch")
	ErrBadLength    = errors.New("inet: total length inconsistent with buffer")
	ErrBadFragment  = errors.New("inet: inconsistent fragment set")
	ErrReassemble   = errors.New("inet: reassembly incomplete")
	ErrPayloadRange = errors.New("inet: payload exceeds representable length")
)

// ParseIPv4 decodes a header from the front of b and returns it along with
// the payload sub-slice. The checksum is verified.
func ParseIPv4(b []byte) (IPv4Header, []byte, error) {
	var h IPv4Header
	if len(b) < IPv4HeaderLen {
		return h, nil, ErrShortHeader
	}
	if b[0] != 0x45 {
		return h, nil, ErrBadVersion
	}
	if Checksum(b[:IPv4HeaderLen]) != 0 {
		return h, nil, ErrBadChecksum
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:])
	h.ID = binary.BigEndian.Uint16(b[4:])
	flagsOff := binary.BigEndian.Uint16(b[6:])
	h.Flags = flagsOff & 0x6000
	h.FragOff = flagsOff & fragOffsetMask
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Checksum = binary.BigEndian.Uint16(b[10:])
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if int(h.TotalLen) < IPv4HeaderLen || int(h.TotalLen) > len(b) {
		return h, nil, ErrBadLength
	}
	return h, b[IPv4HeaderLen:h.TotalLen], nil
}

// Checksum computes the RFC 1071 internet checksum of b. Verifying a buffer
// that already contains its checksum yields 0.
func Checksum(b []byte) uint16 { return checksumWithInitial(0, b) }

// checksumWithInitial folds b into a running one's-complement sum (e.g. a
// pre-summed pseudo-header) and finalises it.
//
// RFC 1071 arithmetic is mod 2^16−1, which divides 2^64−1, so the sum is
// accumulated as big-endian 64-bit words with end-around carry — 32 bytes
// per iteration — and folded 64→32→16 at the end. A nonzero sum never
// folds to zero, so the result equals a 16-bit-word-at-a-time sum's for
// every input, including the all-zero buffer's 0xFFFF.
func checksumWithInitial(sum uint32, b []byte) uint16 {
	s, c := uint64(sum), uint64(0)
	for len(b) >= 32 {
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b[8:]), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b[16:]), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b[24:]), c)
		b = b[32:]
	}
	for len(b) >= 8 {
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b), c)
		b = b[8:]
	}
	// The tail's words keep their big-endian weights mod 2^16−1; an odd
	// last byte is the high half of a zero-padded word.
	var t uint64
	if len(b) >= 4 {
		t = uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		t += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		t += uint64(b[0]) << 8
	}
	s, c = bits.Add64(s, t, c)
	s += c // cannot carry again: t < 2^34, so a carry out leaves s ≤ t
	s32, c32 := bits.Add32(uint32(s>>32), uint32(s), 0)
	s32 += c32
	s32 = s32>>16 + s32&0xFFFF
	s32 = s32>>16 + s32&0xFFFF
	return ^uint16(s32)
}

// pseudoHeaderSum is the unfolded sum of the IPv4 pseudo-header (RFC 768,
// RFC 793) that prefixes a UDP or TCP segment of n bytes in its checksum.
// It is summed in place rather than materialised, so the per-segment
// checksum stays allocation-free.
func pseudoHeaderSum(src, dst Addr, proto byte, n int) uint32 {
	sum := uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	return sum + uint32(proto) + uint32(uint16(n))
}

// String summarises the header for diagnostics.
func (h *IPv4Header) String() string {
	frag := ""
	if h.IsFragment() {
		frag = fmt.Sprintf(" frag(off=%d,mf=%t)", h.FragOff, h.MoreFragments())
	}
	return fmt.Sprintf("IPv4 %s -> %s proto=%d len=%d id=%#04x ttl=%d%s",
		h.Src, h.Dst, h.Protocol, h.TotalLen, h.ID, h.TTL, frag)
}
