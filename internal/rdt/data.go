package rdt

import (
	"encoding/binary"
	"errors"
)

// Data-channel packet kinds.
const (
	// KindData carries media segments.
	KindData byte = 'D'
	// KindProbe is one packet of the SETUP bandwidth-probe train.
	KindProbe byte = 'P'
	// KindEnd marks the end of the stream.
	KindEnd byte = 'E'
)

// Data flags.
const (
	// FlagRetrans marks a NAK-triggered retransmission.
	FlagRetrans byte = 0x01
)

// DataHeader precedes media payloads on the RDT data channel.
type DataHeader struct {
	Seq    uint32
	TSms   uint32 // media timestamp, milliseconds
	Flags  byte
	Stream byte // stream id (always 0: single video stream)
}

// dataHeaderLen is the wire size of the data header including the kind.
const dataHeaderLen = 1 + 10

// ErrShort reports an undecodable data-channel packet.
var ErrShort = errors.New("rdt: packet too short")

// ErrKind reports an unexpected packet kind.
var ErrKind = errors.New("rdt: unexpected packet kind")

// MarshalData encodes a media packet: header + encoded segment list.
func MarshalData(h DataHeader, segPayload []byte) []byte {
	return append(AppendDataHeader(nil, h), segPayload...)
}

// AppendDataHeader appends a media packet's header to dst and returns the
// extended slice. The send path follows it with segment.AppendList, so the
// segment list is encoded straight into the packet.
func AppendDataHeader(dst []byte, h DataHeader) []byte {
	dst = append(dst, KindData)
	dst = binary.BigEndian.AppendUint32(dst, h.Seq)
	dst = binary.BigEndian.AppendUint32(dst, h.TSms)
	return append(dst, h.Flags, h.Stream)
}

// ParseData decodes a media packet.
func ParseData(b []byte) (DataHeader, []byte, error) {
	if len(b) < dataHeaderLen {
		return DataHeader{}, nil, ErrShort
	}
	if b[0] != KindData {
		return DataHeader{}, nil, ErrKind
	}
	return DataHeader{
		Seq:    binary.BigEndian.Uint32(b[1:]),
		TSms:   binary.BigEndian.Uint32(b[5:]),
		Flags:  b[9],
		Stream: b[10],
	}, b[dataHeaderLen:], nil
}

// ProbeTrainLen is the number of back-to-back packets in the SETUP
// bandwidth probe; ProbeBytes is each packet's payload size. Eight
// 1200-byte packets give the dispersion estimator seven gaps to average.
const (
	ProbeTrainLen = 8
	ProbeBytes    = 1200
)

// MarshalProbe encodes probe packet i of the train.
func MarshalProbe(i int) []byte {
	b := make([]byte, 1+2+ProbeBytes)
	b[0] = KindProbe
	binary.BigEndian.PutUint16(b[1:], uint16(i))
	for j := 3; j < len(b); j++ {
		b[j] = byte(j)
	}
	return b
}

// ParseProbe decodes a probe packet, returning its index.
func ParseProbe(b []byte) (int, error) {
	if len(b) < 3 {
		return 0, ErrShort
	}
	if b[0] != KindProbe {
		return 0, ErrKind
	}
	return int(binary.BigEndian.Uint16(b[1:])), nil
}

// MarshalEnd encodes the end-of-stream marker carrying the final sequence
// count.
func MarshalEnd(finalSeq uint32) []byte {
	b := make([]byte, 5)
	b[0] = KindEnd
	binary.BigEndian.PutUint32(b[1:], finalSeq)
	return b
}

// ParseEnd decodes an end-of-stream marker.
func ParseEnd(b []byte) (uint32, error) {
	if len(b) < 5 {
		return 0, ErrShort
	}
	if b[0] != KindEnd {
		return 0, ErrKind
	}
	return binary.BigEndian.Uint32(b[1:]), nil
}

// PacketKind peeks a data-channel packet's kind byte.
func PacketKind(b []byte) (byte, error) {
	if len(b) < 1 {
		return 0, ErrShort
	}
	return b[0], nil
}
