// Package wms is the behavioural model of the Windows Media streaming
// stack (MediaPlayer 7.1 against a Windows Media server) reconstructed from
// the paper's observations:
//
//   - The server packs media into large ASF-style data units and sends one
//     unit per fixed pacing tick, producing an essentially constant bit
//     rate with uniform packet sizes and interarrivals (paper §3.D, §3.E).
//   - At encoding rates above roughly 100 Kbps a data unit exceeds the path
//     MTU, so the sending OS emits a train of IP fragments per unit —
//     1514-byte wire packets plus a remainder (paper §3.C, Figures 4-5).
//   - The server buffers at the same rate it plays: startup traffic looks
//     identical to steady-state traffic (paper §3.F, Figures 10-11).
//   - The client delivers received units to the application in interleaved
//     batches of ten units once per second, while the OS sees units every
//     pacing tick (paper §3.G, Figure 12).
//   - At low encoding rates the codec sacrifices frame rate (~13 fps)
//     rather than frame quality (paper §3.H, Figures 13-15).
package wms

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Control message types on the MMS-like control channel.
const (
	MsgDescribe byte = iota + 1
	MsgDescribeResp
	MsgPlay
	MsgPlayResp
	MsgStop
	MsgData     // data-channel packets
	MsgFeedback // client reception-quality reports (media scaling input)
)

// Errors returned by the codec.
var (
	ErrShort      = errors.New("wms: message too short")
	ErrBadType    = errors.New("wms: unexpected message type")
	ErrBadpayload = errors.New("wms: malformed message payload")
)

// Describe asks the server for a clip's parameters.
type Describe struct {
	ClipRef string
}

// DescribeResp carries the stream parameters MediaTracker records.
type DescribeResp struct {
	OK          bool
	EncodedBps  uint32
	FrameMilli  uint32 // frame rate in milli-fps
	DurationMs  uint32
	TotalFrames uint32
	UnitBytes   uint32 // payload budget of one ASF data unit
	TickMs      uint32 // pacing interval
}

// FrameRate returns the frame rate in fps.
func (d DescribeResp) FrameRate() float64 { return float64(d.FrameMilli) / 1000 }

// Duration returns the clip duration.
func (d DescribeResp) Duration() time.Duration {
	return time.Duration(d.DurationMs) * time.Millisecond
}

// Tick returns the pacing interval.
func (d DescribeResp) Tick() time.Duration { return time.Duration(d.TickMs) * time.Millisecond }

// Play starts streaming to the client's data port.
type Play struct {
	ClipRef  string
	DataPort uint16
}

// PlayResp acknowledges (or refuses) a Play.
type PlayResp struct {
	OK bool
}

// Stop ends a session.
type Stop struct{}

// DataHeader precedes each data unit on the data channel.
type DataHeader struct {
	Seq    uint32
	SentMs uint32 // server send time, for diagnostics
}

// DataHeaderLen is the wire size of a DataHeader plus the type byte.
const DataHeaderLen = 1 + 8

func marshalString(b []byte, s string) []byte {
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(s)))
	return append(append(b, l[:]...), s...)
}

func parseString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, ErrShort
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, ErrBadpayloadf("string length %d exceeds buffer", n)
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

// ErrBadpayloadf wraps ErrBadpayload with context.
func ErrBadpayloadf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadpayload, fmt.Sprintf(format, args...))
}

// MarshalDescribe encodes a Describe.
func MarshalDescribe(m Describe) []byte {
	return marshalString([]byte{MsgDescribe}, m.ClipRef)
}

// MarshalDescribeResp encodes a DescribeResp.
func MarshalDescribeResp(m DescribeResp) []byte {
	b := make([]byte, 1, 27)
	b[0] = MsgDescribeResp
	ok := byte(0)
	if m.OK {
		ok = 1
	}
	b = append(b, ok)
	var tmp [4]byte
	for _, v := range []uint32{m.EncodedBps, m.FrameMilli, m.DurationMs, m.TotalFrames, m.UnitBytes, m.TickMs} {
		binary.BigEndian.PutUint32(tmp[:], v)
		b = append(b, tmp[:]...)
	}
	return b
}

// MarshalPlay encodes a Play.
func MarshalPlay(m Play) []byte {
	b := marshalString([]byte{MsgPlay}, m.ClipRef)
	var p [2]byte
	binary.BigEndian.PutUint16(p[:], m.DataPort)
	return append(b, p[:]...)
}

// MarshalPlayResp encodes a PlayResp.
func MarshalPlayResp(m PlayResp) []byte {
	ok := byte(0)
	if m.OK {
		ok = 1
	}
	return []byte{MsgPlayResp, ok}
}

// MarshalStop encodes a Stop.
func MarshalStop(Stop) []byte { return []byte{MsgStop} }

// MarshalData encodes a data unit: header plus the already-encoded segment
// list payload.
func MarshalData(h DataHeader, segPayload []byte) []byte {
	return append(AppendDataHeader(nil, h), segPayload...)
}

// AppendDataHeader appends a data unit's header to dst and returns the
// extended slice. The send path follows it with segment.AppendList, so the
// segment list is encoded straight into the unit.
func AppendDataHeader(dst []byte, h DataHeader) []byte {
	dst = append(dst, MsgData)
	dst = binary.BigEndian.AppendUint32(dst, h.Seq)
	return binary.BigEndian.AppendUint32(dst, h.SentMs)
}

// Feedback is the client's periodic reception-quality report; the server's
// intelligent-streaming logic thins the stream when loss is high (the
// media-scaling capability the paper's §VI notes both players have).
type Feedback struct {
	LossPermille uint16
}

// MarshalFeedback encodes a Feedback.
func MarshalFeedback(m Feedback) []byte {
	b := make([]byte, 3)
	b[0] = MsgFeedback
	binary.BigEndian.PutUint16(b[1:], m.LossPermille)
	return b
}

// ParseFeedback decodes a Feedback.
func ParseFeedback(b []byte) (Feedback, error) {
	if len(b) != 3 || b[0] != MsgFeedback {
		return Feedback{}, ErrBadType
	}
	return Feedback{LossPermille: binary.BigEndian.Uint16(b[1:])}, nil
}

// MsgType peeks the type of a control or data message.
func MsgType(b []byte) (byte, error) {
	if len(b) < 1 {
		return 0, ErrShort
	}
	return b[0], nil
}

// ParseDescribe decodes a Describe.
func ParseDescribe(b []byte) (Describe, error) {
	if len(b) < 1 || b[0] != MsgDescribe {
		return Describe{}, ErrBadType
	}
	ref, rest, err := parseString(b[1:])
	if err != nil {
		return Describe{}, err
	}
	if len(rest) != 0 {
		return Describe{}, ErrBadpayloadf("trailing bytes")
	}
	return Describe{ClipRef: ref}, nil
}

// ParseDescribeResp decodes a DescribeResp.
func ParseDescribeResp(b []byte) (DescribeResp, error) {
	if len(b) < 1 || b[0] != MsgDescribeResp {
		return DescribeResp{}, ErrBadType
	}
	if len(b) != 2+24 {
		return DescribeResp{}, ErrBadpayloadf("length %d", len(b))
	}
	var m DescribeResp
	m.OK = b[1] == 1
	vals := []*uint32{&m.EncodedBps, &m.FrameMilli, &m.DurationMs, &m.TotalFrames, &m.UnitBytes, &m.TickMs}
	off := 2
	for _, v := range vals {
		*v = binary.BigEndian.Uint32(b[off:])
		off += 4
	}
	return m, nil
}

// ParsePlay decodes a Play.
func ParsePlay(b []byte) (Play, error) {
	if len(b) < 1 || b[0] != MsgPlay {
		return Play{}, ErrBadType
	}
	ref, rest, err := parseString(b[1:])
	if err != nil {
		return Play{}, err
	}
	if len(rest) != 2 {
		return Play{}, ErrBadpayloadf("missing data port")
	}
	return Play{ClipRef: ref, DataPort: binary.BigEndian.Uint16(rest)}, nil
}

// ParsePlayResp decodes a PlayResp.
func ParsePlayResp(b []byte) (PlayResp, error) {
	if len(b) != 2 || b[0] != MsgPlayResp {
		return PlayResp{}, ErrBadType
	}
	return PlayResp{OK: b[1] == 1}, nil
}

// ParseData decodes a data unit header and returns the segment payload.
func ParseData(b []byte) (DataHeader, []byte, error) {
	if len(b) < DataHeaderLen {
		return DataHeader{}, nil, ErrShort
	}
	if b[0] != MsgData {
		return DataHeader{}, nil, ErrBadType
	}
	return DataHeader{
		Seq:    binary.BigEndian.Uint32(b[1:]),
		SentMs: binary.BigEndian.Uint32(b[5:]),
	}, b[DataHeaderLen:], nil
}
