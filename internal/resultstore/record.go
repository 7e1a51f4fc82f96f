package resultstore

import (
	"encoding/binary"
	"errors"
	"math"

	"turbulence/internal/core"
)

// storeFormat numbers the record layout below. Format 1 was a gob stream
// per frame. Bump it with any change to the layout, including a field
// added to core.Comparison or core.FlowProfile (TestRecordEveryField fails
// until the codec carries the new field).
const storeFormat = 2

// entryTag is an entry record's first byte. A header record starts with
// the high byte of its magic's length, which is 0.
const entryTag = 'E'

// errRecord is a checksum-clean frame body that is not a well-formed
// record: a wrong tag, a short body, trailing bytes or a bool byte above 1.
var errRecord = errors.New("malformed record")

// storeHeader is the first record: which result generation this store
// holds. Format guards the record layout, Wire the shape of Comparison on
// the wire, Engine the simulation's output generation. A mismatch on any
// refuses the whole file loudly: foreign results must never be served as
// this build's.
type storeHeader struct {
	Magic  string
	Format int
	Wire   int
	Engine int
}

// The codec has one encoding per value: ints are 8-byte big-endian,
// floats their 8-byte IEEE bits (so NaN payloads and -0 survive), bools
// one byte 0 or 1, strings an int length then their bytes. No varints, so
// every accepted body re-encodes to the same bytes.

func appendInt(b []byte, v int) []byte { return binary.BigEndian.AppendUint64(b, uint64(v)) }

func appendFloat(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte { return append(appendInt(b, len(s)), s...) }

// appendHeader appends h's record to b.
func appendHeader(b []byte, h storeHeader) []byte {
	b = appendString(b, h.Magic)
	b = appendInt(b, h.Format)
	b = appendInt(b, h.Wire)
	return appendInt(b, h.Engine)
}

// appendEntry appends the record of one cached cell to b: the tag, the
// digest, then every field of c in declaration order.
func appendEntry(b []byte, digest string, c *core.Comparison) []byte {
	b = append(b, entryTag)
	b = appendString(b, digest)
	b = appendInt(b, c.Set)
	b = appendString(b, c.ClassName)
	b = appendProfile(b, &c.Real)
	return appendProfile(b, &c.WMP)
}

func appendProfile(b []byte, p *core.FlowProfile) []byte {
	b = appendInt(b, p.Packets)
	b = appendInt(b, p.Datagrams)
	b = appendFloat(b, p.MeanSize)
	b = appendFloat(b, p.SizeCV)
	b = appendFloat(b, p.MeanInterarrival)
	b = appendFloat(b, p.InterarrivalCV)
	b = appendFloat(b, p.FragShare)
	b = appendFloat(b, p.MeanTrain)
	b = appendInt(b, p.MaxWireSize)
	b = appendFloat(b, p.AvgRateBps)
	b = appendFloat(b, p.BurstRatio)
	return appendBool(b, p.CBR)
}

// decoder reads a record front to back. The first malformed read sets bad
// and every later read returns a zero value.
type decoder struct {
	b   []byte
	bad bool
}

func (d *decoder) take(n uint64) []byte {
	if d.bad || n > uint64(len(d.b)) {
		d.bad = true
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) uint64() uint64 {
	p := d.take(8)
	if d.bad {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

func (d *decoder) int() int {
	v := int64(d.uint64())
	if int64(int(v)) != v {
		d.bad = true
	}
	return int(v)
}

func (d *decoder) float() float64 { return math.Float64frombits(d.uint64()) }

func (d *decoder) bool() bool {
	p := d.take(1)
	if d.bad || p[0] > 1 {
		d.bad = true
		return false
	}
	return p[0] == 1
}

func (d *decoder) string() string { return string(d.take(d.uint64())) }

// done reports whether the whole body was one well-formed record.
func (d *decoder) done() error {
	if d.bad || len(d.b) != 0 {
		return errRecord
	}
	return nil
}

// decodeHeader decodes a header record. It checks the layout only; the
// caller judges the values.
func decodeHeader(body []byte) (storeHeader, error) {
	d := decoder{b: body}
	h := storeHeader{Magic: d.string(), Format: d.int(), Wire: d.int(), Engine: d.int()}
	return h, d.done()
}

// decodeEntry decodes an entry record into its digest and c.
func decodeEntry(body []byte, c *core.Comparison) (digest string, err error) {
	d := decoder{b: body}
	if tag := d.take(1); d.bad || tag[0] != entryTag {
		return "", errRecord
	}
	digest = d.string()
	c.Set = d.int()
	c.ClassName = d.string()
	d.profile(&c.Real)
	d.profile(&c.WMP)
	return digest, d.done()
}

func (d *decoder) profile(p *core.FlowProfile) {
	p.Packets = d.int()
	p.Datagrams = d.int()
	p.MeanSize = d.float()
	p.SizeCV = d.float()
	p.MeanInterarrival = d.float()
	p.InterarrivalCV = d.float()
	p.FragShare = d.float()
	p.MeanTrain = d.float()
	p.MaxWireSize = d.int()
	p.AvgRateBps = d.float()
	p.BurstRatio = d.float()
	p.CBR = d.bool()
}
