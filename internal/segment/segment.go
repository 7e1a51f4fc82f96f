// Package segment defines the application-layer framing shared by the two
// simulated streaming stacks: encoded video frames are cut into segments,
// segments are packed into protocol data packets (large ASF-style data
// units for Windows Media, sub-MTU variable packets for Real), and the
// receiving player reassembles segments back into frames to drive playback
// and the frame-rate statistics the trackers record.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Segment is a contiguous byte range of one encoded frame.
type Segment struct {
	FrameIndex uint32
	Offset     uint16 // byte offset within the frame
	Length     uint16 // bytes carried (header does not carry the bytes themselves; packets carry opaque payload)
	Key        bool   // frame is a keyframe
	Last       bool   // segment ends the frame (Offset+Length == frame size)
}

// headerLen is the wire size of one segment descriptor.
const headerLen = 10

// Flag bits.
const (
	flagKey  = 0x01
	flagLast = 0x02
)

// ErrCorrupt reports an undecodable segment list.
var ErrCorrupt = errors.New("segment: corrupt segment list")

// EncodeList serialises segment descriptors followed by a synthetic payload
// of the summed segment lengths. The payload bytes are generated (not real
// video), but their count is exact, which is all the network cares about.
//
//	list := count(u16) descriptor*count padding[sum(Length)]
func EncodeList(segs []Segment) []byte {
	return AppendList(nil, segs)
}

// AppendList is EncodeList appending into dst, returning the extended
// slice. Senders encode straight into the data packet after its protocol
// header (AppendList(pkt, segs)), so the list is written once per packet.
// dst's spare capacity is overwritten without being zeroed first.
func AppendList(dst []byte, segs []Segment) []byte {
	n := ListWireSize(segs)
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
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
		out[off+9] = 0 // reserved
		off += headerLen
	}
	// Deterministic filler so traces are reproducible byte-for-byte:
	// byte i of the list is byte(i*131), which repeats every 256 bytes,
	// so it is copied from fillPattern a table's length at a time.
	for off < len(out) {
		off += copy(out[off:], fillPattern[off%256:])
	}
	return dst
}

// fillPattern holds two periods of the filler, so a copy starting at any
// phase in the first period has at least 256 bytes to take.
var fillPattern = func() (p [512]byte) {
	for i := range p {
		p[i] = byte(i * 131)
	}
	return p
}()

// DecodeList parses an encoded segment list, returning the descriptors.
func DecodeList(b []byte) ([]Segment, error) {
	return DecodeListInto(nil, b)
}

// DecodeListInto is DecodeList appending into dst — receivers on a
// per-packet cadence decode into one reused scratch slice
// (DecodeListInto(scratch[:0], b)) and stay allocation-free.
func DecodeListInto(dst []Segment, b []byte) ([]Segment, error) {
	if len(b) < 2 {
		return nil, ErrCorrupt
	}
	n := int(binary.BigEndian.Uint16(b[0:]))
	off := 2
	segs := dst
	total := 0
	for i := 0; i < n; i++ {
		if off+headerLen > len(b) {
			return nil, ErrCorrupt
		}
		s := Segment{
			FrameIndex: binary.BigEndian.Uint32(b[off:]),
			Offset:     binary.BigEndian.Uint16(b[off+4:]),
			Length:     binary.BigEndian.Uint16(b[off+6:]),
			Key:        b[off+8]&flagKey != 0,
			Last:       b[off+8]&flagLast != 0,
		}
		segs = append(segs, s)
		total += int(s.Length)
		off += headerLen
	}
	if off+total != len(b) {
		return nil, ErrCorrupt
	}
	return segs, nil
}

// ListWireSize predicts the encoded size of a list without building it.
func ListWireSize(segs []Segment) int {
	total := 2 + headerLen*len(segs)
	for _, s := range segs {
		total += int(s.Length)
	}
	return total
}

// Cutter slices a sequence of frame sizes into segments on demand. It is
// the server-side packetiser core: both stacks pull segments up to a byte
// budget per outgoing packet.
type Cutter struct {
	sizes []int // frame sizes in bytes
	keys  []bool
	frame int // current frame index
	off   int // offset within current frame
	// filter, when set, decides whether each frame is emitted at all;
	// media-scaling servers install one to thin the stream under loss.
	// It is consulted only at frame boundaries, never mid-frame.
	filter func(frameIndex int, key bool) bool
	// SkippedFrames counts frames the filter suppressed.
	SkippedFrames int
	// scratch backs the slice Next returns, reused across calls.
	scratch []Segment
}

// SetFilter installs (or clears, with nil) the frame-admission filter.
// Frames already partially emitted are always finished.
func (c *Cutter) SetFilter(f func(frameIndex int, key bool) bool) { c.filter = f }

// skipFiltered advances past frames the filter rejects. Only applies at
// frame boundaries (off == 0).
func (c *Cutter) skipFiltered() {
	if c.filter == nil || c.off != 0 {
		return
	}
	for c.frame < len(c.sizes) {
		key := false
		if c.keys != nil {
			key = c.keys[c.frame]
		}
		if c.filter(c.frame, key) {
			return
		}
		c.frame++
		c.SkippedFrames++
	}
}

// NewCutter builds a cutter over the clip's frame sizes and key flags.
func NewCutter(sizes []int, keys []bool) *Cutter {
	if keys != nil && len(keys) != len(sizes) {
		panic("segment: sizes/keys length mismatch")
	}
	return &Cutter{sizes: sizes, keys: keys}
}

// Done reports whether all frames have been cut.
func (c *Cutter) Done() bool {
	c.skipFiltered()
	return c.frame >= len(c.sizes)
}

// FramesCut reports how many frames have been fully emitted.
func (c *Cutter) FramesCut() int { return c.frame }

// BytesRemaining reports the bytes not yet emitted.
func (c *Cutter) BytesRemaining() int {
	if c.Done() {
		return 0
	}
	total := c.sizes[c.frame] - c.off
	for i := c.frame + 1; i < len(c.sizes); i++ {
		total += c.sizes[i]
	}
	return total
}

// Next cuts up to budget payload bytes into segments, advancing through
// frames (and past filtered-out frames). It returns fewer bytes only when
// the clip is exhausted. A zero budget returns nil. The returned slice is
// reused by the following Next call; callers that keep segments across
// calls must copy them (appending the elements somewhere does).
func (c *Cutter) Next(budget int) []Segment {
	out := c.scratch[:0]
	for budget > 0 && !c.Done() {
		c.skipFiltered()
		if c.frame >= len(c.sizes) {
			break
		}
		remain := c.sizes[c.frame] - c.off
		take := remain
		if take > budget {
			take = budget
		}
		if take > 0xFFFF {
			take = 0xFFFF
		}
		key := false
		if c.keys != nil {
			key = c.keys[c.frame]
		}
		out = append(out, Segment{
			FrameIndex: uint32(c.frame),
			Offset:     uint16(c.off),
			Length:     uint16(take),
			Key:        key,
			Last:       c.off+take == c.sizes[c.frame],
		})
		c.off += take
		budget -= take
		if c.off == c.sizes[c.frame] {
			c.frame++
			c.off = 0
		}
	}
	c.scratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// Assembler tracks frame completeness on the receiving side: a frame is
// complete once every byte from offset 0 through its Last segment has
// arrived (segments may arrive out of order; duplicates are tolerated).
// Frame state dropped by the player recycles onto a free list, so the
// steady playout loop (add segments, check, drop) does not allocate per
// frame.
type Assembler struct {
	frames map[uint32]*frameState
	free   []*frameState
	// CompletedFrames counts frames fully received.
	CompletedFrames int
}

// segRun is one received (offset, length) run; a frame rarely holds more
// than a handful, so a small slice beats a map on both allocation and
// scan cost.
type segRun struct {
	off, length uint16
}

type frameState struct {
	runs     []segRun // received runs, deduped by offset (max length wins)
	expected int      // frame size, known once the Last segment arrives
	received int      // distinct bytes received
	complete bool
	key      bool
}

// asmPool recycles whole assemblers across player lifetimes: one playout
// ramps hundreds of in-flight frames through the map and the free list,
// and reusing that grown storage is what keeps a reused-testbed run from
// paying the ramp again. sync.Pool because sweep workers acquire and
// release concurrently.
var asmPool = sync.Pool{New: func() any {
	return &Assembler{frames: make(map[uint32]*frameState)}
}}

// NewAssembler returns an empty assembler, reusing a released one's
// storage when available.
func NewAssembler() *Assembler {
	return asmPool.Get().(*Assembler)
}

// Reset rewinds the assembler to its empty state, keeping the frame map
// and free-list storage.
func (a *Assembler) Reset() {
	for k, fs := range a.frames {
		a.free = append(a.free, fs)
		delete(a.frames, k)
	}
	a.CompletedFrames = 0
}

// Release resets the assembler and returns it to the package pool. Call
// only once nothing can touch the assembler again — players release via
// their owners after the simulation has fully drained.
func (a *Assembler) Release() {
	a.Reset()
	asmPool.Put(a)
}

// Add records one received segment and reports whether it completed its
// frame.
func (a *Assembler) Add(s Segment) bool {
	fs := a.frames[s.FrameIndex]
	if fs == nil {
		if n := len(a.free); n > 0 {
			fs = a.free[n-1]
			a.free = a.free[:n-1]
			fs.runs = fs.runs[:0]
			fs.expected, fs.received = 0, 0
			fs.complete, fs.key = false, false
		} else {
			fs = &frameState{}
		}
		a.frames[s.FrameIndex] = fs
	}
	if fs.complete {
		return false
	}
	if s.Key {
		fs.key = true
	}
	dup := false
	for i := range fs.runs {
		if fs.runs[i].off == s.Offset {
			dup = true
			if fs.runs[i].length < s.Length {
				fs.received += int(s.Length) - int(fs.runs[i].length)
				fs.runs[i].length = s.Length
			}
			break
		}
	}
	if !dup {
		fs.runs = append(fs.runs, segRun{off: s.Offset, length: s.Length})
		fs.received += int(s.Length)
	}
	if s.Last {
		fs.expected = int(s.Offset) + int(s.Length)
	}
	if fs.expected > 0 && fs.received >= fs.expected && contiguous(fs.runs, fs.expected) {
		fs.complete = true
		a.CompletedFrames++
		return true
	}
	return false
}

// Complete reports whether the frame has fully arrived.
func (a *Assembler) Complete(frameIndex uint32) bool {
	fs := a.frames[frameIndex]
	return fs != nil && fs.complete
}

// Partial reports whether some but not all of the frame arrived.
func (a *Assembler) Partial(frameIndex uint32) bool {
	fs := a.frames[frameIndex]
	return fs != nil && !fs.complete && fs.received > 0
}

// Drop forgets a frame's state (players discard frames past their playout
// deadline to bound memory); the state recycles for a future frame.
func (a *Assembler) Drop(frameIndex uint32) {
	if fs := a.frames[frameIndex]; fs != nil {
		a.free = append(a.free, fs)
		delete(a.frames, frameIndex)
	}
}

// contiguous verifies the received runs cover [0, expected) without gaps.
func contiguous(runs []segRun, expected int) bool {
	next := 0
	for next < expected {
		l := uint16(0)
		for i := range runs {
			if int(runs[i].off) == next {
				l = runs[i].length
				break
			}
		}
		if l == 0 {
			return false
		}
		next += int(l)
	}
	return true
}

// String describes the assembler for diagnostics.
func (a *Assembler) String() string {
	return fmt.Sprintf("assembler: %d frames tracked, %d complete", len(a.frames), a.CompletedFrames)
}
