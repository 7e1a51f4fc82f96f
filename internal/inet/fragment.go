package inet

import (
	"fmt"
	"time"
)

// Fragment splits a datagram into MTU-sized fragments per RFC 791. The
// first fragment carries the UDP header (so its ports remain parseable);
// every fragment shares the original IP ID; offsets are in 8-byte units;
// all fragments except the last have the MoreFragments flag set.
//
// A datagram that already fits within the MTU is returned unchanged (as a
// single-element slice, not copied). A datagram with DontFragment set that
// exceeds the MTU returns an error — the simulated hosts never set DF on
// media traffic, matching 2002 behaviour where PMTUD was commonly off for
// UDP streaming.
func Fragment(d *Datagram, mtu int) ([]*Datagram, error) {
	return AppendFragments(nil, d, mtu)
}

// AppendFragments is Fragment appending to dst, so per-packet senders can
// reuse one scratch slice across sends instead of allocating a train slice
// per datagram. Fragment structs come from the parent's buffer pool when it
// has one.
func AppendFragments(dst []*Datagram, d *Datagram, mtu int) ([]*Datagram, error) {
	if mtu < IPv4HeaderLen+8 {
		return dst, fmt.Errorf("inet: mtu %d too small to fragment", mtu)
	}
	if d.Len() <= mtu {
		return append(dst, d), nil
	}
	if d.Header.DontFragment() {
		return dst, fmt.Errorf("inet: datagram %d bytes exceeds mtu %d with DF set", d.Len(), mtu)
	}
	var pool *BufPool
	if d.owner != nil {
		pool = d.owner.pool
	}
	// Payload bytes per fragment must be a multiple of 8 (offset units).
	chunk := (mtu - IPv4HeaderLen) &^ 7
	for off := 0; off < len(d.Payload); off += chunk {
		end := off + chunk
		last := false
		if end >= len(d.Payload) {
			end = len(d.Payload)
			last = true
		}
		h := d.Header
		h.FragOff = uint16(off / 8)
		if last {
			h.Flags &^= FlagMoreFrags
		} else {
			h.Flags |= FlagMoreFrags
		}
		// Fragments share the parent payload: the ranges are disjoint, and
		// every consumer (hops, taps, reassembly) either reads or mutates
		// only its own range, so no copy is needed. They share the pooled
		// owner too; the caller fixes its reference count to the train
		// length.
		var frag *Datagram
		if pool != nil {
			frag = pool.getDatagram()
		} else {
			frag = &Datagram{}
		}
		frag.Header = h
		frag.Payload = d.Payload[off:end:end]
		frag.owner = d.owner
		frag.Header.TotalLen = uint16(frag.Len())
		dst = append(dst, frag)
	}
	return dst, nil
}

// SetFragmentRefs points a fragment train's shared wire buffer at the
// number of live fragments, so the buffer returns to its pool only when
// the last fragment is dropped or reassembled. No-op for unpooled
// datagrams.
func SetFragmentRefs(frags []*Datagram) {
	if len(frags) > 0 && frags[0].owner != nil {
		frags[0].owner.refs = int32(len(frags))
	}
}

// FragmentTrainLen predicts how many wire packets a UDP payload of the given
// size produces at the given MTU, without building the datagram. The
// experiment code uses it to cross-check observed fragment trains.
func FragmentTrainLen(udpPayload, mtu int) int {
	total := IPv4HeaderLen + UDPHeaderLen + udpPayload
	if total <= mtu {
		return 1
	}
	chunk := (mtu - IPv4HeaderLen) &^ 7
	ipPayload := UDPHeaderLen + udpPayload
	n := ipPayload / chunk
	if ipPayload%chunk != 0 {
		n++
	}
	return n
}

// reassemblyTimeout is how long a partially assembled datagram waits for
// its missing fragments before the reassembler abandons it, as Linux's
// ipfrag_time (RFC 791 suggests 15 s, RFC 1122 60-120 s). The fragments
// of a completed train in this simulator arrive within about 2 s of each
// other, so the timeout only ever reaps trains that lost a fragment.
const reassemblyTimeout = 30 * time.Second

// reassemblyKey identifies one datagram's fragment set.
type reassemblyKey struct {
	src, dst Addr
	proto    byte
	id       uint16
}

type reassemblyBuf struct {
	key     reassemblyKey
	frags   []*Datagram
	gotLast bool
	// opened is the arrival time of the train's first fragment; prev and
	// next link the pending trains in the order they opened.
	opened     time.Duration
	prev, next *reassemblyBuf
	// pool is the BufPool the buffer came from and returns to; nil for a
	// reassembler without one.
	pool *BufPool
}

// Reassembler collects fragments and reconstitutes original datagrams, as
// the receiving host's IP layer does. It is the component that makes a lost
// fragment discard the whole application frame — the goodput hazard the
// paper highlights (§3.C, citing [FF99]).
//
// A train still incomplete reassemblyTimeout after its first fragment
// arrived is abandoned, and its fragments release their wire buffers. The
// expiry is lazy: each Add first reaps the expired trains at the old end
// of the opening order, so it schedules nothing and costs one comparison
// when nothing is due.
type Reassembler struct {
	pending map[reassemblyKey]*reassemblyBuf
	// oldest and newest are the ends of the pending trains' opening order.
	oldest, newest *reassemblyBuf
	// pool, when set, supplies the assembled datagrams' payload buffers,
	// which the consumer (the host's delivery path) releases after the
	// transport handler returns, and the reassembly buffers, so a steady
	// stream of fragmented datagrams does not allocate per train.
	pool *BufPool
	// Completed counts successfully reassembled datagrams; Discarded counts
	// trains abandoned by the reassembly timeout.
	Completed, Discarded int
}

// open starts a train for key at now, with a buffer from the pool, at
// the new end of the opening order.
func (r *Reassembler) open(key reassemblyKey, now time.Duration) *reassemblyBuf {
	buf := r.pool.getReassembly()
	buf.key, buf.opened, buf.prev = key, now, r.newest
	if r.newest != nil {
		r.newest.next = buf
	} else {
		r.oldest = buf
	}
	r.newest = buf
	r.pending[key] = buf
	return buf
}

// putBuf ends a train: it leaves the pending set and the opening order,
// its fragments release their wire buffers, and its buffer returns to the
// pool it came from.
func (r *Reassembler) putBuf(buf *reassemblyBuf) {
	delete(r.pending, buf.key)
	if buf.prev != nil {
		buf.prev.next = buf.next
	} else {
		r.oldest = buf.next
	}
	if buf.next != nil {
		buf.next.prev = buf.prev
	} else {
		r.newest = buf.prev
	}
	buf.prev, buf.next = nil, nil
	for _, f := range buf.frags {
		f.Release()
	}
	buf.frags = buf.frags[:0]
	buf.gotLast = false
	buf.pool.putReassembly(buf)
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{pending: make(map[reassemblyKey]*reassemblyBuf)}
}

// NewReassemblerPooled is NewReassembler drawing assembled payloads from a
// wire-buffer pool.
func NewReassemblerPooled(p *BufPool) *Reassembler {
	r := NewReassembler()
	r.pool = p
	return r
}

// UsePool makes the reassembler draw assembled payloads and reassembly
// buffers from p. Pending trains and their fragments keep their own
// buffers' pools.
func (r *Reassembler) UsePool(p *BufPool) { r.pool = p }

// PendingDatagrams reports how many datagrams are partially assembled.
func (r *Reassembler) PendingDatagrams() int { return len(r.pending) }

// Add offers one datagram received at now, which must not precede the
// previous Add's. Trains that have waited reassemblyTimeout are abandoned
// first. If d is not a fragment it is returned immediately. If it
// completes a fragment set, the reassembled datagram is returned.
// Otherwise nil is returned and the fragment is buffered.
func (r *Reassembler) Add(d *Datagram, now time.Duration) (*Datagram, error) {
	for r.oldest != nil && now-r.oldest.opened >= reassemblyTimeout {
		r.putBuf(r.oldest)
		r.Discarded++
	}
	if !d.Header.IsFragment() {
		return d, nil
	}
	key := reassemblyKey{src: d.Header.Src, dst: d.Header.Dst, proto: d.Header.Protocol, id: d.Header.ID}
	buf := r.pending[key]
	if buf == nil {
		buf = r.open(key, now)
	}
	buf.frags = append(buf.frags, d)
	if !d.Header.MoreFragments() {
		buf.gotLast = true
	}
	if !buf.gotLast {
		return nil, nil
	}
	whole, ok := tryAssemble(buf.frags, r.pool)
	if !ok {
		return nil, nil // still missing a middle fragment
	}
	// The fragments' bytes are spliced into the whole datagram; their
	// shared wire buffer can recycle, as can the buffer that collected them.
	r.putBuf(buf)
	r.Completed++
	return whole, nil
}

// Release abandons every pending train without counting it, in the order
// the trains opened, so its fragments' wire buffers return to their pool.
// A host's network calls it when a run ends and when it resets.
func (r *Reassembler) Release() {
	for r.oldest != nil {
		r.putBuf(r.oldest)
	}
}

// Reset restores the reassembler to its freshly constructed state without
// reallocating: Release empties it and the counters zero.
func (r *Reassembler) Reset() {
	r.Release()
	r.Completed = 0
	r.Discarded = 0
}

// tryAssemble attempts to splice a fragment list into the original
// datagram. It requires a contiguous byte range starting at offset 0 and
// ending at a fragment without MF.
func tryAssemble(frags []*Datagram, pool *BufPool) (*Datagram, bool) {
	// Sorting in place is fine: the buffer is private to the reassembler
	// and fragment order within a pending set carries no meaning. Insertion
	// sort, not sort.Slice: trains are short (≤ ~45 fragments) and this is
	// the per-packet path, where the closure and swapper allocations of the
	// generic sort would dominate.
	sorted := frags
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Header.FragOff < sorted[j-1].Header.FragOff; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	tail := sorted[len(sorted)-1]
	size := int(tail.Header.FragOff)*8 + len(tail.Payload)
	// Validate the byte range first, so a corrupt set never costs a
	// buffer.
	next := 0
	for i, f := range sorted {
		off := int(f.Header.FragOff) * 8
		if off != next {
			return nil, false // gap (or overlap, which we treat as corrupt)
		}
		next = off + len(f.Payload)
		last := i == len(sorted)-1
		if f.Header.MoreFragments() == last {
			// MF set on the final fragment, or cleared mid-train: corrupt.
			return nil, false
		}
	}
	if IPv4HeaderLen+size > 0xFFFF {
		return nil, false
	}
	var payload []byte
	var wb *WireBuf
	if pool != nil {
		wb = pool.get(size)
		payload = wb.b
	} else {
		payload = make([]byte, 0, size)
	}
	for _, f := range sorted {
		payload = append(payload, f.Payload...)
	}
	if wb != nil {
		wb.b = payload
	}
	h := sorted[0].Header
	h.FragOff = 0
	h.Flags &^= FlagMoreFrags
	var whole *Datagram
	if pool != nil {
		whole = pool.getDatagram()
	} else {
		whole = &Datagram{}
	}
	whole.Header = h
	whole.Payload = payload
	whole.owner = wb
	whole.Header.TotalLen = uint16(whole.Len())
	return whole, true
}
