// Package capture reimplements the measurement role Ethereal 0.8.20 played
// in the paper: it taps a simulated host NIC, records every wire packet
// (including individual IP fragments) with timestamps, persists traces in a
// compact binary format, evaluates display-filter expressions, streams
// per-record observations to online analyzers, and derives the per-flow
// metrics the analysis section needs — packet sizes, interarrival times,
// fragment shares, bandwidth-over-time and sequence-number-over-time
// series.
package capture

import (
	"fmt"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/netsim"
	"turbulence/internal/stats"
)

// Record is one captured wire packet, pre-parsed for analysis. It is a
// value materialised from the trace's columnar storage (or built fresh by
// the sniffer); the wire payload bytes live in the owning trace's arena
// and are referenced, not copied, by the record view.
type Record struct {
	At      time.Duration // capture time relative to the trace epoch
	Dir     netsim.Direction
	WireLen int // on-the-wire bytes including Ethernet framing

	// Parsed network-layer fields. TTL, TOS and Flags carry the full IPv4
	// header state as captured, so Raw can re-serialise the packet without
	// retaining the original datagram.
	Src, Dst inet.Addr
	Proto    byte
	TTL      byte
	TOS      byte
	IPID     uint16
	Flags    uint16 // raw IPv4 flag bits (DF | MF)
	FragOff  uint16 // 8-byte units
	MoreFrag bool
	IPLen    int

	// Parsed transport fields; valid only when HasPorts (unfragmented
	// datagrams and first fragments).
	HasPorts         bool
	SrcPort, DstPort inet.Port
	PayloadLen       int // UDP payload bytes in this wire packet

	// wire is the captured IP payload (transport header + data). It is nil
	// for synthetic records (e.g. from the Section IV flow generator),
	// which have no wire bytes. For records read back from a trace it is a
	// view into the owning trace's payload arena.
	wire []byte
}

// IsFragment reports whether the record is any fragment of a larger
// datagram (first, middle or last).
func (r Record) IsFragment() bool { return r.FragOff != 0 || r.MoreFrag }

// IsContinuationFragment reports whether the record is a non-first
// fragment. This matches the convention in the paper's Figure 5: Ethereal
// displays the first fragment (offset 0, which carries the UDP header) as a
// UDP packet and only subsequent fragments as "IP fragments".
func (r Record) IsContinuationFragment() bool { return r.FragOff != 0 }

// Flow returns the record's flow when ports are available.
func (r Record) Flow() (inet.Flow, bool) {
	if !r.HasPorts {
		return inet.Flow{}, false
	}
	return inet.Flow{
		Src: inet.Endpoint{Addr: r.Src, Port: r.SrcPort},
		Dst: inet.Endpoint{Addr: r.Dst, Port: r.DstPort},
	}, true
}

// Raw serialises the captured packet to IP wire bytes. It returns nil for
// synthetic records.
func (r Record) Raw() []byte { return r.AppendRaw(nil) }

// AppendRaw appends the captured packet's wire bytes to dst, returning the
// extended slice; trace writers reuse one scratch buffer across records
// this way. The header is rebuilt from the parsed columns (checksum
// included) and is byte-identical to what the original datagram marshalled
// to. Synthetic records append nothing.
func (r Record) AppendRaw(dst []byte) []byte {
	if r.wire == nil {
		return dst
	}
	h := inet.IPv4Header{
		TOS:      r.TOS,
		TotalLen: uint16(r.IPLen),
		ID:       r.IPID,
		Flags:    r.Flags,
		FragOff:  r.FragOff,
		TTL:      r.TTL,
		Protocol: r.Proto,
		Src:      r.Src,
		Dst:      r.Dst,
	}
	n := len(dst)
	dst = append(dst, make([]byte, inet.IPv4HeaderLen)...)
	h.MarshalTo(dst[n:])
	return append(dst, r.wire...)
}

// Wire returns the record's captured IP payload bytes (transport header
// plus data), nil for synthetic records. The slice aliases the trace's
// arena; callers must not mutate it.
func (r Record) Wire() []byte { return r.wire }

// String renders a one-line packet summary in the spirit of a sniffer's
// list view.
func (r Record) String() string {
	proto := "ip"
	switch r.Proto {
	case inet.ProtoUDP:
		proto = "udp"
	case inet.ProtoICMP:
		proto = "icmp"
	case inet.ProtoTCP:
		proto = "tcp"
	}
	frag := ""
	if r.IsFragment() {
		frag = fmt.Sprintf(" frag off=%d mf=%t", r.FragOff, r.MoreFrag)
	}
	ports := ""
	if r.HasPorts {
		ports = fmt.Sprintf(" %d->%d", r.SrcPort, r.DstPort)
	}
	return fmt.Sprintf("%10.6f %s %s %s -> %s len=%d%s%s",
		r.At.Seconds(), r.Dir, proto, r.Src, r.Dst, r.WireLen, ports, frag)
}

// arena is slab-backed storage for captured payload bytes. Slabs never
// move once allocated (payloads are placed only into a slab's spare
// capacity), so views into the arena stay valid as it grows, and growth
// never copies — total allocation stays proportional to the bytes stored.
type arena struct {
	slabs    [][]byte
	nextSize int
}

const (
	arenaMinSlab = 64 << 10
	arenaMaxSlab = 4 << 20
)

// place copies p into the arena and returns a packed (slab, offset)
// reference.
func (a *arena) place(p []byte) int64 {
	s := len(a.slabs) - 1
	if s < 0 || cap(a.slabs[s])-len(a.slabs[s]) < len(p) {
		a.grow(len(p))
		s = len(a.slabs) - 1
	}
	off := len(a.slabs[s])
	a.slabs[s] = append(a.slabs[s], p...)
	return int64(s)<<32 | int64(off)
}

// grow adds a slab with room for at least n more bytes.
func (a *arena) grow(n int) {
	size := a.nextSize
	if size < arenaMinSlab {
		size = arenaMinSlab
	}
	if size < n {
		size = n
	}
	a.slabs = append(a.slabs, make([]byte, 0, size))
	a.nextSize = size * 2
	if a.nextSize > arenaMaxSlab {
		a.nextSize = arenaMaxSlab
	}
}

// free reports the spare capacity of the active slab.
func (a *arena) free() int {
	s := len(a.slabs) - 1
	if s < 0 {
		return 0
	}
	return cap(a.slabs[s]) - len(a.slabs[s])
}

// view resolves a reference to its n bytes.
func (a *arena) view(ref int64, n int) []byte {
	if n == 0 {
		return a.slabs[ref>>32][:0]
	}
	off := int(ref & 0xFFFFFFFF)
	return a.slabs[ref>>32][off : off+n : off+n]
}

// store is the columnar (structure-of-arrays) record storage behind a
// Trace: one slice per field plus the payload arena. Analysis passes that
// touch a few fields (sizes, times, fragment offsets) scan small
// contiguous columns instead of striding across wide record structs, and
// the store holds no pointers into the simulator — captured payload bytes
// are copied into the arena at append time, so the network's datagram
// buffers can be recycled the moment delivery completes.
type store struct {
	at      []time.Duration
	wireLen []int32
	ipLen   []int32
	payLen  []int32
	src     []inet.Addr
	dst     []inet.Addr
	srcPort []inet.Port
	dstPort []inet.Port
	ipid    []uint16
	flags   []uint16
	fragOff []uint16
	proto   []byte
	ttl     []byte
	tos     []byte
	dir     []byte
	meta    []byte // bit 0: HasPorts; bit 1: has wire bytes
	wireRef []int64
	bytes   arena
}

const (
	metaHasPorts = 1 << 0
	metaHasWire  = 1 << 1
)

func (st *store) len() int { return len(st.at) }

// append scatters one record across the columns, copying its wire payload
// into the arena.
func (st *store) append(r Record) {
	st.at = append(st.at, r.At)
	st.wireLen = append(st.wireLen, int32(r.WireLen))
	st.ipLen = append(st.ipLen, int32(r.IPLen))
	st.payLen = append(st.payLen, int32(r.PayloadLen))
	st.src = append(st.src, r.Src)
	st.dst = append(st.dst, r.Dst)
	st.srcPort = append(st.srcPort, r.SrcPort)
	st.dstPort = append(st.dstPort, r.DstPort)
	st.ipid = append(st.ipid, r.IPID)
	flags := r.Flags
	if r.MoreFrag {
		// Records built without raw header state (synthetic generators) set
		// only the boolean; keep the flag bits authoritative in storage.
		flags |= inet.FlagMoreFrags
	}
	st.flags = append(st.flags, flags)
	st.fragOff = append(st.fragOff, r.FragOff)
	st.proto = append(st.proto, r.Proto)
	st.ttl = append(st.ttl, r.TTL)
	st.tos = append(st.tos, r.TOS)
	st.dir = append(st.dir, byte(r.Dir))
	var meta byte
	var ref int64
	if r.HasPorts {
		meta |= metaHasPorts
	}
	if r.wire != nil {
		meta |= metaHasWire
		ref = st.bytes.place(r.wire)
	}
	st.meta = append(st.meta, meta)
	st.wireRef = append(st.wireRef, ref)
}

// isFragment is Record.IsFragment over the columns — the one predicate
// SplitFlows, Fragmentation and the online demux all share, so fragment
// semantics cannot drift between the trace and streaming paths.
func (st *store) isFragment(i int) bool {
	return st.fragOff[i] != 0 || st.flags[i]&inet.FlagMoreFrags != 0
}

// record materialises the i-th row as a Record view.
func (st *store) record(i int) Record {
	meta := st.meta[i]
	r := Record{
		At:       st.at[i],
		Dir:      netsim.Direction(st.dir[i]),
		WireLen:  int(st.wireLen[i]),
		Src:      st.src[i],
		Dst:      st.dst[i],
		Proto:    st.proto[i],
		TTL:      st.ttl[i],
		TOS:      st.tos[i],
		IPID:     st.ipid[i],
		Flags:    st.flags[i],
		FragOff:  st.fragOff[i],
		MoreFrag: st.flags[i]&inet.FlagMoreFrags != 0,
		IPLen:    int(st.ipLen[i]),
		HasPorts: meta&metaHasPorts != 0,
		SrcPort:  st.srcPort[i],
		DstPort:  st.dstPort[i],
	}
	r.PayloadLen = int(st.payLen[i])
	if meta&metaHasWire != 0 {
		r.wire = st.bytes.view(st.wireRef[i], int(st.ipLen[i])-inet.IPv4HeaderLen)
	}
	return r
}

// grow preallocates capacity for n additional records across every column.
func (st *store) grow(n int) {
	if free := cap(st.at) - len(st.at); free >= n {
		return
	}
	growCol(&st.at, n)
	growCol(&st.wireLen, n)
	growCol(&st.ipLen, n)
	growCol(&st.payLen, n)
	growCol(&st.src, n)
	growCol(&st.dst, n)
	growCol(&st.srcPort, n)
	growCol(&st.dstPort, n)
	growCol(&st.ipid, n)
	growCol(&st.flags, n)
	growCol(&st.fragOff, n)
	growCol(&st.proto, n)
	growCol(&st.ttl, n)
	growCol(&st.tos, n)
	growCol(&st.dir, n)
	growCol(&st.meta, n)
	growCol(&st.wireRef, n)
}

// truncate empties the store in place: every column keeps its capacity
// for the next records, and the arena is dropped.
func (st *store) truncate() {
	st.at = st.at[:0]
	st.wireLen = st.wireLen[:0]
	st.ipLen = st.ipLen[:0]
	st.payLen = st.payLen[:0]
	st.src = st.src[:0]
	st.dst = st.dst[:0]
	st.srcPort = st.srcPort[:0]
	st.dstPort = st.dstPort[:0]
	st.ipid = st.ipid[:0]
	st.flags = st.flags[:0]
	st.fragOff = st.fragOff[:0]
	st.proto = st.proto[:0]
	st.ttl = st.ttl[:0]
	st.tos = st.tos[:0]
	st.dir = st.dir[:0]
	st.meta = st.meta[:0]
	st.wireRef = st.wireRef[:0]
	st.bytes = arena{}
}

func growCol[T any](col *[]T, n int) {
	if free := cap(*col) - len(*col); free >= n {
		return
	}
	grown := make([]T, len(*col), len(*col)+n)
	copy(grown, *col)
	*col = grown
}

// Trace is an ordered sequence of captured packets. A Trace is either an
// owner (it holds the columnar record store) or a view produced by
// Filter/Recv: an index list over an owner's records, sharing storage
// instead of copying it. Both kinds answer the full read-only analysis
// API.
type Trace struct {
	st     store
	parent *Trace  // non-nil for views; always the owning trace
	idx    []int32 // view positions within parent's store
}

// Len reports the number of captured packets.
func (t *Trace) Len() int {
	if t.parent != nil {
		return len(t.idx)
	}
	return t.st.len()
}

// At returns the i-th record, materialised from the owning trace's
// columnar storage. The record is a value; its wire payload (if any)
// aliases the owner's arena.
func (t *Trace) At(i int) Record {
	if t.parent != nil {
		return t.parent.st.record(int(t.idx[i]))
	}
	return t.st.record(i)
}

// Duration returns the timestamp of the last record.
func (t *Trace) Duration() time.Duration {
	n := t.Len()
	if n == 0 {
		return 0
	}
	if t.parent != nil {
		return t.parent.st.at[t.idx[n-1]]
	}
	return t.st.at[n-1]
}

// Append adds a record, keeping the trace usable as a streaming sink; the
// record's wire bytes (if any) are copied into the trace's arena.
// Appending to a view panics: views are read-only.
func (t *Trace) Append(r Record) {
	if t.parent != nil {
		panic("capture: Append on a trace view")
	}
	t.st.append(r)
}

// Grow preallocates capacity for at least n additional records, so
// streaming sinks that know their order of magnitude avoid repeated
// re-allocation of the record store.
func (t *Trace) Grow(n int) {
	if t.parent != nil {
		panic("capture: Grow on a trace view")
	}
	t.st.grow(n)
}

// GrowBytes preallocates arena capacity for at least n additional payload
// bytes.
func (t *Trace) GrowBytes(n int) {
	if t.parent != nil {
		panic("capture: GrowBytes on a trace view")
	}
	if t.st.bytes.free() < n {
		t.st.bytes.grow(n)
	}
}

// owner returns the trace holding the backing storage (itself, unless this
// trace is a view).
func (t *Trace) owner() *Trace {
	if t.parent != nil {
		return t.parent
	}
	return t
}

// storageIndex maps position i in this trace to an index in the owner's
// record storage.
func (t *Trace) storageIndex(i int) int32 {
	if t.parent != nil {
		return t.idx[i]
	}
	return int32(i)
}

// Filter returns the sub-trace of records for which keep returns true, as a
// view sharing this trace's storage. The index is preallocated to the
// input length, so one pass suffices.
func (t *Trace) Filter(keep func(*Record) bool) *Trace {
	n := t.Len()
	idx := make([]int32, 0, n)
	// One scratch record for the whole scan: a loop-local value would
	// escape through the predicate call and allocate per record.
	var r Record
	for i := 0; i < n; i++ {
		r = t.At(i)
		if keep(&r) {
			idx = append(idx, t.storageIndex(i))
		}
	}
	return &Trace{parent: t.owner(), idx: idx}
}

// CountIf reports how many records match keep, without materialising a
// sub-trace.
func (t *Trace) CountIf(keep func(*Record) bool) int {
	n := t.Len()
	count := 0
	var r Record
	for i := 0; i < n; i++ {
		r = t.At(i)
		if keep(&r) {
			count++
		}
	}
	return count
}

// Recv returns only received packets — the direction the paper analyses,
// since its client-side sniffer observed inbound media.
func (t *Trace) Recv() *Trace {
	return t.Filter(func(r *Record) bool { return r.Dir == netsim.Recv })
}

// parseRecord builds a Record from a wire datagram. The payload is
// referenced, not copied: the sniffer copies it into the trace arena when
// (and only when) the record is stored.
func parseRecord(at time.Duration, dir netsim.Direction, d *inet.Datagram) Record {
	r := Record{
		At:       at,
		Dir:      dir,
		WireLen:  d.WireLen(),
		Src:      d.Header.Src,
		Dst:      d.Header.Dst,
		Proto:    d.Header.Protocol,
		TTL:      d.Header.TTL,
		TOS:      d.Header.TOS,
		IPID:     d.Header.ID,
		Flags:    d.Header.Flags,
		FragOff:  d.Header.FragOff,
		MoreFrag: d.Header.MoreFragments(),
		IPLen:    d.Len(),
		wire:     d.Payload,
	}
	if f, ok := d.FlowOf(); ok {
		r.HasPorts = true
		r.SrcPort = f.Src.Port
		r.DstPort = f.Dst.Port
		hdr := inet.UDPHeaderLen
		if d.Header.Protocol == inet.ProtoTCP {
			hdr = inet.TCPHeaderLen
		}
		r.PayloadLen = len(d.Payload) - hdr
	} else if d.Header.IsFragment() {
		// Continuation fragment: payload bytes still count toward flow
		// bandwidth; ports resolved later via the IP ID.
		r.PayloadLen = len(d.Payload)
	}
	return r
}

// snifferPrealloc sizes the initial record store; a full paired streaming
// run captures tens of thousands of packets, so starting at a few thousand
// skips the noisy early growth steps without burdening short tests.
const snifferPrealloc = 4096

// Sniffer taps a host NIC, streams each parsed record to any registered
// observers (see Tap), and — unless storage is disabled — accumulates a
// Trace, timestamping records relative to the moment it was attached (the
// paper starts Ethereal as each experiment begins).
type Sniffer struct {
	trace Trace
	epoch eventsim.Time
	taps  []Tap
	drop  bool
	// rec is the persistent scratch record handed to taps: records flow
	// into Tap interface calls, so a per-packet stack value would escape
	// and cost one heap allocation per captured packet.
	rec Record
	// RecvOnly restricts capture to inbound packets.
	RecvOnly bool
}

// Attach starts capturing at h's NIC. The record store is sized on first
// use, so a sniffer that only streams to taps (SetStore(false)) holds no
// per-packet state at all.
func Attach(h *netsim.Host) *Sniffer {
	s := &Sniffer{epoch: h.Now()}
	h.Tap(func(now eventsim.Time, dir netsim.Direction, d *inet.Datagram) {
		if s.RecvOnly && dir != netsim.Recv {
			return
		}
		s.rec = parseRecord(now.Sub(s.epoch), dir, d)
		for _, tap := range s.taps {
			tap.Observe(&s.rec)
		}
		if !s.drop {
			if s.trace.st.len() == 0 {
				s.trace.Grow(snifferPrealloc)
			}
			s.trace.Append(s.rec)
		}
		s.rec.wire = nil // never outlive the datagram's buffer
	})
	return s
}

// AddTap registers an online observer invoked once per captured record, in
// registration order, before the record is stored. The *Record (and its
// wire payload view) is only valid for the duration of the call; taps must
// copy what they keep. The invocation itself never allocates.
func (s *Sniffer) AddTap(t Tap) { s.taps = append(s.taps, t) }

// SetStore selects whether records are retained in the sniffer's Trace
// (the default) or only streamed to taps. With storage off the sniffer
// holds no per-packet state at all — the memory shape behind
// StreamProfiles sweeps — and Trace stays empty.
func (s *Sniffer) SetStore(on bool) { s.drop = !on }

// Trace returns the accumulated trace. The sniffer keeps appending; take
// the trace only after the run completes.
func (s *Sniffer) Trace() *Trace { return &s.trace }

// Point re-exports the stats series point type for callers that only import
// capture.
type Point = stats.Point
