package inet

// WireBuf is a reference-counted wire-payload buffer. The UDP send path
// builds each datagram's bytes into one; Fragment makes every fragment of
// the datagram share it (their payloads are disjoint sub-slices), with the
// reference count tracking how many fragments are still alive. When the
// last fragment dies — dropped at a hop, unroutable, consumed by the
// receiving host's reassembly, or its train abandoned by the reassembly
// timeout or at the end of a run — the buffer returns to its pool and the
// next send reuses it, which is what keeps steady-state streaming from
// allocating per packet.
//
// Capture never holds a WireBuf reference: the sniffer copies payload
// bytes into its own arena (or streams them through analyzers) inside the
// tap call, before the network mutates or recycles anything.
type WireBuf struct {
	b    []byte
	refs int32
	pool *BufPool
}

// BufPool recycles WireBufs and the Datagram structs that carry them. A
// pool serves one goroutine's simulations: a sweep worker's testbed cache
// owns one and hands it to every network it builds, which never run at
// the same time, and a network built on its own makes its own. It is not
// safe for concurrent use. The zero value is ready.
type BufPool struct {
	free  []*WireBuf
	freeD []*Datagram
	// made and madeD count the buffers and structs the pool ever
	// allocated, for Census.
	made, madeD int
}

// PoolCensus is a BufPool's inventory: how many wire buffers and datagram
// structs it has made, and how many of each sit on its free lists.
type PoolCensus struct {
	Bufs, FreeBufs           int
	Datagrams, FreeDatagrams int
}

// Census reports the pool's inventory. Once no datagram is in flight,
// buffered for reassembly or held by a caller, a pool that leaks nothing
// and frees nothing twice has every buffer and struct it made back on its
// free lists: a leak shows as a free count below the made count, a double
// put as one above it.
func (p *BufPool) Census() PoolCensus {
	return PoolCensus{Bufs: p.made, FreeBufs: len(p.free), Datagrams: p.madeD, FreeDatagrams: len(p.freeD)}
}

// getDatagram returns a zeroed Datagram struct, recycled when possible.
func (p *BufPool) getDatagram() *Datagram {
	if n := len(p.freeD); n > 0 {
		d := p.freeD[n-1]
		p.freeD = p.freeD[:n-1]
		return d
	}
	p.madeD++
	return &Datagram{}
}

// putDatagram recycles a dead Datagram struct. The caller owns the last
// reference; the struct is zeroed so a stale pointer reads an empty
// datagram rather than the next packet's.
func (p *BufPool) putDatagram(d *Datagram) {
	*d = Datagram{}
	p.freeD = append(p.freeD, d)
}

// get returns a buffer with capacity for at least n bytes and one
// reference. Capacities are rounded up to a power of two (min 1 KB), so a
// mixed-size workload converges on a few size classes instead of churning
// the free list with near-miss buffers.
func (p *BufPool) get(n int) *WireBuf {
	var wb *WireBuf
	if last := len(p.free) - 1; last >= 0 {
		wb = p.free[last]
		p.free = p.free[:last]
		if cap(wb.b) < n {
			wb.b = make([]byte, 0, roundCap(n))
		}
	} else {
		p.made++
		wb = &WireBuf{pool: p, b: make([]byte, 0, roundCap(n))}
	}
	wb.b = wb.b[:0]
	wb.refs = 1
	return wb
}

// roundCap rounds a requested capacity up to the next power of two, at
// least 1 KB (UDP payloads are capped at 64 KB, so overshoot is bounded).
func roundCap(n int) int {
	c := 1 << 10
	for c < n {
		c <<= 1
	}
	return c
}

// put returns a buffer to the free list.
func (p *BufPool) put(wb *WireBuf) {
	p.free = append(p.free, wb)
}

// Release drops the datagram's reference on its shared wire buffer, if it
// has one; the buffer returns to its pool when the last sibling fragment
// releases, and the datagram's own struct recycles immediately — Release
// is each fragment's terminal touch, so the caller must not use the
// datagram afterwards (the same contract the recycled payload bytes
// already imposed). Datagrams built outside a pool (ICMP, TCP, tests)
// have no owner and Release is a no-op. Releasing the same datagram twice
// is a bug; the owner pointer is cleared to make the second call harmless.
func (d *Datagram) Release() {
	wb := d.owner
	if wb == nil {
		return
	}
	d.owner = nil
	wb.refs--
	if pool := wb.pool; pool != nil {
		if wb.refs <= 0 {
			pool.put(wb)
		}
		pool.putDatagram(d)
	}
}

// Recycle returns a fragmented parent datagram's struct to its pool
// without touching the shared wire buffer's reference count. Only the
// host send path calls it, after SetFragmentRefs has pointed the buffer's
// count at the fragments: the parent struct is then dead — its payload
// lives on as the fragments' sub-slices — but was never given a reference
// of its own to Release.
func (d *Datagram) Recycle() {
	wb := d.owner
	if wb == nil {
		return
	}
	d.owner = nil
	if wb.pool != nil {
		wb.pool.putDatagram(d)
	}
}

// BuildUDPPooled is BuildUDP with the marshalled bytes placed in a pooled
// wire buffer: the caller (the host send path) must arrange for every
// fragment of the returned datagram to be released exactly once.
func BuildUDPPooled(p *BufPool, src, dst Endpoint, id uint16, payload []byte) (*Datagram, error) {
	total := UDPHeaderLen + len(payload)
	if IPv4HeaderLen+total > 0xFFFF {
		return nil, ErrPayloadRange
	}
	wb := p.get(total)
	var err error
	wb.b, err = appendUDP(wb.b, src, dst, payload)
	if err != nil {
		wb.refs = 0
		p.put(wb)
		return nil, err
	}
	d := p.getDatagram()
	d.Header = IPv4Header{
		ID:       id,
		TTL:      DefaultTTL,
		Protocol: ProtoUDP,
		Src:      src.Addr,
		Dst:      dst.Addr,
	}
	d.Payload = wb.b
	d.owner = wb
	d.Header.TotalLen = uint16(d.Len())
	return d, nil
}
