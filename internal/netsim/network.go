package netsim

import (
	"fmt"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
)

// Network owns the scheduler, the hosts and the directed paths between
// them. All model code runs on the network's single event loop.
type Network struct {
	Sched *eventsim.Scheduler
	rng   *eventsim.RNG
	hosts map[inet.Addr]*Host
	paths map[route]*Path

	// freeTransit recycles the per-packet forwarding state so the steady
	// streaming path does not allocate per hop traversal.
	freeTransit []*transit

	// pool recycles UDP wire-payload buffers across the whole simulation:
	// a buffer returns when its datagram's last fragment is dropped or
	// reassembled, or its train is abandoned (capture copies what it
	// keeps), so steady-state streaming reuses a small working set instead
	// of allocating per packet. New makes one; UseBufPool shares another.
	pool *inet.BufPool

	// drainFn is the bound scheduler-drain callback, created once so Reset
	// does not allocate a method value per call.
	drainFn func(name string, arg any)
}

// transit is one datagram's journey along a path: the state threaded
// through the per-hop forwarding events. Pooled on the Network.
type transit struct {
	n   *Network
	p   *Path
	d   *inet.Datagram
	hop int
}

func (n *Network) newTransit(p *Path, d *inet.Datagram) *transit {
	if len(n.freeTransit) == 0 {
		return &transit{n: n, p: p, d: d}
	}
	t := n.freeTransit[len(n.freeTransit)-1]
	n.freeTransit = n.freeTransit[:len(n.freeTransit)-1]
	t.p = p
	t.d = d
	t.hop = 0
	return t
}

func (n *Network) releaseTransit(t *transit) {
	t.p = nil
	t.d = nil
	n.freeTransit = append(n.freeTransit, t)
}

// forwardStep and deliverStep are the static event callbacks of the
// forwarding hot path; passing the transit as the event argument avoids a
// closure allocation per hop per packet.
func forwardStep(now eventsim.Time, arg any) {
	t := arg.(*transit)
	t.n.forward(t, now)
}

func deliverStep(now eventsim.Time, arg any) {
	t := arg.(*transit)
	dst := t.n.hosts[t.p.dst]
	d := t.d
	t.n.releaseTransit(t)
	dst.deliver(d, now)
}

type route struct{ src, dst inet.Addr }

// New creates an empty network with a deterministic RNG, armed for seed
// by Reset.
func New(seed int64) *Network {
	n := &Network{
		Sched: eventsim.NewScheduler(),
		rng:   eventsim.NewRNG(0),
		hosts: make(map[inet.Addr]*Host),
		paths: make(map[route]*Path),
		pool:  &inet.BufPool{},
	}
	n.drainFn = n.drainEvent
	n.Reset(seed)
	return n
}

// drainEvent reclaims pooled per-event payloads when the scheduler discards
// pending events on Reset: an in-flight transit releases its datagram's
// wire buffer to the pool and returns itself to the transit free list.
func (n *Network) drainEvent(_ string, arg any) {
	t, ok := arg.(*transit)
	if !ok {
		return
	}
	if t.d != nil {
		t.d.Release()
	}
	n.releaseTransit(t)
}

// Reset arms the network for the given seed without reallocating: the
// scheduler drains (in-flight datagrams return to the wire-buffer pool),
// the root RNG reseeds, and every host and hop rewinds to its
// just-connected state. New ends in Reset, so a reset network is a new
// one. Topology is retained — Reset rewinds state, it does not rewire
// hosts or paths — which is what lets a testbed built once serve every
// cell of a sweep. Host and hop resets draw nothing from the RNG, so map
// iteration order does not affect determinism.
func (n *Network) Reset(seed int64) {
	n.Sched.Reset(n.drainFn)
	n.rng.Reseed(seed)
	for _, h := range n.hosts {
		h.reset()
	}
	for _, p := range n.paths {
		for _, hop := range p.hops {
			hop.reset()
		}
	}
}

// UseBufPool makes the network and its hosts' reassemblers draw wire
// buffers from p, which the network then shares with whoever else uses p,
// such as the other testbeds of one sweep worker. The networks sharing a
// pool must never run at the same time. Call it between runs; buffers
// already in flight or buffered return to the pool that made them.
func (n *Network) UseBufPool(p *inet.BufPool) {
	n.pool = p
	for _, h := range n.hosts {
		h.reasm.UsePool(p)
	}
}

// ReleaseFragments returns every host's half-reassembled fragment trains
// to the wire-buffer pool. A run calls it once its event loop has drained,
// so a testbed that sits idle until its next run pins no buffers; Reset
// releases the same way, through each host's reset.
func (n *Network) ReleaseFragments() {
	for _, h := range n.hosts {
		h.reasm.Release()
	}
}

// RNG exposes the network's root random stream so models can Split from it.
func (n *Network) RNG() *eventsim.RNG { return n.rng }

// Now returns the current simulated time.
func (n *Network) Now() eventsim.Time { return n.Sched.Now() }

// AddHost creates and registers a host.
func (n *Network) AddHost(addr inet.Addr) *Host {
	if _, dup := n.hosts[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate host %s", addr))
	}
	h := newHost(n, addr)
	n.hosts[addr] = h
	return h
}

// Host returns the registered host for addr, or nil.
func (n *Network) Host(addr inet.Addr) *Host { return n.hosts[addr] }

// ConnectDuplex installs a forward path from a to b using specs, and a
// mirrored reverse path with independent queue state, as real duplex links
// have. The reverse path traverses the same router addresses in opposite
// order.
func (n *Network) ConnectDuplex(a, b inet.Addr, specs []HopSpec) (*Path, *Path) {
	fwd := n.connect(a, b, specs)
	rev := make([]HopSpec, len(specs))
	for i := range specs {
		rev[i] = specs[len(specs)-1-i]
	}
	back := n.connect(b, a, rev)
	return fwd, back
}

func (n *Network) connect(src, dst inet.Addr, specs []HopSpec) *Path {
	if src == dst {
		panic("netsim: cannot connect a host to itself")
	}
	p := &Path{src: src, dst: dst, sched: n.Sched}
	for _, s := range specs {
		p.hops = append(p.hops, newHopState(s))
	}
	n.paths[route{src, dst}] = p
	return p
}

// PathBetween returns the installed directed path, or nil.
func (n *Network) PathBetween(src, dst inet.Addr) *Path {
	return n.paths[route{src, dst}]
}

// send injects a datagram from its source host into the network. Datagrams
// to unknown destinations or without a path are dropped silently, as a real
// network drops unroutable traffic (counted on the host).
func (n *Network) send(d *inet.Datagram, now eventsim.Time) bool {
	p := n.paths[route{d.Header.Src, d.Header.Dst}]
	if p == nil {
		return false
	}
	n.forward(n.newTransit(p, d), now)
	return true
}

// forward advances t's datagram through its current hop, scheduling its
// arrival at the next hop (or final delivery). Each stage delegates to the
// hop's netem models when installed and to the spec-driven legacy
// behaviour otherwise; either way the path is allocation-free per packet.
//
// Queue occupancy costs no events: an accepted datagram's departure goes
// into the hop's ring stamped with the sequence number the next scheduled
// event will get, and the next forward through the hop retires every
// departure the scheduler has passed. The stamp orders a departure against
// events due at the same instant exactly as an event scheduled at
// admission would be ordered, so the backlog stays exact when a datagram
// arrives on the very nanosecond another departs.
func (n *Network) forward(t *transit, now eventsim.Time) {
	p, i, d := t.p, t.hop, t.d
	hop := p.hops[i]
	// Random early loss from the hop's loss process.
	if hop.dropByLoss(n.rng) {
		hop.DroppedLoss++
		d.Release()
		n.releaseTransit(t)
		return
	}
	// Drop-tail: physical FIFO overflow.
	queued := hop.backlog(n.Sched)
	if queued >= hop.queueCap() {
		hop.DroppedFull++
		d.Release()
		n.releaseTransit(t)
		return
	}
	// Active queue management: the policy may shed load before overflow.
	if !hop.admit(n.rng, queued) {
		hop.DroppedAQM++
		d.Release()
		n.releaseTransit(t)
		return
	}
	// TTL handling: the router discards and reports expiry.
	if d.Header.TTL <= 1 {
		hop.TTLExpired++
		n.returnTimeExceeded(p, i, d, now)
		d.Release()
		n.releaseTransit(t)
		return
	}
	d.Header.TTL--

	// Bit corruption in transit: flip one payload byte. The receiving
	// host's transport checksums are what catch this.
	if hop.spec.Corrupt > 0 && len(d.Payload) > 0 && n.rng.Bernoulli(hop.spec.Corrupt) {
		d.Payload[n.rng.Intn(len(d.Payload))] ^= 1 << n.rng.Intn(8)
	}

	ser := transmissionDelay(d.WireLen(), hop.bandwidthAt(n.rng, now))
	start := now
	if hop.busyUntil > start {
		start = hop.busyUntil
	}
	departure := start.Add(ser)
	hop.busyUntil = departure
	hop.enqueue(departure, n.Sched.Scheduled())

	// Propagation plus cross-traffic jitter; FIFO order is preserved.
	delay := hop.spec.PropDelay + hop.drawJitter(n.rng)
	arrival := departure.Add(delay)
	if arrival < hop.lastExit {
		arrival = hop.lastExit
	}
	hop.lastExit = arrival
	hop.Forwarded++

	if i == len(p.hops)-1 {
		if n.hosts[p.dst] == nil {
			d.Release()
			n.releaseTransit(t)
			return
		}
		n.Sched.AtArg(arrival, "host.deliver", deliverStep, t)
		return
	}
	t.hop = i + 1
	n.Sched.AtArg(arrival, "hop.forward", forwardStep, t)
}

// returnTimeExceeded emits the ICMP error a router sends when TTL expires,
// delivering it back to the source after the accumulated upstream
// propagation delay (error packets skip detailed queue modelling).
func (n *Network) returnTimeExceeded(p *Path, i int, d *inet.Datagram, now eventsim.Time) {
	src := n.hosts[p.src]
	if src == nil {
		return
	}
	var back time.Duration
	for k := 0; k <= i; k++ {
		back += p.hops[k].spec.PropDelay
		back += time.Duration(n.rng.Uniform(0, float64(p.hops[k].spec.JitterMax)))
	}
	msg := inet.ICMPMessage{
		Type:    inet.ICMPTimeExceeded,
		Payload: inet.QuoteDatagram(d),
	}
	reply := inet.BuildICMP(p.hops[i].spec.Addr, p.src, inet.DefaultTTL, 0, msg)
	n.Sched.At(now.Add(back), "icmp.time-exceeded", func(t eventsim.Time) {
		src.deliver(reply, t)
	})
}

// Run drives the simulation until the horizon (0 = until idle).
func (n *Network) Run(horizon eventsim.Time) error { return n.Sched.Run(horizon) }
