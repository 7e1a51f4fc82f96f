package netsim

import (
	"fmt"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
)

// Direction distinguishes tap events.
type Direction int

const (
	// Send is a datagram leaving the host NIC.
	Send Direction = iota
	// Recv is a datagram arriving at the host NIC (pre-reassembly, so taps
	// observe individual IP fragments exactly as Ethereal did).
	Recv
)

// String names the direction.
func (d Direction) String() string {
	if d == Send {
		return "send"
	}
	return "recv"
}

// TapFunc observes wire datagrams at a host NIC. Taps must not mutate the
// datagram, and must not retain it (or its payload) beyond the call: the
// network mutates datagrams in transit and recycles their wire buffers
// once delivery completes. Observers copy what they keep — the capture
// layer's columnar arena is the canonical example.
type TapFunc func(now eventsim.Time, dir Direction, d *inet.Datagram)

// UDPHandler consumes a reassembled UDP payload addressed to a bound port.
type UDPHandler func(now eventsim.Time, from inet.Endpoint, payload []byte)

// ICMPHandler consumes ICMP messages delivered to the host (other than echo
// requests, which the host answers itself).
type ICMPHandler func(now eventsim.Time, from inet.Addr, msg inet.ICMPMessage)

// TCPHandler consumes reassembled TCP segments; the tcplite package
// registers one per host and demultiplexes by port internally.
type TCPHandler func(now eventsim.Time, from inet.Addr, segment []byte)

// Host is an endpoint attached to the network: an IP stack (fragmentation,
// reassembly, ICMP echo) plus a UDP port demultiplexer.
type Host struct {
	net   *Network
	addr  inet.Addr
	mtu   int
	ipID  uint16
	reasm *inet.Reassembler

	udpHandlers  map[inet.Port]UDPHandler
	icmpHandlers []ICMPHandler
	tcpHandler   TCPHandler
	taps         []TapFunc

	// frags is the send path's fragment-train scratch, reused across sends.
	// Safe to share across SendUDP and SendTCP: the network schedules hop
	// traversal as events, so a send never re-enters another send.
	frags []*inet.Datagram

	// Counters.
	SentDatagrams     uint64
	ReceivedDatagrams uint64
	ReceivedUDP       uint64
	Unroutable        uint64
	UndeliveredPort   uint64
	ChecksumErrors    uint64
}

func newHost(n *Network, addr inet.Addr) *Host {
	h := &Host{
		net:         n,
		addr:        addr,
		reasm:       inet.NewReassemblerPooled(&n.pool),
		udpHandlers: make(map[inet.Port]UDPHandler),
	}
	h.reset()
	return h
}

// reset arms the host for a run without reallocating (newHost ends in it):
// port bindings, taps, counters, the IP ID sequence, and half-reassembled
// fragments all clear, while the handler map and reassembler keep their
// backing storage (and stale fragments release their pooled wire buffers).
func (h *Host) reset() {
	h.mtu = inet.DefaultMTU
	h.ipID = 0
	h.reasm.Reset()
	clear(h.udpHandlers)
	h.icmpHandlers = h.icmpHandlers[:0]
	h.tcpHandler = nil
	h.taps = h.taps[:0]
	clear(h.frags) // drop stale pointers into recycled datagrams
	h.frags = h.frags[:0]
	h.SentDatagrams = 0
	h.ReceivedDatagrams = 0
	h.ReceivedUDP = 0
	h.Unroutable = 0
	h.UndeliveredPort = 0
	h.ChecksumErrors = 0
}

// Addr returns the host's address.
func (h *Host) Addr() inet.Addr { return h.addr }

// MTU returns the host's interface MTU.
func (h *Host) MTU() int { return h.mtu }

// SetMTU overrides the interface MTU (default 1500, as on Windows 2000).
func (h *Host) SetMTU(mtu int) {
	if mtu < inet.IPv4HeaderLen+8 {
		panic(fmt.Sprintf("netsim: mtu %d too small", mtu))
	}
	h.mtu = mtu
}

// Network returns the network the host is attached to.
func (h *Host) Network() *Network { return h.net }

// Now returns the current simulated time.
func (h *Host) Now() eventsim.Time { return h.net.Now() }

// Tap registers a NIC observer (both directions).
func (h *Host) Tap(fn TapFunc) { h.taps = append(h.taps, fn) }

// BindUDP routes payloads addressed to port to fn. Binding a bound port
// replaces the handler (servers rebind between runs).
func (h *Host) BindUDP(port inet.Port, fn UDPHandler) { h.udpHandlers[port] = fn }

// UnbindUDP removes a port binding.
func (h *Host) UnbindUDP(port inet.Port) { delete(h.udpHandlers, port) }

// OnICMP registers an ICMP consumer; several probes may listen at once and
// each receives every message (consumers filter by ICMP ID).
func (h *Host) OnICMP(fn ICMPHandler) { h.icmpHandlers = append(h.icmpHandlers, fn) }

// OnTCP registers the host's TCP segment consumer (one per host; the
// transport layer demultiplexes by port).
func (h *Host) OnTCP(fn TCPHandler) { h.tcpHandler = fn }

// SendTCP transmits a raw TCP segment datagram to dst (fragmenting at the
// MTU if a jumbo segment is handed down).
func (h *Host) SendTCP(dst inet.Addr, seg []byte) error {
	d := &inet.Datagram{
		Header: inet.IPv4Header{
			ID:       h.nextID(),
			TTL:      inet.DefaultTTL,
			Protocol: inet.ProtoTCP,
			Src:      h.addr,
			Dst:      dst,
		},
		Payload: seg,
	}
	if d.Len() > 0xFFFF {
		return inet.ErrPayloadRange
	}
	d.Header.TotalLen = uint16(d.Len())
	var err error
	h.frags, err = inet.AppendFragments(h.frags[:0], d, h.mtu)
	if err != nil {
		return err
	}
	now := h.net.Now()
	for _, f := range h.frags {
		h.transmit(f, now)
	}
	return nil
}

// nextID returns the host's next IP identification value.
func (h *Host) nextID() uint16 {
	h.ipID++
	return h.ipID
}

// SendUDP builds a UDP datagram to dst and transmits it, fragmenting at the
// host MTU exactly as the OS IP layer does when handed an oversize
// application frame. It returns the number of wire packets emitted (the
// fragment train length), or an error if the datagram could not be built.
//
// The caller's payload is copied into a pooled wire buffer that recycles
// once every fragment has been dropped or reassembled, so the payload
// slice may be reused immediately and steady-state streaming does not
// allocate per datagram.
func (h *Host) SendUDP(srcPort inet.Port, dst inet.Endpoint, payload []byte) (int, error) {
	src := inet.Endpoint{Addr: h.addr, Port: srcPort}
	d, err := inet.BuildUDPPooled(&h.net.pool, src, dst, h.nextID(), payload)
	if err != nil {
		return 0, err
	}
	h.frags, err = inet.AppendFragments(h.frags[:0], d, h.mtu)
	if err != nil {
		d.Release()
		return 0, err
	}
	inet.SetFragmentRefs(h.frags)
	if len(h.frags) > 1 {
		// The parent's struct is dead once its payload has been sliced into
		// the fragments (which now own the buffer's references); recycle it.
		d.Recycle()
	}
	now := h.net.Now()
	for _, f := range h.frags {
		h.transmit(f, now)
	}
	return len(h.frags), nil
}

// SendICMP transmits an ICMP message to dst with the given TTL.
func (h *Host) SendICMP(dst inet.Addr, ttl byte, msg inet.ICMPMessage) {
	d := inet.BuildICMP(h.addr, dst, ttl, h.nextID(), msg)
	h.transmit(d, h.net.Now())
}

// transmit runs taps and injects into the network. Taps observe the
// datagram before the network mutates it in transit (TTL, corruption) and
// must copy anything they keep within the call — the capture layer's
// columnar store does exactly that — so no defensive clone is needed even
// on tapped hosts.
func (h *Host) transmit(d *inet.Datagram, now eventsim.Time) {
	for _, tap := range h.taps {
		tap(now, Send, d)
	}
	h.SentDatagrams++
	if !h.net.send(d, now) {
		h.Unroutable++
		d.Release()
	}
}

// deliver is called by the network when a wire datagram arrives at the NIC.
// Handlers (UDP, TCP, ICMP) receive payload views that are only valid for
// the duration of the call: once delivery completes, the datagram's pooled
// wire buffer may recycle.
func (h *Host) deliver(d *inet.Datagram, now eventsim.Time) {
	h.ReceivedDatagrams++
	for _, tap := range h.taps {
		tap(now, Recv, d)
	}
	whole, err := h.reasm.Add(d)
	if err != nil {
		d.Release()
		return
	}
	if whole == nil {
		return // fragment buffered; the reassembler owns its reference now
	}
	defer whole.Release()
	switch whole.Header.Protocol {
	case inet.ProtoUDP:
		udp, payload, err := whole.UDP()
		if err != nil {
			h.ChecksumErrors++
			return
		}
		h.ReceivedUDP++
		handler := h.udpHandlers[udp.DstPort]
		if handler == nil {
			h.UndeliveredPort++
			return
		}
		from := inet.Endpoint{Addr: whole.Header.Src, Port: udp.SrcPort}
		handler(now, from, payload)
	case inet.ProtoTCP:
		if h.tcpHandler != nil {
			h.tcpHandler(now, whole.Header.Src, whole.Payload)
		}
	case inet.ProtoICMP:
		msg, err := inet.ParseICMP(whole.Payload)
		if err != nil {
			h.ChecksumErrors++
			return
		}
		if msg.Type == inet.ICMPEchoRequest {
			reply := inet.ICMPMessage{Type: inet.ICMPEchoReply, ID: msg.ID, Seq: msg.Seq, Payload: msg.Payload}
			h.SendICMP(whole.Header.Src, inet.DefaultTTL, reply)
			return
		}
		for _, fn := range h.icmpHandlers {
			fn(now, whole.Header.Src, msg)
		}
	}
}

// After schedules fn on the shared event loop, a convenience for model code
// holding only a Host.
func (h *Host) After(d time.Duration, name string, fn func(now eventsim.Time)) eventsim.Timer {
	return h.net.Sched.After(d, name, fn)
}

// AfterArg is After with the closure-free static-callback form, for model
// code that schedules on a per-packet cadence.
func (h *Host) AfterArg(d time.Duration, name string, fn func(now eventsim.Time, arg any), arg any) eventsim.Timer {
	return h.net.Sched.AfterArg(d, name, fn, arg)
}
