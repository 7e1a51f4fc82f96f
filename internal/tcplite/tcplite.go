// Package tcplite is a compact but real TCP implementation over the
// simulated network: three-way handshake, MSS segmentation, cumulative
// acknowledgements, retransmission timeouts with SRTT estimation, fast
// retransmit on triple duplicate ACKs, and Reno-style congestion control
// (slow start, congestion avoidance, multiplicative decrease).
//
// The paper needs it twice. First, §II.D notes both players *can* stream
// over TCP (the study forces UDP). Second, §I motivates the whole study
// with the observation that streaming prefers a steady rate over "the
// bursty data rate often associated with window-based network protocols" —
// a claim the ext-tcp experiment makes measurable by streaming the same
// media workload over both transports and comparing their turbulence.
package tcplite

import (
	"errors"
	"fmt"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/transport"
)

// MSS is the maximum segment payload; with headers it fills the Ethernet
// MTU exactly, so TCP never IP-fragments.
const MSS = inet.DefaultMTU - inet.IPv4HeaderLen - inet.TCPHeaderLen

// Protocol tuning.
const (
	initialRTO   = time.Second
	minRTO       = 200 * time.Millisecond
	maxRTO       = 10 * time.Second
	initialCwnd  = 2 * MSS
	recvWindow   = 0xFFFF // classic no-window-scaling maximum
	dupAckThresh = 3
	maxSynRetry  = 5
)

// Errors.
var (
	ErrClosed         = errors.New("tcplite: connection closed")
	ErrInUse          = errors.New("tcplite: port in use")
	ErrConnectTimeout = errors.New("tcplite: connect timed out")
)

// Stack is the per-host TCP endpoint table. Create one per host.
type Stack struct {
	host          transport.Transport
	listeners     map[inet.Port]*Listener
	conns         map[connKey]*Conn
	nextEphemeral inet.Port

	// segFn is the bound segment consumer, created once so Reset can rebind
	// without allocating a method value.
	segFn transport.TCPHandler
}

type connKey struct {
	local  inet.Port
	remote inet.Endpoint
}

// NewStack attaches a TCP stack to any transport (simulated or live),
// armed by Reset.
func NewStack(t transport.Transport) *Stack {
	s := &Stack{
		host:      t,
		listeners: make(map[inet.Port]*Listener),
		conns:     make(map[connKey]*Conn),
	}
	s.segFn = s.onSegment
	s.Reset()
	return s
}

// Reset arms the stack for a run without reallocating (NewStack ends in
// it): listeners and connections clear (their retransmission timers were
// already drained by the owning scheduler's reset), the ephemeral port
// sequence rewinds, and the segment consumer binds on the transport.
func (s *Stack) Reset() {
	clear(s.listeners)
	clear(s.conns)
	s.nextEphemeral = 49152
	s.host.OnTCP(s.segFn)
}

// Host returns the transport the stack is attached to.
func (s *Stack) Host() transport.Transport { return s.host }

// Listener accepts inbound connections on a port.
type Listener struct {
	stack  *Stack
	port   inet.Port
	accept func(*Conn)
}

// Listen starts accepting connections on port; accept runs for each new
// established connection.
func (s *Stack) Listen(port inet.Port, accept func(*Conn)) (*Listener, error) {
	if _, dup := s.listeners[port]; dup {
		return nil, ErrInUse
	}
	l := &Listener{stack: s, port: port, accept: accept}
	s.listeners[port] = l
	return l, nil
}

// Close stops accepting.
func (l *Listener) Close() { delete(l.stack.listeners, l.port) }

// State is the connection lifecycle.
type State int

// Connection states (subset of the RFC 793 machine sufficient for
// streaming workloads).
const (
	SynSent State = iota
	SynReceived
	Established
	FinWait
	Closed
)

// String names the state.
func (st State) String() string {
	switch st {
	case SynSent:
		return "syn-sent"
	case SynReceived:
		return "syn-received"
	case Established:
		return "established"
	case FinWait:
		return "fin-wait"
	default:
		return "closed"
	}
}

// Conn is one TCP connection.
type Conn struct {
	stack  *Stack
	local  inet.Endpoint
	remote inet.Endpoint
	state  State

	// Send side.
	sndBuf   []byte // bytes accepted from the application, unsent or unacked
	sndUna   uint32 // oldest unacknowledged sequence
	sndNxt   uint32 // next sequence to send
	iss      uint32 // initial send sequence
	cwnd     float64
	ssthresh float64
	dupAcks  int
	// recover is the NewReno recovery point: the highest sequence
	// outstanding when loss recovery began. Partial ACKs below it trigger
	// immediate retransmission of the next hole.
	recover   uint32
	rto       time.Duration
	srtt      time.Duration
	rttvar    time.Duration
	rtoTimer  eventsim.Timer
	rttSeq    uint32
	rttSentAt eventsim.Time
	sentFin   bool
	finSeq    uint32

	// Receive side.
	rcvNxt uint32
	irs    uint32
	ooo    map[uint32][]byte // out-of-order segments by sequence

	// Callbacks.
	onData    func(now eventsim.Time, b []byte)
	onConnect func(now eventsim.Time)
	onClose   func(now eventsim.Time)

	// Handshake retry state.
	synRetries int
	// acceptFn runs once a passively-opened connection establishes.
	acceptFn func(*Conn)
	// closeRequested defers Close issued before establishment.
	closeRequested bool

	// Stats.
	Retransmits   int
	FastRetrans   int
	Timeouts      int
	BytesSent     int
	BytesReceived int
}

// OnData registers the ordered byte-stream consumer.
func (c *Conn) OnData(fn func(now eventsim.Time, b []byte)) { c.onData = fn }

// OnClose registers the teardown notification.
func (c *Conn) OnClose(fn func(now eventsim.Time)) { c.onClose = fn }

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Local and Remote identify the connection.
func (c *Conn) Local() inet.Endpoint  { return c.local }
func (c *Conn) Remote() inet.Endpoint { return c.remote }

// Cwnd exposes the congestion window in bytes (for instrumentation).
func (c *Conn) Cwnd() int { return int(c.cwnd) }

// Dial opens a connection to dst; onConnect fires when established. A zero
// localPort allocates an ephemeral port.
func (s *Stack) Dial(localPort inet.Port, dst inet.Endpoint, onConnect func(now eventsim.Time)) (*Conn, error) {
	if localPort == 0 {
		localPort = s.allocEphemeral()
	}
	key := connKey{local: localPort, remote: dst}
	if _, dup := s.conns[key]; dup {
		return nil, ErrInUse
	}
	c := s.newConn(localPort, dst)
	c.onConnect = onConnect
	c.state = SynSent
	// Deterministic ISS derived from the 4-tuple keeps runs reproducible.
	c.iss = uint32(uint16(localPort))<<16 | uint32(uint16(dst.Port))
	c.sndUna, c.sndNxt = c.iss, c.iss
	s.conns[key] = c
	c.sendSyn()
	return c, nil
}

func (s *Stack) allocEphemeral() inet.Port {
	for {
		p := s.nextEphemeral
		s.nextEphemeral++
		if s.nextEphemeral == 0 {
			s.nextEphemeral = 49152
		}
		inUse := false
		for k := range s.conns {
			if k.local == p {
				inUse = true
			}
		}
		if !inUse {
			return p
		}
	}
}

func (s *Stack) newConn(local inet.Port, remote inet.Endpoint) *Conn {
	return &Conn{
		stack:    s,
		local:    inet.Endpoint{Addr: s.host.Addr(), Port: local},
		remote:   remote,
		cwnd:     initialCwnd,
		ssthresh: 64 * 1024,
		rto:      initialRTO,
		ooo:      make(map[uint32][]byte),
	}
}

// Send queues application bytes for reliable delivery.
func (c *Conn) Send(b []byte) error {
	if c.state != Established && c.state != SynSent && c.state != SynReceived {
		return ErrClosed
	}
	c.sndBuf = append(c.sndBuf, b...)
	if c.state == Established {
		c.trySend(c.stack.host.Now())
	}
	return nil
}

// Buffered reports bytes queued but not yet acknowledged.
func (c *Conn) Buffered() int { return len(c.sndBuf) }

// Close sends FIN after the queued data drains. Closing before the
// handshake completes defers the FIN until establishment.
func (c *Conn) Close() {
	if c.state == Closed || c.state == FinWait {
		return
	}
	c.closeRequested = true
	if c.state == Established {
		c.state = FinWait
		c.trySend(c.stack.host.Now())
	}
}

// --- segment transmission ---

func (c *Conn) sendSegment(flags byte, seq uint32, payload []byte) {
	h := inet.TCPHeader{
		Seq:    seq,
		Ack:    c.rcvNxt,
		Flags:  flags,
		Window: recvWindow,
	}
	seg, err := inet.MarshalTCP(c.local.Addr, c.remote.Addr, inet.TCPHeader{
		SrcPort: c.local.Port, DstPort: c.remote.Port,
		Seq: h.Seq, Ack: h.Ack, Flags: h.Flags, Window: h.Window,
	}, payload)
	if err != nil {
		return
	}
	c.stack.host.SendTCP(c.remote.Addr, seg)
}

func (c *Conn) sendSyn() {
	if c.synRetries >= maxSynRetry {
		c.teardown(c.stack.host.Now())
		return
	}
	c.synRetries++
	flags := byte(inet.TCPSyn)
	if c.state == SynReceived {
		flags |= inet.TCPAck
	}
	c.sendSegment(flags, c.iss, nil)
	retry := c.rto * time.Duration(c.synRetries)
	c.stack.host.After(retry, "tcp.synRetry", func(eventsim.Time) {
		if c.state == SynSent || c.state == SynReceived {
			c.sendSyn()
		}
	})
}

// trySend pushes as much buffered data as the congestion window allows.
func (c *Conn) trySend(now eventsim.Time) {
	if c.state != Established && c.state != FinWait {
		return
	}
	for {
		inFlight := int(c.sndNxt - c.sndUna)
		window := int(c.cwnd)
		if window > recvWindow {
			window = recvWindow
		}
		avail := window - inFlight
		unsent := len(c.sndBuf) - inFlight
		if avail <= 0 || unsent <= 0 {
			break
		}
		n := unsent
		if n > MSS {
			n = MSS
		}
		if n > avail {
			n = avail
		}
		start := inFlight
		payload := c.sndBuf[start : start+n]
		flags := byte(inet.TCPAck)
		if start+n == len(c.sndBuf) {
			flags |= inet.TCPPsh
		}
		seq := c.sndNxt
		c.sendSegment(flags, seq, payload)
		c.BytesSent += n
		// RTT sampling: time one segment per window (Karn's algorithm:
		// never sample retransmitted data).
		if c.rttSeq == 0 {
			c.rttSeq = seq + uint32(n)
			c.rttSentAt = now
		}
		c.sndNxt += uint32(n)
		c.armRTO(now)
	}
	// FIN once everything is out.
	if c.state == FinWait && int(c.sndNxt-c.sndUna) == len(c.sndBuf) && !c.sentFin {
		c.sentFin = true
		c.finSeq = c.sndNxt
		c.sendSegment(inet.TCPFin|inet.TCPAck, c.sndNxt, nil)
		c.sndNxt++
		c.armRTO(now)
	}
}

func (c *Conn) armRTO(now eventsim.Time) {
	if !c.rtoTimer.Cancelled() {
		return
	}
	c.rtoTimer = c.stack.host.AfterArg(c.rto, "tcp.rto", onRTOStep, c)
}

func (c *Conn) cancelRTO() {
	c.stack.host.Cancel(c.rtoTimer)
	c.rtoTimer = eventsim.Timer{}
}

// onRTOStep is the static event callback of the RTO timer.
func onRTOStep(now eventsim.Time, arg any) { arg.(*Conn).onRTO(now) }

// onRTO fires when the oldest unacked segment times out: retransmit it,
// collapse the window, back off the timer.
func (c *Conn) onRTO(now eventsim.Time) {
	if c.state == Closed || c.sndUna == c.sndNxt {
		return
	}
	c.Timeouts++
	debugf("RTO", c)
	c.Retransmits++
	c.recover = c.sndNxt
	c.ssthresh = c.cwnd / 2
	if c.ssthresh < 2*MSS {
		c.ssthresh = 2 * MSS
	}
	c.cwnd = initialCwnd
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.rttSeq = 0 // Karn: invalidate the outstanding sample
	c.retransmitFirst(now)
	c.rtoTimer = eventsim.Timer{}
	c.armRTO(now)
}

// retransmitFirst resends the oldest unacknowledged segment.
func (c *Conn) retransmitFirst(now eventsim.Time) {
	if c.sentFin && c.sndUna == c.finSeq {
		c.sendSegment(inet.TCPFin|inet.TCPAck, c.finSeq, nil)
		return
	}
	n := len(c.sndBuf)
	if n > MSS {
		n = MSS
	}
	if n == 0 {
		return
	}
	c.sendSegment(inet.TCPAck, c.sndUna, c.sndBuf[:n])
}

// --- segment reception ---

func (s *Stack) onSegment(now eventsim.Time, from inet.Addr, segment []byte) {
	h, payload, err := inet.ParseTCP(from, s.host.Addr(), segment)
	if err != nil {
		return
	}
	key := connKey{local: h.DstPort, remote: inet.Endpoint{Addr: from, Port: h.SrcPort}}
	if c, ok := s.conns[key]; ok {
		c.onSegmentIn(now, h, payload)
		return
	}
	// New inbound connection?
	if h.HasFlag(inet.TCPSyn) && !h.HasFlag(inet.TCPAck) {
		l := s.listeners[h.DstPort]
		if l == nil {
			return
		}
		c := s.newConn(h.DstPort, key.remote)
		c.state = SynReceived
		c.irs = h.Seq
		c.rcvNxt = h.Seq + 1
		c.iss = h.Seq ^ 0x5A5A5A5A // deterministic, distinct from peer
		c.sndUna, c.sndNxt = c.iss, c.iss+1
		c.acceptFn = l.accept
		s.conns[key] = c
		c.sendSegment(inet.TCPSyn|inet.TCPAck, c.iss, nil)
	}
}

func (c *Conn) onSegmentIn(now eventsim.Time, h inet.TCPHeader, payload []byte) {
	switch c.state {
	case SynSent:
		if h.HasFlag(inet.TCPSyn|inet.TCPAck) && h.Ack == c.iss+1 {
			c.irs = h.Seq
			c.rcvNxt = h.Seq + 1
			c.sndUna = h.Ack
			c.sndNxt = h.Ack
			c.state = Established
			c.sendSegment(inet.TCPAck, c.sndNxt, nil)
			if c.onConnect != nil {
				c.onConnect(now)
			}
			if c.closeRequested {
				c.state = FinWait
			}
			c.trySend(now)
		}
		return
	case SynReceived:
		if h.HasFlag(inet.TCPAck) && h.Ack == c.iss+1 {
			c.sndUna = h.Ack
			c.state = Established
			if c.acceptFn != nil {
				c.acceptFn(c)
				c.acceptFn = nil
			}
		}
		// Data may ride on the handshake-completing segment: fall through.
	case Closed:
		return
	}
	if c.state != Established && c.state != FinWait && c.state != SynReceived {
		return
	}
	if h.HasFlag(inet.TCPAck) {
		c.processAck(now, h.Ack)
	}
	if len(payload) > 0 {
		c.processData(now, h.Seq, payload)
	}
	if h.HasFlag(inet.TCPFin) && h.Seq == c.rcvNxt {
		c.rcvNxt++
		c.sendSegment(inet.TCPAck, c.sndNxt, nil)
		c.teardown(now)
	}
}

// processAck advances the send window and drives congestion control.
func (c *Conn) processAck(now eventsim.Time, ack uint32) {
	if ack == c.sndUna && c.sndNxt != c.sndUna {
		// Duplicate ACK.
		c.dupAcks++
		if c.dupAcks == dupAckThresh {
			// Fast retransmit + multiplicative decrease (NewReno entry).
			c.FastRetrans++
			c.Retransmits++
			c.ssthresh = c.cwnd / 2
			if c.ssthresh < 2*MSS {
				c.ssthresh = 2 * MSS
			}
			c.cwnd = c.ssthresh
			c.recover = c.sndNxt
			c.retransmitFirst(now)
			debugf("fast-rtx", c)
		}
		return
	}
	if ack <= c.sndUna || ack > c.sndNxt {
		return
	}
	// RTT sample (only if the timed segment was not retransmitted).
	if c.rttSeq != 0 && ack >= c.rttSeq {
		c.updateRTT(now.Sub(c.rttSentAt))
		c.rttSeq = 0
	}
	acked := int(ack - c.sndUna)
	finAcked := c.sentFin && ack == c.finSeq+1
	dataAcked := acked
	if finAcked {
		dataAcked--
	}
	if dataAcked > len(c.sndBuf) {
		dataAcked = len(c.sndBuf)
	}
	c.sndBuf = c.sndBuf[dataAcked:]
	c.sndUna = ack
	c.dupAcks = 0
	// Congestion control: slow start below ssthresh, else AIMD.
	if c.cwnd < c.ssthresh {
		c.cwnd += float64(dataAcked)
	} else {
		c.cwnd += float64(MSS) * float64(MSS) / c.cwnd
	}
	// Progress undoes exponential RTO backoff (RFC 6298 §5.7 behaviour);
	// without this, multi-loss windows stall behind a 10-second timer.
	if c.srtt > 0 {
		c.rto = c.srtt + 4*c.rttvar
		if c.rto < minRTO {
			c.rto = minRTO
		}
	}
	// NewReno partial ACK: still inside a recovery window, so the next
	// hole is already known lost — retransmit it now rather than waiting
	// for three more duplicate ACKs or a timeout.
	if c.recover != 0 && ack < c.recover && c.sndUna != c.sndNxt {
		c.Retransmits++
		c.retransmitFirst(now)
	}
	if c.recover != 0 && ack >= c.recover {
		c.recover = 0
	}
	c.cancelRTO()
	if c.sndUna != c.sndNxt {
		c.armRTO(now)
	}
	if finAcked {
		c.teardown(now)
		return
	}
	c.trySend(now)
}

// processData delivers in-order bytes and buffers out-of-order segments.
func (c *Conn) processData(now eventsim.Time, seq uint32, payload []byte) {
	switch {
	case seq == c.rcvNxt:
		c.deliver(now, payload)
		// Drain any contiguous out-of-order segments.
		for {
			next, ok := c.ooo[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.ooo, c.rcvNxt)
			c.deliver(now, next)
		}
	case seq > c.rcvNxt:
		if len(c.ooo) < 256 {
			c.ooo[seq] = append([]byte(nil), payload...)
		}
	}
	// ACK everything we have (duplicate ACKs signal gaps to the sender).
	c.sendSegment(inet.TCPAck, c.sndNxt, nil)
}

func (c *Conn) deliver(now eventsim.Time, b []byte) {
	c.rcvNxt += uint32(len(b))
	c.BytesReceived += len(b)
	if c.onData != nil {
		c.onData(now, b)
	}
}

// updateRTT runs the Jacobson/Karels estimator.
func (c *Conn) updateRTT(sample time.Duration) {
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	debugf("rtt-sample", c)
	if c.rto < minRTO {
		c.rto = minRTO
	}
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
}

// SRTT exposes the smoothed RTT estimate.
func (c *Conn) SRTT() time.Duration { return c.srtt }

func (c *Conn) teardown(now eventsim.Time) {
	if c.state == Closed {
		return
	}
	c.state = Closed
	c.cancelRTO()
	delete(c.stack.conns, connKey{local: c.local.Port, remote: c.remote})
	if c.onClose != nil {
		c.onClose(now)
	}
}

// String describes the connection.
func (c *Conn) String() string {
	return fmt.Sprintf("tcp %s -> %s %s cwnd=%d", c.local, c.remote, c.state, int(c.cwnd))
}

// debugHook, when set, observes protocol events (tests only).
var debugHook func(event string, c *Conn)

func debugf(event string, c *Conn) {
	if debugHook != nil {
		debugHook(event, c)
	}
}
