package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/obs"
)

// DefaultTCPTunnelPort is the UDP port Live uses to carry raw tcplite
// segments (SendTCP/OnTCP). Both ends of a live tcplite conversation must
// agree on it.
const DefaultTCPTunnelPort inet.Port = 49151

// frameBuf is the per-frame receive buffer: the largest UDP payload a
// peer can hand the kernel, so a read never truncates.
const frameBuf = 64 << 10

// Config parameterises a Live transport.
type Config struct {
	// BindIP is the local IPv4 address sockets bind to (zero: 127.0.0.1).
	// Two Live transports in one process coexist on the same IP as long
	// as their port sets are disjoint.
	BindIP inet.Addr
	// Seed feeds the transport's deterministic RNG root (the seam behind
	// Transport.RNG); packet timing over real sockets is of course not
	// deterministic.
	Seed int64
	// MTU is used only to estimate SendUDP's fragment-train return value
	// (the kernel does the real fragmenting). Zero: inet.DefaultMTU.
	MTU int
	// Metrics receives the per-socket counter series
	// (turbulence_transport_*). Nil: a private registry, readable via
	// Registry(). A registry must not be shared by two Live transports —
	// the series names would collide.
	Metrics *obs.Registry
	// TCPTunnelPort carries SendTCP segments over UDP (zero:
	// DefaultTCPTunnelPort).
	TCPTunnelPort inet.Port
	// InboxDepth bounds frames queued between the socket readers and the
	// run loop; overflow drops the frame and counts it (zero: 4096).
	InboxDepth int
}

// Live is the real-socket Transport: the same protocol stacks that run
// inside the simulator stream over net.UDPConn instead. One goroutine —
// the run loop — owns a private eventsim.Scheduler and all protocol
// state, mirroring the simulator's single-threaded discipline over wall
// time: it drains timers that have come due, advances the clock, and
// interleaves inbound frames delivered by per-socket reader goroutines.
// Protocol code therefore runs exactly as it does in the simulator; use
// Do/DoWait to call into it from outside.
//
// The receive path is allocation-lean by construction: readers take
// pooled frames, ReadMsgUDPAddrPort fills them without allocating, and
// the loop hands the payload view to the bound handler before returning
// the frame to the pool (handlers must not retain it — the same contract
// the simulator's pooled wire buffers impose).
type Live struct {
	addr       inet.Addr
	mtu        int
	tunnelPort inet.Port

	sched *eventsim.Scheduler
	rng   *eventsim.RNG
	epoch time.Time

	// Loop-owned state (touched only on the run loop).
	binds    map[inet.Port]UDPHandler
	socks    map[inet.Port]*sock
	tracks   map[inet.Port]*seqTrack
	bindErrs map[inet.Port]error
	tcpFn    TCPHandler
	recvTap  func(now eventsim.Time, local inet.Port, from inet.Endpoint, payloadLen int)

	reg      *obs.Registry
	sent     *obs.CounterVec
	sentB    *obs.CounterVec
	recv     *obs.CounterVec
	recvB    *obs.CounterVec
	dropped  *obs.CounterVec
	sendErrs *obs.CounterVec
	unbound  *obs.CounterVec
	dupSeqs  *obs.CounterVec

	frames   sync.Pool
	inbox    chan *frame
	runq     chan func(now eventsim.Time)
	quit     chan struct{}
	loopDone chan struct{}
	readers  sync.WaitGroup
	closing  sync.Once
}

// sock is one bound UDP socket plus its cached counter children.
type sock struct {
	port    inet.Port
	conn    *net.UDPConn
	sent    *obs.Counter
	sentB   *obs.Counter
	recv    *obs.Counter
	recvB   *obs.Counter
	dropped *obs.Counter
	sendErr *obs.Counter
	unbound *obs.Counter
}

// seqTrack is the per-port duplicate accounting installed by TrackSeqs.
type seqTrack struct {
	win     *SeqWindow
	extract func(payload []byte) (uint32, bool)
	dup     *obs.Counter
}

// frame is one received datagram in flight between a reader and the loop.
type frame struct {
	buf  [frameBuf]byte
	n    int
	port inet.Port
	from netip.AddrPort
}

// newCore builds the transport without starting the run loop (tests pin
// the frame-delivery path on an idle core).
func newCore(cfg Config) (*Live, error) {
	if cfg.BindIP.IsZero() {
		cfg.BindIP = inet.MakeAddr(127, 0, 0, 1)
	}
	if cfg.MTU == 0 {
		cfg.MTU = inet.DefaultMTU
	}
	if cfg.MTU < inet.IPv4HeaderLen+8 {
		return nil, fmt.Errorf("transport: mtu %d too small", cfg.MTU)
	}
	if cfg.TCPTunnelPort == 0 {
		cfg.TCPTunnelPort = DefaultTCPTunnelPort
	}
	if cfg.InboxDepth == 0 {
		cfg.InboxDepth = 4096
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	t := &Live{
		addr:       cfg.BindIP,
		mtu:        cfg.MTU,
		tunnelPort: cfg.TCPTunnelPort,
		sched:      eventsim.NewScheduler(),
		rng:        eventsim.NewRNG(cfg.Seed),
		epoch:      time.Now(),
		binds:      make(map[inet.Port]UDPHandler),
		socks:      make(map[inet.Port]*sock),
		tracks:     make(map[inet.Port]*seqTrack),
		bindErrs:   make(map[inet.Port]error),
		reg:        cfg.Metrics,
		inbox:      make(chan *frame, cfg.InboxDepth),
		runq:       make(chan func(now eventsim.Time), 64),
		quit:       make(chan struct{}),
		loopDone:   make(chan struct{}),
	}
	t.frames.New = func() any { return new(frame) }
	reg := t.reg
	t.sent = reg.CounterVec("turbulence_transport_sent_packets_total", "UDP datagrams written per local port.", "port")
	t.sentB = reg.CounterVec("turbulence_transport_sent_bytes_total", "UDP payload bytes written per local port.", "port")
	t.recv = reg.CounterVec("turbulence_transport_recv_packets_total", "UDP datagrams delivered per local port.", "port")
	t.recvB = reg.CounterVec("turbulence_transport_recv_bytes_total", "UDP payload bytes delivered per local port.", "port")
	t.dropped = reg.CounterVec("turbulence_transport_dropped_frames_total", "Received frames dropped on run-loop inbox overflow, per local port.", "port")
	t.sendErrs = reg.CounterVec("turbulence_transport_send_errors_total", "UDP write failures per local port.", "port")
	t.unbound = reg.CounterVec("turbulence_transport_unbound_packets_total", "Datagrams arriving on a port with no bound handler, per local port.", "port")
	t.dupSeqs = reg.CounterVec("turbulence_transport_duplicate_seqs_total", "Duplicate sequence numbers observed by TrackSeqs, per local port.", "port")
	return t, nil
}

// NewLive opens a live transport and starts its run loop. Close releases
// the loop and every socket.
func NewLive(cfg Config) (*Live, error) {
	t, err := newCore(cfg)
	if err != nil {
		return nil, err
	}
	go t.loop()
	return t, nil
}

// Addr returns the local bind address.
func (t *Live) Addr() inet.Addr { return t.addr }

// MTU returns the configured MTU (fragment-train estimation only).
func (t *Live) MTU() int { return t.mtu }

// Registry returns the metrics registry the socket counters feed.
func (t *Live) Registry() *obs.Registry { return t.reg }

// Now returns wall time elapsed since the transport started, as seen by
// the run loop's clock. Call on the loop.
func (t *Live) Now() eventsim.Time { return t.sched.Now() }

// wallNow is the authoritative wall reading the loop advances toward.
func (t *Live) wallNow() eventsim.Time { return eventsim.Time(time.Since(t.epoch)) }

// Do schedules fn on the run loop (the only place protocol objects may be
// touched) and returns immediately. Must not be called from the loop
// itself — handlers and timer callbacks are already there.
func (t *Live) Do(fn func(now eventsim.Time)) {
	select {
	case t.runq <- fn:
	case <-t.quit:
	}
}

// DoWait runs fn on the run loop and blocks until it returns (or the
// transport closes).
func (t *Live) DoWait(fn func(now eventsim.Time)) {
	done := make(chan struct{})
	t.Do(func(now eventsim.Time) {
		defer close(done)
		fn(now)
	})
	select {
	case <-done:
	case <-t.quit:
	}
}

// Close stops the run loop, closes every socket and waits for the reader
// goroutines to exit. Idempotent.
func (t *Live) Close() error {
	t.closing.Do(func() {
		close(t.quit)
		<-t.loopDone
		// The loop has exited: its state is safe to touch from here.
		for _, s := range t.socks {
			if s.conn != nil {
				s.conn.Close()
			}
		}
		t.readers.Wait()
	})
	return nil
}

// --- run loop ---

// drainDue fires every timer due by wall-now and leaves the loop clock at
// wall-now: one Run with the wall reading as its horizon. wallNow reads
// the monotonic clock against a fixed epoch, so successive horizons never
// decrease and never fall before Now(), and a Run sliced this way fires
// what one long Run would, in the same order. The reading is positive past
// the epoch, so it is never Run's "no horizon" 0, and the loop installs no
// interrupt, so Run cannot fail.
func (t *Live) drainDue() { t.sched.Run(t.wallNow()) }

func (t *Live) loop() {
	defer close(t.loopDone)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	stopTimer := func(armed bool) {
		if armed && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	for {
		t.drainDue()
		armed := false
		var timerC <-chan time.Time
		if next, ok := t.sched.NextEventAt(); ok {
			d := time.Duration(next - t.wallNow())
			if d < 0 {
				d = 0
			}
			timer.Reset(d)
			timerC = timer.C
			armed = true
		}
		select {
		case <-t.quit:
			stopTimer(armed)
			return
		case fn := <-t.runq:
			stopTimer(armed)
			t.drainDue()
			fn(t.sched.Now())
		case fr := <-t.inbox:
			stopTimer(armed)
			t.drainDue()
			t.deliver(fr)
		case <-timerC:
			// Timers fire at the top of the next iteration's drain.
		}
	}
}

// deliver hands one received frame to its port's handler. This is the
// per-packet hot path: counter bumps, optional sequence tracking, an
// endpoint conversion and a map lookup — no allocation (pinned by
// TestLiveDeliverAllocs).
func (t *Live) deliver(fr *frame) {
	now := t.sched.Now()
	payload := fr.buf[:fr.n]
	s := t.socks[fr.port]
	if s != nil {
		s.recv.Inc()
		s.recvB.Add(uint64(fr.n))
	}
	if tr := t.tracks[fr.port]; tr != nil {
		if seq, ok := tr.extract(payload); ok && tr.win.Observe(seq) {
			tr.dup.Inc()
		}
	}
	a := fr.from.Addr().Unmap()
	if !a.Is4() {
		t.frames.Put(fr)
		return
	}
	from := inet.Endpoint{Addr: inet.Addr(a.As4()), Port: inet.Port(fr.from.Port())}
	if t.recvTap != nil {
		t.recvTap(now, fr.port, from, fr.n)
	}
	switch {
	case fr.port == t.tunnelPort:
		if t.tcpFn != nil {
			t.tcpFn(now, from.Addr, payload)
		}
	default:
		if fn := t.binds[fr.port]; fn != nil {
			fn(now, from, payload)
		} else if s != nil {
			s.unbound.Inc()
		}
	}
	t.frames.Put(fr)
}

// --- sockets ---

// sock returns (opening if needed) the socket bound to port on the local
// IP. A port whose bind once failed stays failed until Close — the error
// is recorded for BindErr and returned on every use.
func (t *Live) sock(port inet.Port) (*sock, error) {
	if s := t.socks[port]; s != nil {
		return s, nil
	}
	if err := t.bindErrs[port]; err != nil {
		return nil, err
	}
	ip := net.IPv4(t.addr[0], t.addr[1], t.addr[2], t.addr[3])
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: ip, Port: int(port)})
	if err != nil {
		t.bindErrs[port] = err
		return nil, err
	}
	// Generous kernel buffers: the run loop serialises all protocol work,
	// so bursts ride in the kernel queue instead of dropping. Best-effort.
	conn.SetReadBuffer(1 << 20)
	conn.SetWriteBuffer(1 << 20)
	label := strconv.Itoa(int(port))
	s := &sock{
		port:    port,
		conn:    conn,
		sent:    t.sent.With(label),
		sentB:   t.sentB.With(label),
		recv:    t.recv.With(label),
		recvB:   t.recvB.With(label),
		dropped: t.dropped.With(label),
		sendErr: t.sendErrs.With(label),
		unbound: t.unbound.With(label),
	}
	t.socks[port] = s
	t.readers.Add(1)
	go t.readLoop(s)
	return s, nil
}

// readLoop is one socket's reader: pooled frame in, ReadMsgUDPAddrPort
// (no per-read allocation), non-blocking handoff to the run loop. An
// inbox overflow drops the frame and counts it — backpressure must never
// stall a socket reader, or the kernel queue overflows invisibly instead.
func (t *Live) readLoop(s *sock) {
	defer t.readers.Done()
	for {
		fr := t.frames.Get().(*frame)
		n, _, _, from, err := s.conn.ReadMsgUDPAddrPort(fr.buf[:], nil)
		if err != nil {
			t.frames.Put(fr)
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-t.quit:
				return
			default:
				continue // transient (e.g. ICMP-induced) read error
			}
		}
		fr.n = n
		fr.port = s.port
		fr.from = from
		select {
		case t.inbox <- fr:
		default:
			s.dropped.Inc()
			t.frames.Put(fr)
		}
	}
}

// --- Transport implementation (call on the run loop) ---

// SendUDP writes payload from srcPort to dst and returns the estimated
// fragment-train length at the configured MTU (the kernel fragments for
// real; loopback's 64 KB MTU usually means one wire packet).
func (t *Live) SendUDP(srcPort inet.Port, dst inet.Endpoint, payload []byte) (int, error) {
	s, err := t.sock(srcPort)
	if err != nil {
		return 0, err
	}
	to := netip.AddrPortFrom(netip.AddrFrom4(dst.Addr), uint16(dst.Port))
	if _, _, err := s.conn.WriteMsgUDPAddrPort(payload, nil, to); err != nil {
		s.sendErr.Inc()
		return 0, err
	}
	s.sent.Inc()
	s.sentB.Add(uint64(len(payload)))
	return fragTrainLen(len(payload), t.mtu), nil
}

// fragTrainLen mirrors the simulator's SendUDP return value: how many
// wire packets an OS IP layer emits for a UDP payload at the given MTU.
func fragTrainLen(payloadLen, mtu int) int {
	ipPayload := inet.UDPHeaderLen + payloadLen
	per := (mtu - inet.IPv4HeaderLen) &^ 7 // fragment offsets are 8-byte units
	n := (ipPayload + per - 1) / per
	if n < 1 {
		n = 1
	}
	return n
}

// BindUDP opens port's socket (if needed) and routes its datagrams to fn.
// Binding a bound port replaces the handler (servers rebind between
// runs). A socket that cannot be opened (port in use, privileged port
// without rights) records its error for BindErr; the handler is kept so a
// transport-level retry is possible, but no traffic will arrive.
func (t *Live) BindUDP(port inet.Port, fn UDPHandler) {
	t.binds[port] = fn
	t.sock(port)
}

// UnbindUDP removes the handler; the socket stays open (it may be a send
// source) and arriving datagrams count as unbound until a rebind.
func (t *Live) UnbindUDP(port inet.Port) { delete(t.binds, port) }

// BindErr reports why port's socket could not be opened (nil if it is
// open or was never used). Safe to call from any goroutine.
func (t *Live) BindErr(port inet.Port) error {
	var err error
	t.DoWait(func(eventsim.Time) { err = t.bindErrs[port] })
	return err
}

// SendTCP tunnels a raw tcplite segment to dst over the UDP tunnel port.
func (t *Live) SendTCP(dst inet.Addr, seg []byte) error {
	s, err := t.sock(t.tunnelPort)
	if err != nil {
		return err
	}
	to := netip.AddrPortFrom(netip.AddrFrom4(dst), uint16(t.tunnelPort))
	if _, _, err := s.conn.WriteMsgUDPAddrPort(seg, nil, to); err != nil {
		s.sendErr.Inc()
		return err
	}
	s.sent.Inc()
	s.sentB.Add(uint64(len(seg)))
	return nil
}

// OnTCP registers the tunnel consumer and opens the tunnel socket.
func (t *Live) OnTCP(fn TCPHandler) {
	t.tcpFn = fn
	t.sock(t.tunnelPort)
}

// After schedules fn on the run loop's clock.
func (t *Live) After(d time.Duration, name string, fn func(now eventsim.Time)) eventsim.Timer {
	return t.sched.After(d, name, fn)
}

// AfterArg is After's closure-free form.
func (t *Live) AfterArg(d time.Duration, name string, fn func(now eventsim.Time, arg any), arg any) eventsim.Timer {
	return t.sched.AfterArg(d, name, fn, arg)
}

// Ticker repeats fn on the run loop until stopped.
func (t *Live) Ticker(interval time.Duration, name string, fn func(now eventsim.Time) bool) (stop func()) {
	return t.sched.Ticker(interval, name, fn)
}

// Cancel revokes a pending timer.
func (t *Live) Cancel(tm eventsim.Timer) { t.sched.Cancel(tm) }

// RNGInto derives the labelled stream from the transport's seeded root
// into child; see Transport.
func (t *Live) RNGInto(label string, child *eventsim.RNG) *eventsim.RNG {
	return t.rng.SplitInto(label, child)
}

// SetRecvTap installs an observer on the receive path: every delivered
// datagram reports its arrival time, local port, remote endpoint and
// payload length before the handler runs. The live client mode feeds its
// online flow analyzers through this. Call on the run loop (DoWait)
// before traffic flows.
func (t *Live) SetRecvTap(fn func(now eventsim.Time, local inet.Port, from inet.Endpoint, payloadLen int)) {
	t.recvTap = fn
}

// TrackSeqs installs duplicate-sequence accounting on port: extract pulls
// the sequence number out of a payload (ok=false skips the packet), and
// duplicates within a sliding window feed the port's
// turbulence_transport_duplicate_seqs_total series. Observation only —
// duplicates are still delivered; protocol dedup stays authoritative.
// Call on the run loop before traffic flows.
func (t *Live) TrackSeqs(port inet.Port, window int, extract func(payload []byte) (uint32, bool)) {
	t.tracks[port] = &seqTrack{
		win:     NewSeqWindow(window),
		extract: extract,
		dup:     t.dupSeqs.With(strconv.Itoa(int(port))),
	}
}

var _ Transport = (*Live)(nil)
