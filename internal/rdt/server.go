package rdt

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/media"
	"turbulence/internal/scaling"
	"turbulence/internal/segment"
	"turbulence/internal/transport"
)

// Tuning constants for the RealServer behavioural model. Values are chosen
// so the emergent traffic reproduces the paper's Figures 6-11; DESIGN.md
// records the calibration reasoning.
const (
	// MaxBufferRatio caps the buffering burst at three times the playout
	// rate (paper §3.F: "RealPlayer can buffer at up to three times the
	// playout rate").
	MaxBufferRatio = 3.0
	// ShareFactor is the fraction of the client-reported bottleneck
	// bandwidth the buffering burst may claim; the rest is headroom for
	// concurrent traffic (the paired MediaPlayer stream in the paper's
	// methodology).
	ShareFactor = 0.45
	// PlayOverhead is the post-burst pacing rate relative to the encoding
	// rate: protocol overhead plus resends make RealPlayer consume
	// slightly more than its encoding rate (paper §3.B, Figure 3).
	PlayOverhead = 1.05
	// BufferAheadTarget is how much media the burst pushes ahead of real
	// time before the server settles to the playout rate; with the
	// rate-dependent burst ratios this yields the paper's ~20 s (low rate)
	// to ~40+ s (high rate) burst durations.
	BufferAheadTarget = 30 * time.Second
	// MaxPayload keeps every RDT packet below the path MTU — the reason
	// the paper finds zero IP fragments in RealPlayer traces.
	MaxPayload = 1400
	// ResendWindow is how many recent packets the server retains for NAK
	// retransmission.
	ResendWindow = 512
	// PacingJitter is the +-fraction applied to packet pacing gaps,
	// producing the wide interarrival spread of Figures 8-9.
	PacingJitter = 0.35
)

// PacketSizeMean returns the target mean RDT payload for an encoding rate:
// larger packets at higher rates, always well under the MTU.
func PacketSizeMean(encodedBps float64) float64 {
	mu := 500 + 0.6*(encodedBps/1000)
	if mu < 450 {
		mu = 450
	}
	if mu > 1000 {
		mu = 1000
	}
	return mu
}

// BurstRate computes the buffering-phase send rate for an encoding rate
// and a client-reported bottleneck estimate: up to MaxBufferRatio x the
// encoding rate, capped by the share of the bottleneck the burst may take
// (paper Figure 11's declining ratio).
func BurstRate(encodedBps, bottleneckBps float64) float64 {
	rate := MaxBufferRatio * encodedBps
	if bottleneckBps > 0 {
		if cap_ := ShareFactor * bottleneckBps; cap_ < rate {
			rate = cap_
		}
	}
	if min := PlayOverhead * encodedBps; rate < min {
		rate = min
	}
	return rate
}

// Server is a RealServer host: RTSP control on port 554, RDT data to the
// client's chosen port.
type Server struct {
	host  transport.Transport
	rng   *eventsim.RNG
	clips map[string]media.Clip

	sessions map[inet.Endpoint]*session

	// uncappedBurst ignores the client's bottleneck estimate — the
	// ablation that shows Figure 11's ratio decline comes from the
	// bottleneck cap, not from the encoding rate itself.
	uncappedBurst bool

	// scalingOn enables SureStream-style thinning driven by REPORT
	// messages (the §VI media-scaling extension).
	scalingOn bool

	// ctrlFn is the bound control handler, created once so Reset can rebind
	// the control port without allocating a method value.
	ctrlFn transport.UDPHandler

	// Control-path scratch, reused across requests. req is every parsed
	// request (its header map is cleared and refilled per parse), nakSeqs
	// a NAK's decoded Seqs, and resent the retransmission being sent.
	req     Request
	nakSeqs []uint32
	resent  []byte

	// Packet-economy pools, which survive both session teardown and
	// Reset: pkts recycles data-packet buffers evicted from resend
	// windows, and ringPool recycles whole resend rings between sessions.
	// Together they make steady-state streaming on a reused testbed
	// allocation-free once the first run has filled the window. pkts is
	// the server's own list unless UsePacketPool shares one.
	pkts     *PacketPool
	ringPool []*resendRing
	rngPool  []*eventsim.RNG
	// probes caches the SETUP bandwidth-probe train: packet i's bytes are
	// a pure function of i, and the UDP layer copies every send.
	probes [ProbeTrainLen][]byte

	// Counters.
	Described, Setup, Played, TornDown, NAKsReceived, Resent int
	// ThinSteps counts scaling level increases across sessions.
	ThinSteps int
}

type session struct {
	srv            *Server
	ctl            inet.Endpoint // client control endpoint
	data           inet.Endpoint // client data endpoint
	clip           media.Clip
	cutter         *segment.Cutter
	rng            *eventsim.RNG
	started        eventsim.Time
	seq            uint32
	burstBps       float64
	playBps        float64
	sentMediaBytes float64
	ctrl           scaling.Controller
	rateFactor     float64 // pacing-rate multiplier from media scaling
	byteFrac       [scaling.MaxLevel + 1]float64
	resend         *resendRing
	playing        bool
	done           bool
	nextSend       eventsim.Timer
}

// resendRing holds the last ResendWindow data packets for NAK
// retransmission, indexed by sequence number modulo the window. Sequence
// numbers are consecutive per session, so the ring holds exactly the same
// window a map keyed by seq would — without the map's per-insert churn.
// A slot's packet is valid only when its recorded seq matches the lookup
// (pkts[slot] non-nil guards the seq-0 zero value).
type resendRing struct {
	pkts [ResendWindow][]byte
	seqs [ResendWindow]uint32
}

// pktBufCap is the uniform recycled data-packet buffer capacity: sized for
// the largest packet any session can emit, so one free list serves every
// clip's size class. The slack beyond MaxPayload covers the
// segment-list framing — tiny delta frames can pack over a hundred
// segment headers into one packet.
const pktBufCap = dataHeaderLen + MaxPayload + 1024

// PacketPool is a free list of data-packet buffers. Servers that share
// one draw their resend windows from the same buffers, so a server that
// starts streaming finds the buffers an earlier one returned instead of
// allocating a window of its own. Every buffer is fully overwritten
// before each send, so which buffer a packet gets never shows in its
// bytes. A pool has no lock: the servers sharing it must never run
// concurrently (one simulation, or one sweep worker, at a time).
type PacketPool struct {
	bufs [][]byte
}

// get pops a free buffer, or returns nil when the list is empty.
func (p *PacketPool) get() []byte {
	n := len(p.bufs)
	if n == 0 {
		return nil
	}
	buf := p.bufs[n-1][:0]
	p.bufs = p.bufs[:n-1]
	return buf
}

// put returns a buffer to the list.
func (p *PacketPool) put(buf []byte) { p.bufs = append(p.bufs, buf) }

// Len reports how many buffers are free.
func (p *PacketPool) Len() int { return len(p.bufs) }

// NewServer attaches a RealServer to any transport (simulated or live).
// The server owns its packet-buffer list until UsePacketPool shares one.
func NewServer(t transport.Transport) *Server {
	s := &Server{
		host:     t,
		rng:      t.RNG("rdt.server"),
		clips:    make(map[string]media.Clip),
		sessions: make(map[inet.Endpoint]*session),
		req:      Request{Headers: make(map[string]string)},
		pkts:     &PacketPool{},
	}
	s.ctrlFn = s.onControl
	t.BindUDP(inet.PortRTSPCtl, s.ctrlFn)
	return s
}

// Reset restores the server to its post-NewServer state: sessions clear,
// ablation switches revert, counters zero, and the control port rebinds.
// The server RNG re-splits from the transport's (already reseeded) root —
// the same construction-time draw a fresh build performs, in the same
// order, which is what keeps reused runs byte-identical to fresh ones.
// Registered clips are retained.
func (s *Server) Reset() {
	for _, sess := range s.sessions {
		sess.done = true
		sess.recycle()
	}
	clear(s.sessions)
	s.uncappedBurst = false
	s.scalingOn = false
	s.Described = 0
	s.Setup = 0
	s.Played = 0
	s.TornDown = 0
	s.NAKsReceived = 0
	s.Resent = 0
	s.ThinSteps = 0
	s.rng = s.host.RNGInto("rdt.server", s.rng)
	s.host.BindUDP(inet.PortRTSPCtl, s.ctrlFn)
}

// UsePacketPool makes the server draw and recycle its data-packet
// buffers through p, shared with whatever other servers use it; the
// buffers free in the server's current list move to p. See PacketPool for
// the one-goroutine rule.
func (s *Server) UsePacketPool(p *PacketPool) {
	if p == s.pkts {
		return
	}
	p.bufs = append(p.bufs, s.pkts.bufs...)
	s.pkts = p
}

// Register serves a clip under rtsp://<host>/<ref>.
func (s *Server) Register(ref string, clip media.Clip) { s.clips[ref] = clip }

// SetUncappedBurst disables the bottleneck cap on the buffering burst (an
// ablation hook; see DESIGN.md §4).
func (s *Server) SetUncappedBurst(on bool) { s.uncappedBurst = on }

// EnableScaling turns on SureStream-style thinning: the server reacts to
// REPORTed loss by dropping delta frames, reducing its offered rate.
func (s *Server) EnableScaling(on bool) { s.scalingOn = on }

// Host returns the transport the server is attached to.
func (s *Server) Host() transport.Transport { return s.host }

// ActiveSessions reports streams in flight.
func (s *Server) ActiveSessions() int { return len(s.sessions) }

// clipRefFromURL extracts the clip reference from an rtsp:// URL.
func clipRefFromURL(url string) string {
	trimmed := strings.TrimPrefix(url, "rtsp://")
	if i := strings.IndexByte(trimmed, '/'); i >= 0 {
		return trimmed[i+1:]
	}
	return trimmed
}

func (s *Server) reply(to inet.Endpoint, resp Response) {
	s.host.SendUDP(inet.PortRTSPCtl, to, MarshalResponse(resp))
}

// onControl dispatches a control request. Every request parses into the
// server's one Request, so the handlers receive a header map that the next
// request overwrites; none keeps it (or the Method, URL and header
// strings) past its call.
func (s *Server) onControl(now eventsim.Time, from inet.Endpoint, payload []byte) {
	if !IsRequest(payload) {
		return
	}
	if ParseRequestInto(&s.req, payload) != nil {
		return
	}
	req := s.req
	switch req.Method {
	case MethodDescribe:
		s.handleDescribe(from, req)
	case MethodSetup:
		s.handleSetup(now, from, req)
	case MethodPlay:
		s.handlePlay(now, from, req)
	case MethodTeardown:
		s.handleTeardown(from, req)
	case MethodNAK:
		s.handleNAK(from, req)
	case MethodReport:
		s.handleReport(from, req)
	default:
		s.reply(from, Response{Status: 455, CSeq: req.CSeq})
	}
}

func (s *Server) handleDescribe(from inet.Endpoint, req Request) {
	s.Described++
	clip, ok := s.clips[clipRefFromURL(req.URL)]
	if !ok {
		s.reply(from, Response{Status: 404, CSeq: req.CSeq})
		return
	}
	s.reply(from, Response{Status: 200, CSeq: req.CSeq, Headers: map[string]string{
		"Encoded-Rate": strconv.Itoa(int(clip.EncodedBps())),
		"Frame-Rate":   fmt.Sprintf("%.3f", clip.FrameRate()),
		"Duration-Ms":  strconv.Itoa(int(clip.Duration / time.Millisecond)),
		"Total-Frames": strconv.Itoa(clip.TotalFrames()),
	}})
}

// handleSetup creates the session and fires the bandwidth-probe train at
// the client's data port: ProbeTrainLen back-to-back packets whose
// dispersion at the bottleneck lets the client estimate path capacity
// (RealPlayer's "bandwidth detection").
func (s *Server) handleSetup(now eventsim.Time, from inet.Endpoint, req Request) {
	clip, ok := s.clips[clipRefFromURL(req.URL)]
	if !ok {
		s.reply(from, Response{Status: 404, CSeq: req.CSeq})
		return
	}
	port := req.IntHeader("Client-Port", 0)
	if port <= 0 || port > 0xFFFF {
		s.reply(from, Response{Status: 455, CSeq: req.CSeq})
		return
	}
	s.Setup++
	dataEP := inet.Endpoint{Addr: from.Addr, Port: inet.Port(port)}
	if old := s.sessions[from]; old != nil {
		old.stop()
	}
	var sessRNG *eventsim.RNG
	if n := len(s.rngPool); n > 0 {
		sessRNG = s.rngPool[n-1]
		s.rngPool = s.rngPool[:n-1]
	}
	sess := &session{
		srv:  s,
		ctl:  from,
		data: dataEP,
		clip: clip,
		rng:  s.rng.SplitInto("session/"+from.String()+"/"+clip.Name(), sessRNG),
	}
	if n := len(s.ringPool); n > 0 {
		sess.resend = s.ringPool[n-1]
		s.ringPool = s.ringPool[:n-1]
	} else {
		sess.resend = new(resendRing)
	}
	s.sessions[from] = sess
	s.reply(from, Response{Status: 200, CSeq: req.CSeq, Headers: map[string]string{
		"Transport": fmt.Sprintf("x-real-rdt/udp;client_port=%d", port),
	}})
	for i := 0; i < ProbeTrainLen; i++ {
		if s.probes[i] == nil {
			s.probes[i] = MarshalProbe(i)
		}
		s.host.SendUDP(inet.PortRDTData, dataEP, s.probes[i])
	}
}

func (s *Server) handlePlay(now eventsim.Time, from inet.Endpoint, req Request) {
	sess := s.sessions[from]
	if sess == nil {
		s.reply(from, Response{Status: 455, CSeq: req.CSeq})
		return
	}
	s.reply(from, Response{Status: 200, CSeq: req.CSeq})
	if sess.playing {
		return // duplicate PLAY (client retry); stream already running
	}
	s.Played++
	bottleneck := float64(req.IntHeader("Bandwidth", 0))
	if s.uncappedBurst {
		bottleneck = 0
	}
	sess.start(now, bottleneck)
}

func (s *Server) handleTeardown(from inet.Endpoint, req Request) {
	s.TornDown++
	if sess := s.sessions[from]; sess != nil {
		sess.stop()
	}
	s.reply(from, Response{Status: 200, CSeq: req.CSeq})
}

// handleNAK retransmits requested packets from the resend window, marked
// with FlagRetrans. Each copy is made in the server's one retransmission
// buffer, which SendUDP lets the next packet reuse, so the window's
// packets stay unmarked and a NAK allocates nothing per listed seq.
func (s *Server) handleNAK(from inet.Endpoint, req Request) {
	sess := s.sessions[from]
	if sess == nil {
		return
	}
	s.NAKsReceived++
	s.nakSeqs = ParseSeqListInto(s.nakSeqs[:0], req.Header("Seqs"))
	for _, seq := range s.nakSeqs {
		if pkt := sess.resendPkt(seq); pkt != nil {
			s.resent = append(s.resent[:0], pkt...)
			s.resent[9] |= FlagRetrans
			s.host.SendUDP(inet.PortRDTData, sess.data, s.resent)
			s.Resent++
		}
	}
}

// handleReport applies media scaling from a reception-quality report:
// thinning filters frames and scales the pacing rate by the level's byte
// fraction so the offered bit rate actually falls.
func (s *Server) handleReport(from inet.Endpoint, req Request) {
	if !s.scalingOn {
		return
	}
	sess := s.sessions[from]
	if sess == nil || sess.cutter == nil {
		return
	}
	before := sess.ctrl.Level()
	level := sess.ctrl.Report(req.IntHeader("Loss", 0))
	if level > before {
		s.ThinSteps++
	}
	if level == scaling.Full {
		sess.cutter.SetFilter(nil)
		sess.rateFactor = 1
		return
	}
	sess.cutter.SetFilter(level.Admit)
	sess.rateFactor = sess.byteFrac[level]
	if sess.rateFactor < 0.05 {
		sess.rateFactor = 0.05
	}
}

// start launches the pacing loop for a session.
func (sess *session) start(now eventsim.Time, bottleneckBps float64) {
	// The frame index is shared and read-only; Cutter and ByteFractions
	// only ever read it.
	sizes, keys := media.FrameIndex(sess.clip)
	sess.cutter = segment.NewCutter(sizes, keys)
	sess.started = now
	sess.playing = true
	sess.rateFactor = 1
	sess.byteFrac = scaling.ByteFractions(sizes, keys)
	enc := sess.clip.EncodedBps()
	sess.burstBps = BurstRate(enc, bottleneckBps)
	sess.playBps = PlayOverhead * enc
	sess.sendNext(now)
}

// currentRate selects burst or playout pacing: the burst runs until the
// transmitted media leads real time by BufferAheadTarget.
func (sess *session) currentRate(now eventsim.Time) float64 {
	encBytesPerSec := sess.clip.EncodedBps() / 8
	mediaSent := time.Duration(sess.sentMediaBytes / encBytesPerSec * float64(time.Second))
	elapsed := now.Sub(sess.started)
	rate := sess.playBps
	if mediaSent < elapsed+BufferAheadTarget {
		rate = sess.burstBps
	}
	return rate * sess.rateFactor
}

// sendNextStep is the static event callback of the per-packet send timer;
// passing the session as the event argument keeps the pacing loop free of
// per-packet closure allocations.
func sendNextStep(now eventsim.Time, arg any) { arg.(*session).sendNext(now) }

// sendNext emits one variable-size packet and schedules its successor.
func (sess *session) sendNext(now eventsim.Time) {
	if sess.done {
		return
	}
	if sess.cutter.Done() {
		sess.finish()
		return
	}
	mu := PacketSizeMean(sess.clip.EncodedBps())
	size := sess.rng.TruncNormal(mu, 0.3*mu, 0.5*mu, 1.9*mu)
	if size > MaxPayload {
		size = MaxPayload
	}
	segs := sess.cutter.Next(int(size))
	srv := sess.srv
	encBytesPerSec := sess.clip.EncodedBps() / 8
	tsMs := uint32(sess.sentMediaBytes / encBytesPerSec * 1000)
	buf := srv.pkts.get()
	if need := dataHeaderLen + segment.ListWireSize(segs); cap(buf) < need {
		if buf != nil {
			srv.pkts.put(buf) // undersized; back to the pool
		}
		if need < pktBufCap {
			need = pktBufCap
		}
		buf = make([]byte, 0, need)
	}
	pkt := AppendDataHeader(buf, DataHeader{Seq: sess.seq, TSms: tsMs})
	pkt = segment.AppendList(pkt, segs)
	sess.srv.host.SendUDP(inet.PortRDTData, sess.data, pkt)
	sess.remember(sess.seq, pkt)
	sess.seq++
	for _, sg := range segs {
		sess.sentMediaBytes += float64(sg.Length)
	}

	rate := sess.currentRate(now)
	gapSec := float64(len(pkt)*8) / rate
	gapSec = sess.rng.Jitter(gapSec, PacingJitter)
	sess.nextSend = sess.srv.host.AfterArg(time.Duration(gapSec*float64(time.Second)), "rdt.send",
		sendNextStep, sess)
}

// remember retains the packet for NAK retransmission, evicting beyond the
// window; evicted buffers are recycled for future data packets (the UDP
// layer copies every send, so a recycled buffer is never aliased by an
// in-flight packet).
func (sess *session) remember(seq uint32, pkt []byte) {
	slot := seq % ResendWindow
	r := sess.resend
	if old := r.pkts[slot]; old != nil {
		sess.srv.pkts.put(old)
	}
	r.pkts[slot], r.seqs[slot] = pkt, seq
}

// resendPkt looks up a NAKed sequence number in the resend window,
// returning nil when the packet has already been evicted (or was never
// sent).
func (sess *session) resendPkt(seq uint32) []byte {
	slot := seq % ResendWindow
	if sess.resend.seqs[slot] != seq {
		return nil
	}
	return sess.resend.pkts[slot]
}

// finish sends the end-of-stream marker (thrice, for loss robustness) and
// keeps the session alive briefly for trailing NAKs.
func (sess *session) finish() {
	if sess.done {
		return
	}
	final := sess.seq
	for i := 0; i < 3; i++ {
		delay := time.Duration(i) * 200 * time.Millisecond
		sess.srv.host.After(delay, "rdt.end", func(eventsim.Time) {
			if !sess.done {
				sess.srv.host.SendUDP(inet.PortRDTData, sess.data, MarshalEnd(final))
			}
		})
	}
	// Grace period for final NAK exchanges, then drop the session.
	sess.srv.host.After(5*time.Second, "rdt.sessionReap", func(eventsim.Time) { sess.stop() })
}

func (sess *session) stop() {
	if sess.done {
		return
	}
	sess.done = true
	sess.srv.host.Cancel(sess.nextSend)
	sess.recycle()
	delete(sess.srv.sessions, sess.ctl)
}

// recycle returns the session's resend window — packet buffers and ring —
// to the server's pools (the packet buffers to a shared PacketPool, when
// one is in use). Called exactly once, when the session ends (stop)
// or the server rewinds (Reset).
func (sess *session) recycle() {
	srv := sess.srv
	r := sess.resend
	for i, buf := range r.pkts {
		if buf != nil {
			srv.pkts.put(buf)
			r.pkts[i] = nil
		}
		r.seqs[i] = 0
	}
	srv.ringPool = append(srv.ringPool, r)
	sess.resend = nil
	if sess.rng != nil {
		srv.rngPool = append(srv.rngPool, sess.rng)
		sess.rng = nil
	}
}
