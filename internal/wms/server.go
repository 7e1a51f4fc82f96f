package wms

import (
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/media"
	"turbulence/internal/scaling"
	"turbulence/internal/segment"
	"turbulence/internal/transport"
)

// MinUnitBytes is the smallest ASF data unit the server emits. At low
// encoding rates (where a tenth of a second of media is tiny) the server
// still packs ~900-byte units and stretches the pacing interval instead,
// which is why the paper's Figure 6 shows low-rate MediaPlayer packets
// concentrated between 800 and 1000 bytes.
const MinUnitBytes = 900

// NominalTick is the pacing interval at rates where a tick's worth of
// media fills a unit — the 100 ms delivery period visible in Figure 12.
const NominalTick = 100 * time.Millisecond

// UnitPlan computes the data-unit payload budget and pacing interval for an
// encoding rate, the two parameters that fully determine WMS wire
// behaviour.
func UnitPlan(encodedBps float64) (unitBytes int, tick time.Duration) {
	perTick := encodedBps * NominalTick.Seconds() / 8
	if perTick >= MinUnitBytes {
		return int(perTick), NominalTick
	}
	sec := float64(MinUnitBytes*8) / encodedBps
	return MinUnitBytes, time.Duration(sec * float64(time.Second))
}

// Server is a Windows Media server host serving registered clips over the
// MMS-like control port and streaming CBR data units over UDP.
type Server struct {
	host  transport.Transport
	clips map[string]media.Clip

	// Sessions keyed by client control endpoint.
	sessions map[inet.Endpoint]*session

	// unitCap, when non-zero, bounds the data-unit payload. Capping at a
	// sub-MTU value is the ablation that shows Figure 5 would collapse to
	// zero if WMS packetised like RealServer does.
	unitCap int

	// scaling enables intelligent-streaming thinning driven by client
	// feedback (the §VI media-scaling extension).
	scaling bool

	// ctrlFn is the bound control handler, created once so Reset can rebind
	// the control port without allocating a method value.
	ctrlFn transport.UDPHandler

	// Counters.
	Described, Played, Stopped int
	// ThinSteps counts scaling level increases across sessions.
	ThinSteps int
}

type session struct {
	srv      *Server
	client   inet.Endpoint // data endpoint
	clip     media.Clip
	cutter   *segment.Cutter
	unit     int // full-quality data-unit payload budget
	effUnit  int // current budget after media scaling
	tick     time.Duration
	seq      uint32
	stopTick func()
	done     bool
	ctrl     scaling.Controller
	byteFrac [scaling.MaxLevel + 1]float64

	// pkt is the per-session data-unit buffer: header and segment list
	// are encoded straight into it, and the UDP layer copies it onward,
	// so reusing it keeps the per-packet send path free of allocations.
	pkt []byte
}

// NewServer attaches a WMS server to any transport (simulated or live),
// listening on the MMS control port once Reset arms it.
func NewServer(t transport.Transport) *Server {
	s := &Server{
		host:     t,
		clips:    make(map[string]media.Clip),
		sessions: make(map[inet.Endpoint]*session),
	}
	s.ctrlFn = s.onControl
	s.Reset()
	return s
}

// Reset arms the server for a run without reallocating (NewServer ends in
// it): sessions clear (their pending timers were already drained by the
// owning scheduler's reset), the ablation switches revert, counters zero,
// and the control port binds on the transport. Registered clips are
// retained — registration is part of construction and identical across
// runs.
func (s *Server) Reset() {
	clear(s.sessions)
	s.unitCap = 0
	s.scaling = false
	s.Described = 0
	s.Played = 0
	s.Stopped = 0
	s.ThinSteps = 0
	s.host.BindUDP(inet.PortMMSCtl, s.ctrlFn)
}

// Register makes a clip available under its Table 1 name (and any aliases).
func (s *Server) Register(ref string, clip media.Clip) { s.clips[ref] = clip }

// SetUnitCap bounds the data-unit payload (0 = no cap). An ablation hook:
// capping below the MTU makes WMS packetise like RealServer and eliminates
// IP fragmentation.
func (s *Server) SetUnitCap(bytes int) { s.unitCap = bytes }

// EnableScaling turns on intelligent-streaming thinning: the server reacts
// to client Feedback by dropping delta frames (then all but keyframes),
// reducing the offered data rate under loss — the media-scaling behaviour
// the paper's future work proposes studying.
func (s *Server) EnableScaling(on bool) { s.scaling = on }

// plan computes the unit/tick for a clip honouring the cap.
func (s *Server) plan(clip media.Clip) (int, time.Duration) {
	unit, tick := UnitPlan(clip.EncodedBps())
	if s.unitCap > 0 && unit > s.unitCap {
		unit = s.unitCap
		sec := float64(unit*8) / clip.EncodedBps()
		tick = time.Duration(sec * float64(time.Second))
	}
	return unit, tick
}

// Host returns the transport the server is attached to.
func (s *Server) Host() transport.Transport { return s.host }

func (s *Server) onControl(now eventsim.Time, from inet.Endpoint, payload []byte) {
	t, err := MsgType(payload)
	if err != nil {
		return
	}
	switch t {
	case MsgDescribe:
		m, err := ParseDescribe(payload)
		if err != nil {
			return
		}
		s.Described++
		clip, ok := s.clips[m.ClipRef]
		resp := DescribeResp{OK: ok}
		if ok {
			unit, tick := s.plan(clip)
			resp.EncodedBps = uint32(clip.EncodedBps())
			resp.FrameMilli = uint32(clip.FrameRate() * 1000)
			resp.DurationMs = uint32(clip.Duration / time.Millisecond)
			resp.TotalFrames = uint32(clip.TotalFrames())
			resp.UnitBytes = uint32(unit)
			resp.TickMs = uint32(tick / time.Millisecond)
		}
		s.host.SendUDP(inet.PortMMSCtl, from, MarshalDescribeResp(resp))
	case MsgPlay:
		m, err := ParsePlay(payload)
		if err != nil {
			return
		}
		clip, ok := s.clips[m.ClipRef]
		s.host.SendUDP(inet.PortMMSCtl, from, MarshalPlayResp(PlayResp{OK: ok}))
		if !ok {
			return
		}
		s.Played++
		dataEP := inet.Endpoint{Addr: from.Addr, Port: inet.Port(m.DataPort)}
		s.startSession(dataEP, clip)
	case MsgStop:
		s.Stopped++
		for ep, sess := range s.sessions {
			if ep.Addr == from.Addr {
				sess.stop()
			}
		}
	case MsgFeedback:
		if !s.scaling {
			return
		}
		fb, err := ParseFeedback(payload)
		if err != nil {
			return
		}
		for ep, sess := range s.sessions {
			if ep.Addr == from.Addr {
				sess.applyFeedback(int(fb.LossPermille))
			}
		}
	}
}

// startSession begins CBR streaming. MediaPlayer's defining behaviour
// (paper §3.F): the buffering phase runs at the same rate as playout, so
// the pacer is a single uniform ticker for the whole clip.
func (s *Server) startSession(client inet.Endpoint, clip media.Clip) {
	if old := s.sessions[client]; old != nil {
		old.stop()
	}
	// The frame index is shared and read-only; Cutter and ByteFractions
	// only ever read it.
	sizes, keys := media.FrameIndex(clip)
	unit, tick := s.plan(clip)
	sess := &session{
		srv:      s,
		client:   client,
		clip:     clip,
		cutter:   segment.NewCutter(sizes, keys),
		unit:     unit,
		effUnit:  unit,
		tick:     tick,
		byteFrac: scaling.ByteFractions(sizes, keys),
	}
	s.sessions[client] = sess
	// First unit leaves immediately; the ticker paces the rest.
	s.host.After(0, "wms.firstUnit", func(now eventsim.Time) { sess.sendUnit(now) })
	sess.stopTick = s.host.Ticker(tick, "wms.pacer", func(now eventsim.Time) bool {
		return sess.sendUnit(now)
	})
}

// sendUnit emits one data unit; it reports false once the clip is done.
func (sess *session) sendUnit(now eventsim.Time) bool {
	if sess.done {
		return false
	}
	segs := sess.cutter.Next(sess.effUnit)
	if len(segs) == 0 {
		sess.stop()
		return false
	}
	h := DataHeader{Seq: sess.seq, SentMs: uint32(time.Duration(now) / time.Millisecond)}
	sess.seq++
	sess.pkt = segment.AppendList(AppendDataHeader(sess.pkt[:0], h), segs)
	sess.srv.host.SendUDP(inet.PortMMSData, sess.client, sess.pkt)
	if sess.cutter.Done() {
		sess.stop()
		return false
	}
	return true
}

// applyFeedback updates the thinning level from a loss report. Thinning
// both filters frames and shrinks the per-tick unit budget by the level's
// byte fraction, so the offered bit rate actually falls.
func (sess *session) applyFeedback(lossPermille int) {
	before := sess.ctrl.Level()
	level := sess.ctrl.Report(lossPermille)
	if level > before {
		sess.srv.ThinSteps++
	}
	if level == scaling.Full {
		sess.cutter.SetFilter(nil)
		sess.effUnit = sess.unit
		return
	}
	sess.cutter.SetFilter(level.Admit)
	eff := int(float64(sess.unit) * sess.byteFrac[level])
	if eff < 256 {
		eff = 256
	}
	sess.effUnit = eff
}

func (sess *session) stop() {
	if sess.done {
		return
	}
	sess.done = true
	if sess.stopTick != nil {
		sess.stopTick()
	}
	delete(sess.srv.sessions, sess.client)
}

// ActiveSessions reports how many streams are in flight.
func (s *Server) ActiveSessions() int { return len(s.sessions) }
