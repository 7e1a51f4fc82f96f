package wms

import (
	"fmt"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/segment"
	"turbulence/internal/transport"
)

// State is the player lifecycle.
type State int

const (
	// Idle: created, not started.
	Idle State = iota
	// Connecting: control handshake in progress.
	Connecting
	// Buffering: receiving data, playout not yet started.
	Buffering
	// Playing: playout clock running.
	Playing
	// Done: clip finished (or aborted).
	Done
)

// String names the state.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Connecting:
		return "connecting"
	case Buffering:
		return "buffering"
	case Playing:
		return "playing"
	default:
		return "done"
	}
}

// InterleaveFlush is the application delivery period: the client delivers
// received data units to the application in one batch per second —
// Figure 12's "groups of 10, once per second" at the nominal 100 ms tick.
const InterleaveFlush = time.Second

// PlayerEvents are the observation hooks MediaTracker attaches.
type PlayerEvents struct {
	// OSPacket fires when the OS hands the client a data unit (after IP
	// reassembly) — Figure 12's network/transport-layer series.
	OSPacket func(now eventsim.Time, seq uint32, wireUnits int)
	// AppPacket fires when the interleave buffer delivers a unit to the
	// application — Figure 12's application-layer series.
	AppPacket func(now eventsim.Time, seq uint32)
	// SecondPlayed fires once per played second with the achieved and
	// encoded frame counts — the Figure 13 series.
	SecondPlayed func(now eventsim.Time, second int, played, expected int)
	// DataUnit fires for every accepted data unit with its raw segment
	// payload, before segment decode — the hook payload-digest parity
	// checks hang off. The payload view is only valid during the call.
	DataUnit func(now eventsim.Time, seq uint32, segPayload []byte)
	// StateChange fires on lifecycle transitions.
	StateChange func(now eventsim.Time, s State)
	// SendError fires when a control-plane send fails (live sockets can
	// refuse writes; the simulator never does). The player keeps going —
	// control messages are retried — but the failure is now visible
	// instead of silently discarded.
	SendError func(now eventsim.Time, err error)
	// Done fires when the session completes.
	Done func(now eventsim.Time)
}

// Player is the MediaPlayer model: control handshake, loss accounting,
// interleaved delivery and media feedback. The delay buffer and playout
// clock are the embedded segment.Playout, the same code RealPlayer's
// model plays through; it supplies FramesPlayed, FramesExpected,
// AchievedFPS and Release.
type Player struct {
	segment.Playout

	host     transport.Transport
	server   inet.Addr
	clipRef  string
	ctlPort  inet.Port
	dataPort inet.Port
	events   PlayerEvents

	state State
	meta  DescribeResp

	interleave   []uint32 // unit seqs awaiting app delivery
	noInterleave bool
	stopFlush    func()
	stopPlay     func()

	nextSeq uint32
	retries int

	// Feedback interval accounting for media scaling.
	stopFeedback func()
	fbLastRecv   int
	fbLastLost   int

	// Stats MediaTracker reads.
	UnitsReceived int
	UnitsLost     int
	SendErrors    int
	BytesReceived int
	StartedAt     eventsim.Time
	PlayBeganAt   eventsim.Time
	FinishedAt    eventsim.Time
}

// handshakeRetry is the control-message retransmit interval.
const handshakeRetry = 2 * time.Second

// maxRetries bounds control retransmissions before aborting.
const maxRetries = 5

// NewPlayer prepares a player on any transport (simulated or live) for
// the given server and clip. ctlPort/dataPort must be unique per
// concurrent player on the host.
func NewPlayer(t transport.Transport, server inet.Addr, clipRef string, ctlPort, dataPort inet.Port, ev PlayerEvents) *Player {
	return &Player{
		host:     t,
		server:   server,
		clipRef:  clipRef,
		ctlPort:  ctlPort,
		dataPort: dataPort,
		events:   ev,
		Playout:  segment.NewPlayout(),
	}
}

// State returns the current lifecycle state.
func (p *Player) State() State { return p.state }

// DisableInterleave makes the client deliver units to the application as
// they arrive instead of in once-per-second batches — the ablation that
// flattens Figure 12's application-layer staircase. Call before data
// starts flowing.
func (p *Player) DisableInterleave() { p.noInterleave = true }

// Meta returns the described stream parameters (valid once buffering).
func (p *Player) Meta() DescribeResp { return p.meta }

// Start begins the session.
func (p *Player) Start() {
	if p.state != Idle {
		panic(fmt.Sprintf("wms: Start in state %v", p.state))
	}
	p.host.BindUDP(p.ctlPort, p.onControl)
	p.host.BindUDP(p.dataPort, p.onData)
	p.StartedAt = p.host.Now()
	p.setState(Connecting)
	p.sendDescribe()
}

func (p *Player) setState(s State) {
	if p.state == s {
		return
	}
	p.state = s
	if p.events.StateChange != nil {
		p.events.StateChange(p.host.Now(), s)
	}
}

func (p *Player) serverCtl() inet.Endpoint {
	return inet.Endpoint{Addr: p.server, Port: inet.PortMMSCtl}
}

// sendCtl sends one control message, surfacing a send failure through the
// SendError event and the SendErrors counter instead of discarding it.
func (p *Player) sendCtl(payload []byte) {
	if _, err := p.host.SendUDP(p.ctlPort, p.serverCtl(), payload); err != nil {
		p.SendErrors++
		if p.events.SendError != nil {
			p.events.SendError(p.host.Now(), err)
		}
	}
}

func (p *Player) sendDescribe() {
	if p.state != Connecting || p.meta.OK {
		return
	}
	if p.retries >= maxRetries {
		p.abort()
		return
	}
	p.retries++
	p.sendCtl(MarshalDescribe(Describe{ClipRef: p.clipRef}))
	p.host.After(handshakeRetry, "wms.describeRetry", func(eventsim.Time) { p.sendDescribe() })
}

func (p *Player) sendPlay() {
	if p.state != Connecting {
		return
	}
	if p.retries >= maxRetries {
		p.abort()
		return
	}
	p.retries++
	p.sendCtl(MarshalPlay(Play{ClipRef: p.clipRef, DataPort: uint16(p.dataPort)}))
	p.host.After(handshakeRetry, "wms.playRetry", func(eventsim.Time) { p.sendPlay() })
}

func (p *Player) onControl(now eventsim.Time, from inet.Endpoint, payload []byte) {
	if from.Addr != p.server {
		return
	}
	t, err := MsgType(payload)
	if err != nil {
		return
	}
	switch t {
	case MsgDescribeResp:
		m, err := ParseDescribeResp(payload)
		if err != nil || p.meta.OK {
			return
		}
		if !m.OK {
			p.abort()
			return
		}
		p.meta = m
		p.SetClock(m.FrameRate(), int(m.TotalFrames), m.Duration())
		p.retries = 0
		p.sendPlay()
	case MsgPlayResp:
		m, err := ParsePlayResp(payload)
		if err != nil || p.state != Connecting {
			return
		}
		if !m.OK {
			p.abort()
			return
		}
		p.beginBuffering(now)
	}
}

// FeedbackInterval is how often the client reports reception quality to
// the server (media-scaling input).
const FeedbackInterval = 2 * time.Second

func (p *Player) beginBuffering(now eventsim.Time) {
	p.setState(Buffering)
	p.stopFeedback = p.host.Ticker(FeedbackInterval, "wms.feedback", func(eventsim.Time) bool {
		if p.state != Buffering && p.state != Playing {
			return false
		}
		recvDelta := p.UnitsReceived - p.fbLastRecv
		lostDelta := p.UnitsLost - p.fbLastLost
		p.fbLastRecv = p.UnitsReceived
		p.fbLastLost = p.UnitsLost
		permille := 0
		if total := recvDelta + lostDelta; total > 0 {
			permille = lostDelta * 1000 / total
		}
		p.sendCtl(MarshalFeedback(Feedback{LossPermille: uint16(permille)}))
		return true
	})
	if p.noInterleave {
		return
	}
	p.stopFlush = p.host.Ticker(InterleaveFlush, "wms.interleave", func(now eventsim.Time) bool {
		p.flushInterleave(now)
		return p.state == Buffering || p.state == Playing
	})
}

func (p *Player) onData(now eventsim.Time, from inet.Endpoint, payload []byte) {
	if from.Addr != p.server {
		return
	}
	// On a live transport the first data unit can outrun the PLAY 200 —
	// control and data arrive on different sockets. Data from the server
	// after a successful DESCRIBE implies the PLAY was accepted, so start
	// buffering rather than dropping the unit. (Never taken in the
	// simulator: its in-order delivery hands us the PLAY 200 first.)
	if p.state == Connecting && p.meta.OK {
		p.beginBuffering(now)
	}
	if p.state != Buffering && p.state != Playing {
		return
	}
	h, segPayload, err := ParseData(payload)
	if err != nil {
		return
	}
	if p.events.DataUnit != nil {
		p.events.DataUnit(now, h.Seq, segPayload)
	}
	// Sequence accounting: gaps are lost units (WMP has no retransmission;
	// interleaving only disperses the damage).
	if h.Seq > p.nextSeq {
		p.UnitsLost += int(h.Seq - p.nextSeq)
	}
	if h.Seq >= p.nextSeq {
		p.nextSeq = h.Seq + 1
	}
	p.UnitsReceived++
	p.BytesReceived += len(payload)
	if p.events.OSPacket != nil {
		p.events.OSPacket(now, h.Seq, 1)
	}
	if p.Receive(segPayload) != nil {
		return
	}
	if p.noInterleave {
		if p.events.AppPacket != nil {
			p.events.AppPacket(now, h.Seq)
		}
	} else {
		p.interleave = append(p.interleave, h.Seq)
	}
	p.maybeStartPlayout(now)
}

// flushInterleave delivers queued units to the application layer in a
// batch.
func (p *Player) flushInterleave(now eventsim.Time) {
	for _, seq := range p.interleave {
		if p.events.AppPacket != nil {
			p.events.AppPacket(now, seq)
		}
	}
	p.interleave = p.interleave[:0]
}

func (p *Player) maybeStartPlayout(now eventsim.Time) {
	if p.state != Buffering {
		return
	}
	if p.Buffered() < segment.Preroll && p.CompletedFrames() < int(p.meta.TotalFrames) {
		return
	}
	p.PlayBeganAt = now
	p.setState(Playing)
	p.stopPlay = p.host.Ticker(time.Second, "wms.playclock", p.playOneSecond)
}

// playOneSecond is one playout clock tick.
func (p *Player) playOneSecond(now eventsim.Time) bool {
	if p.state != Playing {
		return false
	}
	second := p.Second()
	played, expected, done := p.PlaySecond()
	if p.events.SecondPlayed != nil {
		p.events.SecondPlayed(now, second, played, expected)
	}
	if done {
		p.finish(now)
		return false
	}
	return true
}

func (p *Player) finish(now eventsim.Time) {
	if p.state == Done {
		return
	}
	p.FinishedAt = now
	p.setState(Done)
	p.teardown()
	p.sendCtl(MarshalStop(Stop{}))
	if p.events.Done != nil {
		p.events.Done(now)
	}
}

func (p *Player) abort() {
	if p.state == Done {
		return
	}
	p.FinishedAt = p.host.Now()
	p.setState(Done)
	p.teardown()
	if p.events.Done != nil {
		p.events.Done(p.host.Now())
	}
}

func (p *Player) teardown() {
	if p.stopFlush != nil {
		p.stopFlush()
	}
	if p.stopPlay != nil {
		p.stopPlay()
	}
	if p.stopFeedback != nil {
		p.stopFeedback()
	}
	p.host.UnbindUDP(p.ctlPort)
	p.host.UnbindUDP(p.dataPort)
}

// LossRate reports the fraction of data units lost.
func (p *Player) LossRate() float64 {
	total := p.UnitsReceived + p.UnitsLost
	if total == 0 {
		return 0
	}
	return float64(p.UnitsLost) / float64(total)
}
