package rdt

import (
	"fmt"
	"slices"
	"strconv"
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
	// Describing: DESCRIBE exchange in progress.
	Describing
	// SettingUp: SETUP exchange / probe train in progress.
	SettingUp
	// Buffering: PLAY accepted, filling the delay buffer.
	Buffering
	// Playing: playout clock running.
	Playing
	// Done: finished or aborted.
	Done
)

// String names the state.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Describing:
		return "describing"
	case SettingUp:
		return "setting-up"
	case Buffering:
		return "buffering"
	case Playing:
		return "playing"
	default:
		return "done"
	}
}

// probeTimeout bounds how long the client waits for the SETUP probe train.
const probeTimeout = 2 * time.Second

// nakDelay batches gap detections before requesting retransmission.
const nakDelay = 120 * time.Millisecond

// handshakeRetry is the control retransmit interval.
const handshakeRetry = 2 * time.Second

// maxRetries bounds control retransmissions.
const maxRetries = 5

// Meta is the stream description RealTracker records.
type Meta struct {
	EncodedBps  float64
	FrameRate   float64
	Duration    time.Duration
	TotalFrames int
}

// PlayerEvents are the observation hooks RealTracker attaches (mirroring
// the MediaTracker hooks; RealPlayer has no interleave stage, so
// application delivery coincides with OS delivery — the paper notes it
// could not gather application packets in RealTracker).
type PlayerEvents struct {
	OSPacket     func(now eventsim.Time, seq uint32, wirePackets int)
	SecondPlayed func(now eventsim.Time, second int, played, expected int)
	StateChange  func(now eventsim.Time, s State)
	Done         func(now eventsim.Time)
}

// Player is the RealOne Player model: RTSP control, packet-train probe,
// NAK recovery and reception reports. The delay buffer and playout clock
// are the embedded segment.Playout, the same code MediaPlayer's model
// plays through; it supplies FramesPlayed, FramesExpected,
// AchievedFPS and Release.
type Player struct {
	segment.Playout

	host     transport.Transport
	server   inet.Addr
	url      string // rtsp://server/clipRef, formatted once
	ctlPort  inet.Port
	dataPort inet.Port
	// Request scratch, reused so the periodic REPORT and the NAK timer
	// do not allocate: reqBuf holds the encoded request, hdrBuf its header
	// value, nakSeqs the sorted batch of missing sequence numbers.
	reqBuf  []byte
	hdrBuf  []byte
	nakSeqs []uint32
	events  PlayerEvents

	state State
	meta  Meta
	cseq  int

	probeTimes []eventsim.Time
	probeDone  bool
	// BandwidthEstimate is the packet-train bottleneck estimate sent in
	// the PLAY request's Bandwidth header (bits/second).
	BandwidthEstimate float64

	nextSeq  uint32
	missing  map[uint32]bool
	nakArmed bool
	endSeq   uint32
	sawEnd   bool

	stopPlay func()
	retries  int

	// Reception-report interval accounting for media scaling.
	stopReport func()
	rpLastRecv int
	rpLastMiss int

	// Stats RealTracker reads.
	PacketsReceived  int
	PacketsLost      int
	PacketsRecovered int
	BytesReceived    int
	StartedAt        eventsim.Time
	PlayBeganAt      eventsim.Time
	FinishedAt       eventsim.Time
}

// NewPlayer prepares a RealPlayer on any transport (simulated or live)
// for rtsp://server/clipRef.
func NewPlayer(t transport.Transport, server inet.Addr, clipRef string, ctlPort, dataPort inet.Port, ev PlayerEvents) *Player {
	return &Player{
		host:     t,
		server:   server,
		url:      fmt.Sprintf("rtsp://%s/%s", server, clipRef),
		ctlPort:  ctlPort,
		dataPort: dataPort,
		events:   ev,
		Playout:  segment.NewPlayout(),
		missing:  make(map[uint32]bool),
	}
}

// State returns the lifecycle state.
func (p *Player) State() State { return p.state }

// Meta returns the described stream parameters.
func (p *Player) Meta() Meta { return p.meta }

// URL returns the clip's RTSP URL.
func (p *Player) URL() string { return p.url }

// Start begins the session.
func (p *Player) Start() {
	if p.state != Idle {
		panic(fmt.Sprintf("rdt: Start in state %v", p.state))
	}
	p.host.BindUDP(p.ctlPort, p.onControl)
	p.host.BindUDP(p.dataPort, p.onData)
	p.StartedAt = p.host.Now()
	p.setState(Describing)
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
	return inet.Endpoint{Addr: p.server, Port: inet.PortRTSPCtl}
}

// request sends method with the given headers, encoded into the reused
// request buffer (SendUDP lets the payload be reused once it returns).
func (p *Player) request(method string, headers ...Header) {
	p.cseq++
	p.reqBuf = AppendRequest(p.reqBuf[:0], method, p.url, p.cseq, headers...)
	p.host.SendUDP(p.ctlPort, p.serverCtl(), p.reqBuf)
}

// requestInt sends method with one integer-valued header.
func (p *Player) requestInt(method, key string, v int) {
	p.hdrBuf = strconv.AppendInt(p.hdrBuf[:0], int64(v), 10)
	p.request(method, Header{Key: key, Value: p.hdrBuf})
}

func (p *Player) sendDescribe() {
	if p.state != Describing {
		return
	}
	if p.retries >= maxRetries {
		p.abort()
		return
	}
	p.retries++
	p.request(MethodDescribe)
	p.host.After(handshakeRetry, "rdt.describeRetry", func(eventsim.Time) { p.sendDescribe() })
}

func (p *Player) sendSetup() {
	if p.state != SettingUp || p.probeDone {
		return
	}
	if p.retries >= maxRetries {
		p.abort()
		return
	}
	p.retries++
	p.requestInt(MethodSetup, "Client-Port", int(p.dataPort))
	p.host.After(handshakeRetry, "rdt.setupRetry", func(eventsim.Time) { p.sendSetup() })
}

func (p *Player) sendPlay() {
	if p.state != SettingUp || !p.probeDone {
		return
	}
	if p.retries >= maxRetries {
		p.abort()
		return
	}
	p.retries++
	p.requestInt(MethodPlay, "Bandwidth", int(p.BandwidthEstimate))
	p.host.After(handshakeRetry, "rdt.playRetry", func(eventsim.Time) { p.sendPlay() })
}

func (p *Player) onControl(now eventsim.Time, from inet.Endpoint, payload []byte) {
	if from.Addr != p.server || IsRequest(payload) {
		return
	}
	resp, err := ParseResponse(payload)
	if err != nil {
		return
	}
	switch p.state {
	case Describing:
		if resp.Status != 200 {
			p.abort()
			return
		}
		p.meta = Meta{
			EncodedBps:  float64(resp.IntHeader("Encoded-Rate", 0)),
			FrameRate:   resp.FloatHeader("Frame-Rate", 0),
			Duration:    time.Duration(resp.IntHeader("Duration-Ms", 0)) * time.Millisecond,
			TotalFrames: resp.IntHeader("Total-Frames", 0),
		}
		p.SetClock(p.meta.FrameRate, p.meta.TotalFrames, p.meta.Duration)
		p.retries = 0
		p.setState(SettingUp)
		p.sendSetup()
	case SettingUp:
		if resp.Status != 200 {
			p.abort()
			return
		}
		if resp.Header("Transport") != "" && !p.probeDone {
			// SETUP accepted: the probe train is on its way. Fall back to
			// PLAY even if some probes are lost.
			p.host.After(probeTimeout, "rdt.probeTimeout", func(eventsim.Time) {
				p.finishProbe()
			})
		}
		// A bare 200 with no Transport is the PLAY acknowledgement.
		if resp.Header("Transport") == "" && p.probeDone {
			p.setState(Buffering)
		}
	}
}

// finishProbe computes the packet-train dispersion estimate and issues
// PLAY.
func (p *Player) finishProbe() {
	if p.probeDone || p.state != SettingUp {
		return
	}
	p.probeDone = true
	if len(p.probeTimes) >= 2 {
		first := p.probeTimes[0]
		last := p.probeTimes[len(p.probeTimes)-1]
		gaps := len(p.probeTimes) - 1
		wireBits := float64(gaps * (1 + 2 + ProbeBytes + inet.UDPHeaderLen + inet.IPv4HeaderLen + inet.EthernetOverhead) * 8)
		if d := last.Sub(first).Seconds(); d > 0 {
			p.BandwidthEstimate = wireBits / d
		}
	}
	p.retries = 0
	p.sendPlay()
}

func (p *Player) onData(now eventsim.Time, from inet.Endpoint, payload []byte) {
	if from.Addr != p.server || p.state == Done || p.state == Idle {
		return
	}
	kind, err := PacketKind(payload)
	if err != nil {
		return
	}
	switch kind {
	case KindProbe:
		if idx, err := ParseProbe(payload); err == nil && p.state == SettingUp && !p.probeDone {
			p.probeTimes = append(p.probeTimes, now)
			if idx == ProbeTrainLen-1 {
				p.finishProbe()
			}
		}
	case KindData:
		p.onMediaPacket(now, payload)
	case KindEnd:
		if final, err := ParseEnd(payload); err == nil {
			p.onEnd(final)
		}
	}
}

// ReportInterval is how often the client sends reception-quality reports.
const ReportInterval = 2 * time.Second

// startReporting begins the periodic loss reports once data flows.
func (p *Player) startReporting() {
	if p.stopReport != nil {
		return
	}
	p.stopReport = p.host.Ticker(ReportInterval, "rdt.report", p.report)
}

// report is one reception-report tick: the interval's loss in permille.
func (p *Player) report(eventsim.Time) bool {
	if p.state != Buffering && p.state != Playing {
		return false
	}
	// Recovered packets no longer count as missing; report the gross gap
	// count seen this interval via received+missing deltas.
	missedSoFar := len(p.missing) + p.PacketsRecovered
	recvDelta := p.PacketsReceived - p.rpLastRecv
	missDelta := missedSoFar - p.rpLastMiss
	if missDelta < 0 {
		missDelta = 0
	}
	p.rpLastRecv = p.PacketsReceived
	p.rpLastMiss = missedSoFar
	permille := 0
	if total := recvDelta + missDelta; total > 0 {
		permille = missDelta * 1000 / total
	}
	p.requestInt(MethodReport, "Loss", permille)
	return true
}

func (p *Player) onMediaPacket(now eventsim.Time, payload []byte) {
	h, segPayload, err := ParseData(payload)
	if err != nil {
		return
	}
	if p.state == SettingUp {
		// Data can outrun the PLAY 200 on a lossy control channel.
		p.setState(Buffering)
	}
	if p.state == Buffering || p.state == Playing {
		p.startReporting()
	}
	if h.Seq >= p.nextSeq {
		for s := p.nextSeq; s < h.Seq; s++ {
			p.missing[s] = true
		}
		if h.Seq > p.nextSeq {
			p.armNAK()
		}
		p.nextSeq = h.Seq + 1
	} else {
		// Out-of-window packet: a retransmission if we NAK'd it.
		if p.missing[h.Seq] {
			delete(p.missing, h.Seq)
			p.PacketsRecovered++
		} else {
			return // duplicate
		}
	}
	p.PacketsReceived++
	p.BytesReceived += len(payload)
	if p.events.OSPacket != nil {
		p.events.OSPacket(now, h.Seq, 1)
	}
	if p.Receive(segPayload) != nil {
		return
	}
	p.maybeStartPlayout(now)
}

// armNAK schedules a batched retransmission request.
func (p *Player) armNAK() {
	if p.nakArmed {
		return
	}
	p.nakArmed = true
	p.host.AfterArg(nakDelay, "rdt.nak", sendNAKStep, p)
}

// sendNAKStep is the NAK timer's static callback: passing the player as
// the event argument keeps arming free of closure allocations.
func sendNAKStep(_ eventsim.Time, arg any) { arg.(*Player).sendNAK() }

// sendNAK requests retransmission of every sequence number still missing,
// built in the player's reused scratch.
func (p *Player) sendNAK() {
	p.nakArmed = false
	if p.state == Done || len(p.missing) == 0 {
		return
	}
	seqs := p.nakSeqs[:0]
	for s := range p.missing {
		seqs = append(seqs, s)
	}
	// Sort the batch: map iteration order would otherwise leak into the
	// NAK wire format and the server's retransmission order, breaking
	// run-to-run determinism under bursty loss.
	slices.Sort(seqs)
	p.nakSeqs = seqs
	p.hdrBuf = AppendSeqList(p.hdrBuf[:0], seqs)
	p.request(MethodNAK, Header{Key: "Seqs", Value: p.hdrBuf})
}

func (p *Player) onEnd(finalSeq uint32) {
	if p.sawEnd {
		return
	}
	p.sawEnd = true
	p.endSeq = finalSeq
	for s := p.nextSeq; s < finalSeq; s++ {
		p.missing[s] = true
	}
	if len(p.missing) > 0 {
		p.armNAK()
	}
	// Whatever is still missing after the grace window is lost for good.
	p.host.After(2*time.Second, "rdt.lossSettle", func(eventsim.Time) {
		p.PacketsLost = len(p.missing)
	})
	p.maybeStartPlayout(p.host.Now())
}

func (p *Player) maybeStartPlayout(now eventsim.Time) {
	if p.state != Buffering {
		return
	}
	if p.Buffered() < segment.Preroll && !p.sawEnd {
		return
	}
	p.PlayBeganAt = now
	p.setState(Playing)
	p.stopPlay = p.host.Ticker(time.Second, "rdt.playclock", p.playOneSecond)
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
	p.request(MethodTeardown)
	p.teardown()
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
	if p.stopPlay != nil {
		p.stopPlay()
	}
	if p.stopReport != nil {
		p.stopReport()
	}
	p.host.UnbindUDP(p.ctlPort)
	p.host.UnbindUDP(p.dataPort)
}

// LossRate reports the fraction of data packets neither received nor
// recovered.
func (p *Player) LossRate() float64 {
	total := p.PacketsReceived + p.PacketsLost
	if total == 0 {
		return 0
	}
	return float64(p.PacketsLost) / float64(total)
}
