package wms

import (
	"math"
	"testing"
	"time"

	"turbulence/internal/capture"
	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/media"
	"turbulence/internal/netsim"
	"turbulence/internal/stats"
	"turbulence/internal/transport"
)

var (
	clientAddr = inet.MakeAddr(130, 215, 10, 5)
	serverAddr = inet.MakeAddr(207, 46, 1, 9)
)

func testbed(t *testing.T, seed int64) (*netsim.Network, *netsim.Host, *Server) {
	t.Helper()
	n := netsim.New(seed)
	c := n.AddHost(clientAddr)
	s := n.AddHost(serverAddr)
	specs := make([]netsim.HopSpec, 8)
	for i := range specs {
		specs[i] = netsim.HopSpec{
			Addr:      inet.MakeAddr(10, 1, 0, byte(i+1)),
			Bandwidth: 45e6,
			PropDelay: 2 * time.Millisecond,
			JitterMax: 200 * time.Microsecond,
		}
	}
	n.ConnectDuplex(clientAddr, serverAddr, specs)
	return n, c, NewServer(transport.NewSim(s))
}

func TestUnitPlan(t *testing.T) {
	// High rate: a tick's worth of media exceeds the minimum unit.
	unit, tick := UnitPlan(323100)
	if tick != NominalTick {
		t.Fatalf("tick=%v", tick)
	}
	if unit != 4038 { // 323100 * 0.1 / 8
		t.Fatalf("unit=%d", unit)
	}
	// Low rate: unit pinned at the minimum, tick stretched.
	unit, tick = UnitPlan(49800)
	if unit != MinUnitBytes {
		t.Fatalf("low unit=%d", unit)
	}
	wantSec := float64(MinUnitBytes*8) / 49800 * float64(time.Second)
	wantTick := time.Duration(wantSec)
	if d := tick - wantTick; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("low tick=%v, want ~%v", tick, wantTick)
	}
	// Boundary: exactly at the minimum.
	unit, tick = UnitPlan(float64(MinUnitBytes * 8 * 10))
	if unit != MinUnitBytes || tick != NominalTick {
		t.Fatalf("boundary: %d %v", unit, tick)
	}
}

func TestProtocolRoundTrips(t *testing.T) {
	d, err := ParseDescribe(MarshalDescribe(Describe{ClipRef: "1/M-h"}))
	if err != nil || d.ClipRef != "1/M-h" {
		t.Fatalf("describe: %+v %v", d, err)
	}
	resp := DescribeResp{OK: true, EncodedBps: 323100, FrameMilli: 25000, DurationMs: 120000, TotalFrames: 3000, UnitBytes: 4038, TickMs: 100}
	got, err := ParseDescribeResp(MarshalDescribeResp(resp))
	if err != nil || got != resp {
		t.Fatalf("describeResp: %+v %v", got, err)
	}
	if got.FrameRate() != 25 || got.Duration() != 2*time.Minute || got.Tick() != 100*time.Millisecond {
		t.Fatal("derived accessors")
	}
	p, err := ParsePlay(MarshalPlay(Play{ClipRef: "x", DataPort: 7001}))
	if err != nil || p.DataPort != 7001 || p.ClipRef != "x" {
		t.Fatalf("play: %+v %v", p, err)
	}
	pr, err := ParsePlayResp(MarshalPlayResp(PlayResp{OK: true}))
	if err != nil || !pr.OK {
		t.Fatalf("playResp: %+v %v", pr, err)
	}
	h, payload, err := ParseData(MarshalData(DataHeader{Seq: 9, SentMs: 1234}, []byte{1, 2, 3}))
	if err != nil || h.Seq != 9 || h.SentMs != 1234 || len(payload) != 3 {
		t.Fatalf("data: %+v %v", h, err)
	}
}

func TestProtocolParseErrors(t *testing.T) {
	if _, err := MsgType(nil); err != ErrShort {
		t.Fatal("MsgType nil")
	}
	if _, err := ParseDescribe([]byte{MsgPlay}); err != ErrBadType {
		t.Fatal("describe type")
	}
	if _, err := ParseDescribe([]byte{MsgDescribe, 0, 9, 'x'}); err == nil {
		t.Fatal("describe bad string")
	}
	if _, err := ParseDescribe(append(MarshalDescribe(Describe{ClipRef: "a"}), 0)); err == nil {
		t.Fatal("describe trailing")
	}
	if _, err := ParseDescribeResp([]byte{MsgDescribeResp, 1, 2}); err == nil {
		t.Fatal("describeResp short")
	}
	if _, err := ParsePlay([]byte{MsgPlay, 0, 1, 'x'}); err == nil {
		t.Fatal("play missing port")
	}
	if _, err := ParsePlayResp([]byte{MsgPlayResp}); err == nil {
		t.Fatal("playResp short")
	}
	if _, _, err := ParseData([]byte{MsgData}); err != ErrShort {
		t.Fatal("data short")
	}
	if _, _, err := ParseData(make([]byte, 16)); err != ErrBadType {
		t.Fatal("data type")
	}
}

// streamClip runs a full session and returns the player and client trace.
func streamClip(t *testing.T, clip media.Clip, seed int64) (*Player, *capture.Trace) {
	t.Helper()
	n, c, srv := testbed(t, seed)
	srv.Register(clip.Name(), clip)
	sniff := capture.Attach(c)
	var done bool
	p := NewPlayer(transport.NewSim(c), serverAddr, clip.Name(), 4001, 4002, PlayerEvents{
		Done: func(eventsim.Time) { done = true },
	})
	p.Start()
	if err := n.Run(eventsim.At(clip.Duration.Seconds() + 60)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("session did not complete; state=%v", p.State())
	}
	return p, sniff.Trace()
}

func TestLowRateClipPlaysAt13FPS(t *testing.T) {
	clip, _ := media.FindClip(5, media.WindowsMedia, media.Low) // 39 Kbps
	p, trace := streamClip(t, clip, 11)
	if p.Meta().FrameRate() != 13 {
		t.Fatalf("meta fps=%v", p.Meta().FrameRate())
	}
	if fps := p.AchievedFPS(); math.Abs(fps-13) > 1 {
		t.Fatalf("achieved fps=%v, want ~13 (paper Fig 13)", fps)
	}
	// Low-rate WMP wire packets sit in the 800-1000+ byte band and are
	// never fragmented (paper Fig 5, 6).
	flow := trace.Recv().FlowTo(4002)
	if flow == nil {
		t.Fatal("no data flow captured")
	}
	fs := flow.Fragmentation()
	if fs.Continuations != 0 {
		t.Fatalf("low-rate clip fragmented: %+v", fs)
	}
	sizes := flow.PacketSizes()
	sum := stats.Summarize(sizes)
	if sum.Mean < 800 || sum.Mean > 1100 {
		t.Fatalf("mean packet size=%v, want 800-1100", sum.Mean)
	}
}

func TestHighRateClipFragments(t *testing.T) {
	clip, _ := media.FindClip(1, media.WindowsMedia, media.High) // 323.1 Kbps
	p, trace := streamClip(t, clip, 12)
	if p.Meta().FrameRate() != 25 {
		t.Fatalf("meta fps=%v", p.Meta().FrameRate())
	}
	flow := trace.Recv().FlowTo(4002)
	fs := flow.Fragmentation()
	if fs.Continuations == 0 {
		t.Fatal("high-rate clip did not fragment")
	}
	// ~66% of wire packets are continuation fragments at ~300 Kbps
	// (paper §3.C: "66% of packets are IP fragments for clips encoded at
	// 300 Kbps").
	share := fs.ContinuationShare()
	if share < 0.60 || share < 0.5 {
		t.Fatalf("continuation share=%v, want ~0.66", share)
	}
	if share > 0.72 {
		t.Fatalf("continuation share=%v too high", share)
	}
	// Fragment trains have a constant length (paper Fig 4: "a constant
	// number of packets in each group").
	trains := flow.TrainLengths()
	for _, n := range trains[:len(trains)-1] { // last unit may be short
		if n != 3 {
			t.Fatalf("train length %d, want 3", n)
		}
	}
	// Full fragments ride at the wire maximum of 1514 bytes.
	distinct, _ := flow.DistinctSizes()
	if distinct[len(distinct)-1] != inet.MaxWirePacket {
		t.Fatalf("max wire size=%d, want %d", distinct[len(distinct)-1], inet.MaxWirePacket)
	}
}

func TestCBRPacing(t *testing.T) {
	clip, _ := media.FindClip(5, media.WindowsMedia, media.Low)
	_, trace := streamClip(t, clip, 13)
	flow := trace.Recv().FlowTo(4002)
	ia := flow.GroupInterarrivals()
	sum := stats.Summarize(ia)
	// Interarrival spread is tiny: CV below 5% (paper §3.E: essentially
	// constant time interval between packets).
	if cv := sum.StdDev / sum.Mean; cv > 0.05 {
		t.Fatalf("interarrival CV=%v, want < 0.05", cv)
	}
	// Mean interarrival matches the unit plan's tick.
	_, tick := UnitPlan(clip.EncodedBps())
	if math.Abs(sum.Mean-tick.Seconds()) > 0.01 {
		t.Fatalf("mean interarrival=%v, want ~%v", sum.Mean, tick.Seconds())
	}
}

func TestBufferingAtPlayoutRate(t *testing.T) {
	// Paper §3.F: MediaPlayer buffers at the same rate as it plays; the
	// first 5 seconds of traffic match the steady state.
	clip, _ := media.FindClip(1, media.WindowsMedia, media.High)
	_, trace := streamClip(t, clip, 14)
	flow := trace.Recv().FlowTo(4002)
	bw := flow.BandwidthSeries(time.Second)
	if len(bw) < 20 {
		t.Fatalf("series too short: %d", len(bw))
	}
	early := stats.Mean([]float64{bw[1].Y, bw[2].Y, bw[3].Y, bw[4].Y})
	midStart := len(bw) / 2
	mid := stats.Mean([]float64{bw[midStart].Y, bw[midStart+1].Y, bw[midStart+2].Y, bw[midStart+3].Y})
	if ratio := early / mid; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("buffering/steady ratio=%v, want ~1 (paper: MediaPlayer ratio is 1)", ratio)
	}
}

func TestInterleavedAppDelivery(t *testing.T) {
	// Paper §3.G / Figure 12: OS receives units every tick, the
	// application receives them in batches once per second.
	clip, _ := media.FindClip(5, media.WindowsMedia, media.High) // 250.4 Kbps, 100 ms tick
	n, c, srv := testbed(t, 15)
	srv.Register(clip.Name(), clip)
	var osTimes, appTimes []float64
	p := NewPlayer(transport.NewSim(c), serverAddr, clip.Name(), 4001, 4002, PlayerEvents{
		OSPacket:  func(now eventsim.Time, seq uint32, _ int) { osTimes = append(osTimes, now.Seconds()) },
		AppPacket: func(now eventsim.Time, seq uint32) { appTimes = append(appTimes, now.Seconds()) },
	})
	p.Start()
	n.Run(eventsim.At(30))
	if len(osTimes) < 100 || len(appTimes) < 50 {
		t.Fatalf("events: os=%d app=%d", len(osTimes), len(appTimes))
	}
	// OS interarrivals ~ 100 ms.
	var osIA []float64
	for i := 1; i < len(osTimes); i++ {
		osIA = append(osIA, osTimes[i]-osTimes[i-1])
	}
	if m := stats.Mean(osIA); math.Abs(m-0.1) > 0.01 {
		t.Fatalf("OS interarrival=%v, want ~0.1", m)
	}
	// App deliveries cluster at 1-second boundaries in batches of ~10.
	batches := make(map[int]int)
	for _, at := range appTimes {
		batches[int(at*1000+0.5)]++ // millisecond key
	}
	bigBatches := 0
	for _, n := range batches {
		if n >= 8 {
			bigBatches++
		}
	}
	if bigBatches < 10 {
		t.Fatalf("app batches of ~10: %d, want >= 10", bigBatches)
	}
	// Distinct app delivery instants are ~1 s apart.
	var instants []float64
	for ms := range batches {
		instants = append(instants, float64(ms)/1000)
	}
	if len(instants) < 5 {
		t.Fatalf("too few app delivery instants: %d", len(instants))
	}
}

func TestHighRateFPS25(t *testing.T) {
	clip, _ := media.FindClip(5, media.WindowsMedia, media.High)
	p, _ := streamClip(t, clip, 16)
	if fps := p.AchievedFPS(); math.Abs(fps-25) > 1 {
		t.Fatalf("achieved fps=%v, want ~25", fps)
	}
	if p.LossRate() > 0.01 {
		t.Fatalf("loss=%v on a clean path", p.LossRate())
	}
}

func TestPlayerStartupLatency(t *testing.T) {
	clip, _ := media.FindClip(3, media.WindowsMedia, media.Low)
	n, c, srv := testbed(t, 17)
	srv.Register(clip.Name(), clip)
	var playStart eventsim.Time
	p := NewPlayer(transport.NewSim(c), serverAddr, clip.Name(), 4001, 4002, PlayerEvents{
		StateChange: func(now eventsim.Time, s State) {
			if s == Playing {
				playStart = now
			}
		},
	})
	p.Start()
	n.Run(eventsim.At(90))
	// Streaming at playout rate means filling the 5 s preroll takes ~5 s.
	if playStart.Seconds() < 4.5 || playStart.Seconds() > 8 {
		t.Fatalf("playout began at %v, want ~5-7 s", playStart)
	}
}

func TestServerUnknownClip(t *testing.T) {
	n, c, _ := testbed(t, 18)
	var done bool
	p := NewPlayer(transport.NewSim(c), serverAddr, "no-such-clip", 4001, 4002, PlayerEvents{
		Done: func(eventsim.Time) { done = true },
	})
	p.Start()
	n.Run(eventsim.At(60))
	if !done || p.State() != Done {
		t.Fatal("player did not abort on unknown clip")
	}
	if p.FramesPlayed != 0 {
		t.Fatal("played frames of a missing clip")
	}
}

func TestHandshakeSurvivesControlLoss(t *testing.T) {
	n := netsim.New(19)
	c := n.AddHost(clientAddr)
	s := n.AddHost(serverAddr)
	specs := []netsim.HopSpec{{
		Addr: inet.MakeAddr(10, 1, 0, 1), Bandwidth: 10e6,
		PropDelay: 5 * time.Millisecond, Loss: 0.3, // brutal control loss
	}}
	n.ConnectDuplex(clientAddr, serverAddr, specs)
	srv := NewServer(transport.NewSim(s))
	clip, _ := media.FindClip(2, media.WindowsMedia, media.Low)
	srv.Register(clip.Name(), clip)
	var reached State
	p := NewPlayer(transport.NewSim(c), serverAddr, clip.Name(), 4001, 4002, PlayerEvents{
		StateChange: func(_ eventsim.Time, st State) {
			if st > reached && st != Done {
				reached = st
			}
		},
	})
	p.Start()
	n.Run(eventsim.At(120))
	if reached < Buffering {
		t.Fatalf("handshake never completed under loss: reached %v", reached)
	}
}

func TestLossReducesFrameRate(t *testing.T) {
	n := netsim.New(20)
	c := n.AddHost(clientAddr)
	s := n.AddHost(serverAddr)
	specs := []netsim.HopSpec{{
		Addr: inet.MakeAddr(10, 1, 0, 1), Bandwidth: 45e6,
		PropDelay: 5 * time.Millisecond, Loss: 0.05,
	}}
	n.ConnectDuplex(clientAddr, serverAddr, specs)
	srv := NewServer(transport.NewSim(s))
	clip, _ := media.FindClip(1, media.WindowsMedia, media.High)
	srv.Register(clip.Name(), clip)
	p := NewPlayer(transport.NewSim(c), serverAddr, clip.Name(), 4001, 4002, PlayerEvents{})
	p.Start()
	n.Run(eventsim.At(clip.Duration.Seconds() + 60))
	if p.UnitsLost == 0 {
		t.Fatal("no unit loss on a 5% lossy path")
	}
	if fps := p.AchievedFPS(); fps >= 25 {
		t.Fatalf("fps=%v under loss, want < encoded 25", fps)
	}
	if p.LossRate() <= 0 {
		t.Fatal("LossRate")
	}
}

func TestServerSessionBookkeeping(t *testing.T) {
	clip, _ := media.FindClip(3, media.WindowsMedia, media.Low)
	n, c, srv := testbed(t, 21)
	srv.Register(clip.Name(), clip)
	p := NewPlayer(transport.NewSim(c), serverAddr, clip.Name(), 4001, 4002, PlayerEvents{})
	p.Start()
	n.Run(eventsim.At(200))
	if srv.Described != 1 || srv.Played != 1 {
		t.Fatalf("server counters: %d %d", srv.Described, srv.Played)
	}
	if srv.ActiveSessions() != 0 {
		t.Fatalf("sessions leaked: %d", srv.ActiveSessions())
	}
}

func TestStateString(t *testing.T) {
	for _, s := range []State{Idle, Connecting, Buffering, Playing, Done} {
		if s.String() == "" {
			t.Fatal("state string")
		}
	}
}

func TestDoubleStartPanics(t *testing.T) {
	n, c, srv := testbed(t, 22)
	clip, _ := media.FindClip(3, media.WindowsMedia, media.Low)
	srv.Register(clip.Name(), clip)
	p := NewPlayer(transport.NewSim(c), serverAddr, clip.Name(), 4001, 4002, PlayerEvents{})
	p.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	p.Start()
	_ = n
}
