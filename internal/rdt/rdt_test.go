package rdt

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
)

var (
	clientAddr = inet.MakeAddr(130, 215, 10, 5)
	serverAddr = inet.MakeAddr(209, 247, 1, 20)
)

// testbed wires a client to a RealServer over a path with the given
// bottleneck bandwidth.
func testbed(t *testing.T, seed int64, bottleneck float64, loss float64) (*netsim.Network, *netsim.Host, *Server) {
	t.Helper()
	n := netsim.New(seed)
	c := n.AddHost(clientAddr)
	s := n.AddHost(serverAddr)
	specs := []netsim.HopSpec{
		{Addr: inet.MakeAddr(10, 2, 0, 1), Bandwidth: 10e6, PropDelay: 2 * time.Millisecond, JitterMax: 300 * time.Microsecond},
		{Addr: inet.MakeAddr(10, 2, 0, 2), Bandwidth: bottleneck, PropDelay: 8 * time.Millisecond, JitterMax: 500 * time.Microsecond, Loss: loss},
		{Addr: inet.MakeAddr(10, 2, 0, 3), Bandwidth: 45e6, PropDelay: 2 * time.Millisecond, JitterMax: 300 * time.Microsecond},
	}
	n.ConnectDuplex(clientAddr, serverAddr, specs)
	return n, c, NewServer(s)
}

func TestRTSPRoundTrips(t *testing.T) {
	req := Request{Method: MethodSetup, URL: "rtsp://209.247.1.20/5/R-l", CSeq: 3,
		Headers: map[string]string{"Client-Port": "6970"}}
	got, err := ParseRequest(MarshalRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != req.Method || got.URL != req.URL || got.CSeq != 3 {
		t.Fatalf("request: %+v", got)
	}
	if got.IntHeader("Client-Port", 0) != 6970 {
		t.Fatal("header")
	}
	if got.IntHeader("Missing", 42) != 42 {
		t.Fatal("default header")
	}
	resp := Response{Status: 200, CSeq: 3, Headers: map[string]string{
		"Encoded-Rate": "36000", "Frame-Rate": "19.000"}}
	gotR, err := ParseResponse(MarshalResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if gotR.Status != 200 || gotR.CSeq != 3 || gotR.Reason != "OK" {
		t.Fatalf("response: %+v", gotR)
	}
	if gotR.FloatHeader("Frame-Rate", 0) != 19 || gotR.IntHeader("Encoded-Rate", 0) != 36000 {
		t.Fatal("response headers")
	}
	if gotR.FloatHeader("Nope", 7.5) != 7.5 {
		t.Fatal("default float header")
	}
	if !IsRequest(MarshalRequest(req)) || IsRequest(MarshalResponse(resp)) {
		t.Fatal("IsRequest")
	}
}

func TestRTSPParseErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte("DESCRIBE\r\n\r\n"),
		[]byte("DESCRIBE rtsp://x RTSP/9.9\r\n\r\n"),
		[]byte("DESCRIBE rtsp://x RTSP/1.0\r\nno colon line\r\n\r\n"),
		[]byte("DESCRIBE rtsp://x RTSP/1.0"), // missing terminator
	}
	for _, b := range bad {
		if _, err := ParseRequest(b); err == nil {
			t.Errorf("ParseRequest(%q) accepted", b)
		}
	}
	badResp := [][]byte{
		[]byte("HTTP/1.0 200 OK\r\n\r\n"),
		[]byte("RTSP/1.0 abc OK\r\n\r\n"),
		[]byte("RTSP/1.0\r\n\r\n"),
	}
	for _, b := range badResp {
		if _, err := ParseResponse(b); err == nil {
			t.Errorf("ParseResponse(%q) accepted", b)
		}
	}
	// Unknown status reason text.
	r, err := ParseResponse(MarshalResponse(Response{Status: 418}))
	if err != nil || r.Reason != "Unknown" {
		t.Fatalf("reason: %+v %v", r, err)
	}
	if reasonFor(404) == "" || reasonFor(455) == "" {
		t.Fatal("reasons")
	}
}

func TestSeqListRoundTrip(t *testing.T) {
	seqs := []uint32{3, 7, 4096}
	got := ParseSeqList(FormatSeqList(seqs))
	if len(got) != 3 || got[0] != 3 || got[2] != 4096 {
		t.Fatalf("seq list: %v", got)
	}
	if got := ParseSeqList("1, junk ,5"); len(got) != 2 {
		t.Fatalf("lenient parse: %v", got)
	}
	if FormatSeqList(nil) != "" {
		t.Fatal("empty list")
	}
}

func TestDataPacketRoundTrips(t *testing.T) {
	h := DataHeader{Seq: 77, TSms: 123456, Flags: FlagRetrans, Stream: 0}
	got, payload, err := ParseData(MarshalData(h, []byte{9, 8, 7}))
	if err != nil || got != h || len(payload) != 3 {
		t.Fatalf("data: %+v %v", got, err)
	}
	idx, err := ParseProbe(MarshalProbe(5))
	if err != nil || idx != 5 {
		t.Fatalf("probe: %d %v", idx, err)
	}
	fin, err := ParseEnd(MarshalEnd(999))
	if err != nil || fin != 999 {
		t.Fatalf("end: %d %v", fin, err)
	}
	if _, _, err := ParseData([]byte{KindData}); err != ErrShort {
		t.Fatal("short data")
	}
	if _, _, err := ParseData(MarshalProbe(0)); err != ErrKind {
		t.Fatal("kind mismatch")
	}
	if _, err := ParseProbe([]byte{KindProbe}); err != ErrShort {
		t.Fatal("short probe")
	}
	if _, err := ParseEnd([]byte{KindEnd}); err != ErrShort {
		t.Fatal("short end")
	}
	if _, err := PacketKind(nil); err != ErrShort {
		t.Fatal("kind nil")
	}
}

func TestBurstRateModel(t *testing.T) {
	// Plenty of bandwidth: full 3x ratio.
	if r := BurstRate(36000, 10e6); r != 3*36000 {
		t.Fatalf("low-rate burst=%v", r)
	}
	// Bottleneck caps the ratio (paper Figure 11's decline).
	r := BurstRate(637000, 1.45e6)
	ratio := r / 637000
	if ratio < 1.0 || ratio > 1.15 {
		t.Fatalf("very-high burst ratio=%v, want ~1.0 (paper: close to 1)", ratio)
	}
	// Mid rates land between.
	r = BurstRate(284000, 900e3)
	ratio = r / 284000
	if ratio < 1.2 || ratio > 2.0 {
		t.Fatalf("high burst ratio=%v, want 1.2-2.0", ratio)
	}
	// Never below the playout rate.
	if r := BurstRate(100000, 1); r != PlayOverhead*100000 {
		t.Fatalf("floor=%v", r)
	}
	// Unknown bottleneck (0): uncapped.
	if r := BurstRate(50000, 0); r != 150000 {
		t.Fatalf("uncapped=%v", r)
	}
}

func TestPacketSizeMean(t *testing.T) {
	if mu := PacketSizeMean(36000); mu < 450 || mu > 600 {
		t.Fatalf("36K mean=%v", mu)
	}
	if mu := PacketSizeMean(637000); mu < 800 || mu > 1000 {
		t.Fatalf("637K mean=%v", mu)
	}
	if mu := PacketSizeMean(1); mu < 450 || mu > 510 {
		t.Fatalf("near-zero rate mean=%v", mu)
	}
	if PacketSizeMean(10e6) != 1000 {
		t.Fatal("ceiling")
	}
}

// streamClip runs a full Real session and returns the player and trace.
func streamClip(t *testing.T, clip media.Clip, seed int64, bottleneck float64) (*Player, *capture.Trace) {
	t.Helper()
	n, c, srv := testbed(t, seed, bottleneck, 0)
	srv.Register(clip.Name(), clip)
	sniff := capture.Attach(c)
	var done bool
	p := NewPlayer(c, serverAddr, clip.Name(), 5001, 5002, PlayerEvents{
		Done: func(eventsim.Time) { done = true },
	})
	p.Start()
	if err := n.Run(eventsim.At(clip.Duration.Seconds() + 90)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("session did not complete; state=%v", p.State())
	}
	return p, sniff.Trace()
}

func TestNoFragmentationEver(t *testing.T) {
	// Paper §3.C: "IP fragments were not observed in any of the RealPlayer
	// traces" — even at the very high rate.
	clip, _ := media.FindClip(6, media.Real, media.VeryHigh) // 636.9 Kbps
	_, trace := streamClip(t, clip, 31, 1.45e6)
	flow := trace.Recv().FlowTo(5002)
	if flow == nil {
		t.Fatal("no data flow")
	}
	if fs := flow.Fragmentation(); fs.AnyFragment != 0 {
		t.Fatalf("Real traffic fragmented: %+v", fs)
	}
	// Every wire packet under the MTU.
	for _, sz := range flow.PacketSizes() {
		if sz > float64(inet.MaxWirePacket) {
			t.Fatalf("packet %v exceeds wire MTU", sz)
		}
	}
}

func TestVariablePacketSizes(t *testing.T) {
	// Paper §3.D / Figure 7: Real packet sizes spread over ~0.6-1.8x the
	// mean with no single dominating size.
	clip, _ := media.FindClip(1, media.Real, media.Low) // 36 Kbps
	_, trace := streamClip(t, clip, 32, 900e3)
	flow := trace.Recv().FlowTo(5002)
	sizes := flow.PacketSizes()
	if len(sizes) < 100 {
		t.Fatalf("too few packets: %d", len(sizes))
	}
	norm := stats.Normalize(sizes)
	sum := stats.Summarize(norm)
	if cv := sum.StdDev; cv < 0.15 {
		t.Fatalf("normalized size spread %.3f too tight for VBR", cv)
	}
	if sum.Min > 0.7 || sum.Max < 1.4 {
		t.Fatalf("normalized range [%.2f,%.2f] too narrow", sum.Min, sum.Max)
	}
	// No single bin dominates like WMP's CBR spike.
	h := stats.NewHistogram(0, 2, 40)
	h.AddAll(norm)
	if _, frac := h.PeakBin(); frac > 0.5 {
		t.Fatalf("peak bin holds %.2f of mass; too CBR-like", frac)
	}
}

func TestVariableInterarrivals(t *testing.T) {
	clip, _ := media.FindClip(1, media.Real, media.Low)
	_, trace := streamClip(t, clip, 33, 900e3)
	flow := trace.Recv().FlowTo(5002)
	ia := flow.Interarrivals()
	sum := stats.Summarize(ia)
	// Paper §3.E: Real interarrivals vary widely; CV well above WMP's.
	if cv := sum.StdDev / sum.Mean; cv < 0.2 {
		t.Fatalf("interarrival CV=%.3f, want > 0.2", cv)
	}
}

func TestBufferingBurstThenSteady(t *testing.T) {
	// Paper §3.F / Figure 10: initial rate ~3x the steady rate for a
	// low-rate clip, then a drop to the playout rate.
	clip, _ := media.FindClip(4, media.Real, media.Low) // 26 Kbps, 4:05 long
	_, trace := streamClip(t, clip, 34, 900e3)
	flow := trace.Recv().FlowTo(5002)
	bw := flow.BandwidthSeries(time.Second)
	if len(bw) < 60 {
		t.Fatalf("series too short: %d", len(bw))
	}
	early := stats.Mean(ys(bw[1:8]))
	late := stats.Mean(ys(bw[40:60]))
	ratio := early / late
	if ratio < 2.0 || ratio > 3.6 {
		t.Fatalf("burst/steady ratio=%.2f, want ~3 (paper Fig 10/11)", ratio)
	}
}

func ys(pts []stats.Point) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.Y
	}
	return out
}

func TestBottleneckCapsBurstRatio(t *testing.T) {
	// Paper Figure 11: at 637 Kbps the ratio collapses toward 1 because
	// the bottleneck cannot carry 3x.
	clip, _ := media.FindClip(6, media.Real, media.VeryHigh)
	p, trace := streamClip(t, clip, 35, 1.45e6)
	if p.BandwidthEstimate < 1.2e6 || p.BandwidthEstimate > 1.8e6 {
		t.Fatalf("probe estimate=%v, want ~1.45M", p.BandwidthEstimate)
	}
	flow := trace.Recv().FlowTo(5002)
	bw := flow.BandwidthSeries(time.Second)
	early := stats.Mean(ys(bw[1:8]))
	ratio := early / clip.EncodedBps()
	if ratio > 1.35 {
		t.Fatalf("very-high burst ratio=%.2f, want close to 1", ratio)
	}
}

func TestRealStartsPlayoutQuickly(t *testing.T) {
	// Buffering at ~3x fills the preroll in about a third of the time
	// MediaPlayer needs (paper §3.F: RealPlayer begins playback sooner).
	clip, _ := media.FindClip(1, media.Real, media.Low)
	n, c, srv := testbed(t, 36, 900e3, 0)
	srv.Register(clip.Name(), clip)
	var playStart eventsim.Time
	p := NewPlayer(c, serverAddr, clip.Name(), 5001, 5002, PlayerEvents{
		StateChange: func(now eventsim.Time, s State) {
			if s == Playing {
				playStart = now
			}
		},
	})
	p.Start()
	n.Run(eventsim.At(60))
	if playStart == 0 {
		t.Fatal("never started playing")
	}
	if playStart.Seconds() > 4.5 {
		t.Fatalf("playout began at %v, want < 4.5 s (burst-fed preroll)", playStart)
	}
}

func TestLowRateKeepsHighFrameRate(t *testing.T) {
	clip, _ := media.FindClip(5, media.Real, media.Low) // 22 Kbps
	p, _ := streamClip(t, clip, 37, 900e3)
	if p.Meta().FrameRate != 19 {
		t.Fatalf("meta fps=%v", p.Meta().FrameRate)
	}
	if fps := p.AchievedFPS(); math.Abs(fps-19) > 1.5 {
		t.Fatalf("achieved fps=%v, want ~19 (paper: Real low beats WMP's 13)", fps)
	}
}

func TestAveragePlaybackExceedsEncodingRate(t *testing.T) {
	// Paper §3.B / Figure 3: RealPlayer consumes more than its encoding
	// rate.
	clip, _ := media.FindClip(1, media.Real, media.High) // 284 Kbps
	_, trace := streamClip(t, clip, 38, 900e3)
	flow := trace.Recv().FlowTo(5002)
	avg := flow.AverageRate()
	if avg <= clip.EncodedBps()*1.02 {
		t.Fatalf("average rate %v <= encoded %v", avg, clip.EncodedBps())
	}
}

func TestNAKRecoversLoss(t *testing.T) {
	clip, _ := media.FindClip(3, media.Real, media.Low)
	n, c, srv := testbed(t, 39, 900e3, 0.03) // 3% loss at the bottleneck
	srv.Register(clip.Name(), clip)
	var done bool
	p := NewPlayer(c, serverAddr, clip.Name(), 5001, 5002, PlayerEvents{
		Done: func(eventsim.Time) { done = true },
	})
	p.Start()
	n.Run(eventsim.At(clip.Duration.Seconds() + 90))
	if !done {
		t.Fatalf("session incomplete: %v", p.State())
	}
	if p.PacketsRecovered == 0 {
		t.Fatal("no packets recovered over a lossy path")
	}
	if srv.NAKsReceived == 0 || srv.Resent == 0 {
		t.Fatalf("server NAK counters: %d %d", srv.NAKsReceived, srv.Resent)
	}
	// Recovery keeps the frame rate near the encoded ladder.
	if fps := p.AchievedFPS(); fps < p.Meta().FrameRate-3 {
		t.Fatalf("fps=%v despite recovery", fps)
	}
}

func TestUnknownClip404(t *testing.T) {
	n, c, _ := testbed(t, 40, 900e3, 0)
	var done bool
	p := NewPlayer(c, serverAddr, "ghost", 5001, 5002, PlayerEvents{
		Done: func(eventsim.Time) { done = true },
	})
	p.Start()
	n.Run(eventsim.At(30))
	if !done || p.State() != Done {
		t.Fatal("player did not abort on 404")
	}
}

func TestHandshakeSurvivesControlLoss(t *testing.T) {
	clip, _ := media.FindClip(2, media.Real, media.Low)
	n, c, srv := testbed(t, 41, 900e3, 0.25)
	srv.Register(clip.Name(), clip)
	var reached State
	p := NewPlayer(c, serverAddr, clip.Name(), 5001, 5002, PlayerEvents{
		StateChange: func(_ eventsim.Time, s State) {
			if s > reached && s != Done {
				reached = s
			}
		},
	})
	p.Start()
	n.Run(eventsim.At(120))
	if reached < Buffering {
		t.Fatalf("handshake never survived loss: %v", reached)
	}
}

func TestServerBookkeeping(t *testing.T) {
	clip, _ := media.FindClip(3, media.Real, media.Low)
	p, _ := streamClip(t, clip, 42, 900e3)
	_ = p
}

func TestSessionTeardownFreesServer(t *testing.T) {
	clip, _ := media.FindClip(3, media.Real, media.Low)
	n, c, srv := testbed(t, 43, 900e3, 0)
	srv.Register(clip.Name(), clip)
	p := NewPlayer(c, serverAddr, clip.Name(), 5001, 5002, PlayerEvents{})
	p.Start()
	n.Run(eventsim.At(clip.Duration.Seconds() + 90))
	if srv.ActiveSessions() != 0 {
		t.Fatalf("sessions leaked: %d", srv.ActiveSessions())
	}
	if srv.Described != 1 || srv.Setup < 1 || srv.Played < 1 {
		t.Fatalf("counters: %+v", srv)
	}
}

func TestStateStrings(t *testing.T) {
	for _, s := range []State{Idle, Describing, SettingUp, Buffering, Playing, Done} {
		if s.String() == "" {
			t.Fatal("state string")
		}
	}
}

func TestDoubleStartPanics(t *testing.T) {
	n, c, srv := testbed(t, 44, 900e3, 0)
	clip, _ := media.FindClip(3, media.Real, media.Low)
	srv.Register(clip.Name(), clip)
	p := NewPlayer(c, serverAddr, clip.Name(), 5001, 5002, PlayerEvents{})
	p.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	p.Start()
	_ = n
}

func TestClipRefFromURL(t *testing.T) {
	if got := clipRefFromURL("rtsp://209.247.1.20/5/R-l"); got != "5/R-l" {
		t.Fatalf("ref=%q", got)
	}
	if got := clipRefFromURL("rtsp://host"); got != "host" {
		t.Fatalf("bare=%q", got)
	}
}
