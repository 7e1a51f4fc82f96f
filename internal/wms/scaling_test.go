package wms

import (
	"testing"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/media"
	"turbulence/internal/netsim"
	"turbulence/internal/transport"
)

// constrainedTestbed builds a path whose bottleneck sits below the clip's
// encoding rate, forcing sustained loss without scaling.
func constrainedTestbed(t *testing.T, seed int64, bottleneck float64) (*netsim.Network, *netsim.Host, *Server) {
	t.Helper()
	n := netsim.New(seed)
	c := n.AddHost(clientAddr)
	s := n.AddHost(serverAddr)
	specs := []netsim.HopSpec{
		{Addr: inet.MakeAddr(10, 9, 0, 1), Bandwidth: 10e6, PropDelay: 2 * time.Millisecond},
		{Addr: inet.MakeAddr(10, 9, 0, 2), Bandwidth: bottleneck, PropDelay: 5 * time.Millisecond, QueueLen: 20},
		{Addr: inet.MakeAddr(10, 9, 0, 3), Bandwidth: 45e6, PropDelay: 2 * time.Millisecond},
	}
	n.ConnectDuplex(clientAddr, serverAddr, specs)
	return n, c, NewServer(transport.NewSim(s))
}

func runConstrained(t *testing.T, seed int64, scalingOn bool) *Player {
	t.Helper()
	clip, _ := media.FindClip(1, media.WindowsMedia, media.High) // 323.1 Kbps
	n, c, srv := constrainedTestbed(t, seed, 250e3)              // starved
	srv.Register(clip.Name(), clip)
	srv.EnableScaling(scalingOn)
	p := NewPlayer(transport.NewSim(c), serverAddr, clip.Name(), 4001, 4002, PlayerEvents{})
	p.Start()
	n.Run(eventsim.At(clip.Duration.Seconds() + 60))
	return p
}

func TestScalingReducesLoss(t *testing.T) {
	unscaled := runConstrained(t, 71, false)
	scaled := runConstrained(t, 71, true)
	if unscaled.LossRate() < 0.10 {
		t.Fatalf("unscaled loss=%.2f; bottleneck not binding", unscaled.LossRate())
	}
	if scaled.LossRate() >= unscaled.LossRate()/2 {
		t.Fatalf("scaling did not help: %.2f vs %.2f", scaled.LossRate(), unscaled.LossRate())
	}
}

func TestScalingTradesFrameRate(t *testing.T) {
	scaled := runConstrained(t, 72, true)
	// Thinning sends fewer frames than the encoded ladder.
	if scaled.AchievedFPS() >= 25 {
		t.Fatalf("scaled fps=%v, expected thinning below 25", scaled.AchievedFPS())
	}
	if scaled.AchievedFPS() < 2 {
		t.Fatalf("scaled fps=%v, thinning should retain keyframes at least", scaled.AchievedFPS())
	}
}

func TestScalingServerCountsSteps(t *testing.T) {
	clip, _ := media.FindClip(1, media.WindowsMedia, media.High)
	n, c, srv := constrainedTestbed(t, 73, 250e3)
	srv.Register(clip.Name(), clip)
	srv.EnableScaling(true)
	p := NewPlayer(transport.NewSim(c), serverAddr, clip.Name(), 4001, 4002, PlayerEvents{})
	p.Start()
	n.Run(eventsim.At(60))
	if srv.ThinSteps == 0 {
		t.Fatal("server never thinned under sustained loss")
	}
}

func TestScalingOffByDefault(t *testing.T) {
	clip, _ := media.FindClip(1, media.WindowsMedia, media.High)
	n, c, srv := constrainedTestbed(t, 74, 250e3)
	srv.Register(clip.Name(), clip)
	p := NewPlayer(transport.NewSim(c), serverAddr, clip.Name(), 4001, 4002, PlayerEvents{})
	p.Start()
	n.Run(eventsim.At(60))
	if srv.ThinSteps != 0 {
		t.Fatal("scaling engaged despite being disabled")
	}
}

func TestFeedbackRoundTrip(t *testing.T) {
	fb, err := ParseFeedback(MarshalFeedback(Feedback{LossPermille: 123}))
	if err != nil || fb.LossPermille != 123 {
		t.Fatalf("feedback: %+v %v", fb, err)
	}
	if _, err := ParseFeedback([]byte{MsgFeedback}); err == nil {
		t.Fatal("short feedback accepted")
	}
	if _, err := ParseFeedback([]byte{MsgData, 0, 0}); err == nil {
		t.Fatal("wrong type accepted")
	}
}

// TestScalingDoesNotDisturbCleanPaths guards the faithful reproduction:
// with scaling enabled but no loss, behaviour is identical to baseline.
func TestScalingDoesNotDisturbCleanPaths(t *testing.T) {
	clip, _ := media.FindClip(3, media.WindowsMedia, media.Low)
	run := func(scalingOn bool) *Player {
		n, c, srv := testbed(t, 75)
		srv.Register(clip.Name(), clip)
		srv.EnableScaling(scalingOn)
		p := NewPlayer(transport.NewSim(c), serverAddr, clip.Name(), 4001, 4002, PlayerEvents{})
		p.Start()
		n.Run(eventsim.At(clip.Duration.Seconds() + 60))
		return p
	}
	a, b := run(false), run(true)
	if a.FramesPlayed != b.FramesPlayed || a.UnitsReceived != b.UnitsReceived {
		t.Fatalf("clean-path divergence: frames %d vs %d, units %d vs %d",
			a.FramesPlayed, b.FramesPlayed, a.UnitsReceived, b.UnitsReceived)
	}
}
