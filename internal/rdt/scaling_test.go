package rdt

import (
	"testing"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/media"
	"turbulence/internal/netsim"
)

// starvedTestbed builds a path whose bottleneck sits below the clip's
// encoding rate.
func starvedTestbed(t *testing.T, seed int64, bottleneck float64) (*netsim.Network, *netsim.Host, *Server) {
	t.Helper()
	n := netsim.New(seed)
	c := n.AddHost(clientAddr)
	s := n.AddHost(serverAddr)
	specs := []netsim.HopSpec{
		{Addr: inet.MakeAddr(10, 8, 0, 1), Bandwidth: 10e6, PropDelay: 2 * time.Millisecond},
		{Addr: inet.MakeAddr(10, 8, 0, 2), Bandwidth: bottleneck, PropDelay: 5 * time.Millisecond, QueueLen: 20},
		{Addr: inet.MakeAddr(10, 8, 0, 3), Bandwidth: 45e6, PropDelay: 2 * time.Millisecond},
	}
	n.ConnectDuplex(clientAddr, serverAddr, specs)
	return n, c, NewServer(s)
}

func runStarved(t *testing.T, seed int64, scalingOn bool) (*Player, *Server) {
	t.Helper()
	clip, _ := media.FindClip(1, media.Real, media.High) // 284 Kbps
	n, c, srv := starvedTestbed(t, seed, 230e3)
	srv.Register(clip.Name(), clip)
	srv.EnableScaling(scalingOn)
	var done bool
	p := NewPlayer(c, serverAddr, clip.Name(), 5001, 5002, PlayerEvents{
		Done: func(eventsim.Time) { done = true },
	})
	p.Start()
	n.Run(eventsim.At(clip.Duration.Seconds() + 120))
	_ = done
	return p, srv
}

func TestScalingReducesRealLoss(t *testing.T) {
	unscaled, _ := runStarved(t, 81, false)
	scaled, srv := runStarved(t, 81, true)
	// Without scaling the starved path loses packets faster than NAK can
	// recover; with scaling the server backs off.
	if unscaled.PacketsLost == 0 {
		t.Fatal("bottleneck not binding for the unscaled run")
	}
	if scaled.PacketsLost >= unscaled.PacketsLost {
		t.Fatalf("scaling did not reduce loss: %d vs %d", scaled.PacketsLost, unscaled.PacketsLost)
	}
	if srv.ThinSteps == 0 {
		t.Fatal("server never thinned")
	}
}

func TestScalingPreservesCleanRuns(t *testing.T) {
	clip, _ := media.FindClip(3, media.Real, media.Low)
	run := func(on bool) *Player {
		n, c, srv := testbed(t, 82, 900e3, 0)
		srv.Register(clip.Name(), clip)
		srv.EnableScaling(on)
		p := NewPlayer(c, serverAddr, clip.Name(), 5001, 5002, PlayerEvents{})
		p.Start()
		n.Run(eventsim.At(clip.Duration.Seconds() + 90))
		return p
	}
	a, b := run(false), run(true)
	if a.FramesPlayed != b.FramesPlayed {
		t.Fatalf("clean-path divergence: %d vs %d frames", a.FramesPlayed, b.FramesPlayed)
	}
}

func TestReportMethodIgnoredWhenDisabled(t *testing.T) {
	_, srv := runStarved(t, 83, false)
	if srv.ThinSteps != 0 {
		t.Fatal("scaling engaged while disabled")
	}
}
