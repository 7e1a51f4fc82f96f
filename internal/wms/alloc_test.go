package wms

import (
	"testing"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/media"
	"turbulence/internal/racecheck"
	"turbulence/internal/transport"
)

// dataSink passes a transport through until armed, then swallows the
// server's data-channel sends, so a measurement covers the stack's own
// per-unit work and nothing below the UDP send call.
type dataSink struct {
	transport.Transport
	armed bool
	sent  int
}

func (d *dataSink) SendUDP(src inet.Port, dst inet.Endpoint, payload []byte) (int, error) {
	if d.armed && src == inet.PortMMSData {
		d.sent++
		return 1, nil
	}
	return d.Transport.SendUDP(src, dst, payload)
}

// TestSendPathAllocFree pins the server's per-unit send path — cut
// segments, frame the data header and encode the segment list straight
// into the session's reused unit buffer — at 0 allocations per data unit.
func TestSendPathAllocFree(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation pins are unreliable under -race")
	}
	n, c, _ := testbed(t, 5)
	sink := &dataSink{Transport: n.Host(serverAddr)}
	srv := NewServer(sink)
	clip, _ := media.FindClip(1, media.WindowsMedia, media.High)
	srv.Register(clip.Name(), clip)
	p := NewPlayer(c, serverAddr, clip.Name(), 4001, 4002, PlayerEvents{})
	p.Start()
	if err := n.Run(eventsim.At(5)); err != nil {
		t.Fatal(err)
	}
	if len(srv.sessions) != 1 {
		t.Fatalf("%d sessions after 5s, want 1", len(srv.sessions))
	}
	var sess *session
	for _, s := range srv.sessions {
		sess = s
	}
	sink.armed = true
	send := func() {
		if !sess.sendUnit(n.Now()) {
			t.Fatal("clip ran out during the measurement")
		}
	}
	send() // grow the unit buffer to the unit size
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("wms send path allocates %.2f times per unit, want 0", allocs)
	}
	if sink.sent != 202 {
		t.Fatalf("%d units reached the transport, want 202", sink.sent)
	}
}
