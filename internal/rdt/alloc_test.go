package rdt

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
// per-packet work and nothing below the UDP send call.
type dataSink struct {
	transport.Transport
	armed bool
	sent  int
}

func (d *dataSink) SendUDP(src inet.Port, dst inet.Endpoint, payload []byte) (int, error) {
	if d.armed && src == inet.PortRDTData {
		d.sent++
		return 1, nil
	}
	return d.Transport.SendUDP(src, dst, payload)
}

// TestSendPathAllocFree pins the server's per-packet send path — cut
// segments, frame the data header, encode the segment list straight into
// a recycled resend-window buffer, retain it for NAKs, schedule the next
// send — at 0 allocations per packet once the resend window has filled.
func TestSendPathAllocFree(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation pins are unreliable under -race")
	}
	n, c, _ := testbed(t, 5, 10e6, 0)
	sink := &dataSink{Transport: transport.NewSim(n.Host(serverAddr))}
	srv := NewServerOn(sink)
	clip, _ := media.FindClip(6, media.Real, media.VeryHigh)
	srv.Register(clip.Name(), clip)
	p := NewPlayer(c, serverAddr, clip.Name(), 5001, 5002, PlayerEvents{})
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
		sess.sendNext(n.Now())
		sink.Cancel(sess.nextSend)
	}
	for i := 0; i < ResendWindow; i++ {
		send() // fill the resend window, so evictions start recycling buffers
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("rdt send path allocates %.2f times per packet, want 0", allocs)
	}
	if sess.done || sink.sent < ResendWindow+200 {
		t.Fatalf("clip ran out during the measurement (done=%t, sent=%d)", sess.done, sink.sent)
	}
}
