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

// ctlTap passes the player's transport through until armed, then hands
// each control request the player sends to deliver instead of the
// network (a nil deliver swallows it), so one measurement covers a
// request's encoding and, when delivered, the server's handling of it,
// with no network in between.
type ctlTap struct {
	transport.Transport
	armed   bool
	deliver func(payload []byte)
}

func (c *ctlTap) SendUDP(src inet.Port, dst inet.Endpoint, payload []byte) (int, error) {
	if !c.armed || dst.Port != inet.PortRTSPCtl {
		return c.Transport.SendUDP(src, dst, payload)
	}
	if c.deliver != nil {
		c.deliver(payload)
	}
	return 1, nil
}

// streamingSession streams clip 6/very-high for five simulated seconds
// and returns the streaming player, its server and the server's session,
// with both taps armed: the server's data sends are swallowed, the
// player's control requests go to tap.deliver.
func streamingSession(t *testing.T) (*Player, *Server, *session, *dataSink, *ctlTap) {
	t.Helper()
	n, c, _ := testbed(t, 5, 10e6, 0)
	sink := &dataSink{Transport: n.Host(serverAddr)}
	srv := NewServer(sink)
	clip, _ := media.FindClip(6, media.Real, media.VeryHigh)
	srv.Register(clip.Name(), clip)
	tap := &ctlTap{Transport: c}
	p := NewPlayer(tap, serverAddr, clip.Name(), 5001, 5002, PlayerEvents{})
	p.Start()
	if err := n.Run(eventsim.At(5)); err != nil {
		t.Fatal(err)
	}
	if len(srv.sessions) != 1 || (p.State() != Buffering && p.State() != Playing) {
		t.Fatalf("after 5s: %d sessions, player %v; want 1 streaming session", len(srv.sessions), p.State())
	}
	var sess *session
	for _, s := range srv.sessions {
		sess = s
	}
	if sess.seq < 64 {
		t.Fatalf("server sent %d packets in 5s, want ≥ 64", sess.seq)
	}
	sink.armed, tap.armed = true, true
	return p, srv, sess, sink, tap
}

// TestSendPathAllocFree pins the server's per-packet send path — cut
// segments, frame the data header, encode the segment list straight into
// a recycled resend-window buffer, retain it for NAKs, schedule the next
// send — at 0 allocations per packet once the resend window has filled.
func TestSendPathAllocFree(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation pins are unreliable under -race")
	}
	_, _, sess, sink, _ := streamingSession(t)
	send := func() {
		sess.sendNext(sink.Now())
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

// TestHandleNAKAllocFree pins the server's retransmission path — decode
// the Seqs list into reused scratch, copy each packet from the resend
// window, mark it FlagRetrans and send it — at 0 allocations for a
// 64-seq NAK, so 0 per retransmitted packet.
func TestHandleNAKAllocFree(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation pins are unreliable under -race")
	}
	_, srv, sess, _, _ := streamingSession(t)
	seqs := make([]uint32, 64)
	for i := range seqs {
		seqs[i] = sess.seq - 64 + uint32(i)
	}
	req := Request{Method: MethodNAK, Headers: map[string]string{"Seqs": FormatSeqList(seqs)}}
	before := srv.Resent
	allocs := testing.AllocsPerRun(100, func() { srv.handleNAK(sess.ctl, req) })
	if allocs != 0 {
		t.Fatalf("handleNAK of %d seqs allocates %.2f times, want 0", len(seqs), allocs)
	}
	if got, want := srv.Resent-before, 101*len(seqs); got != want {
		t.Fatalf("retransmitted %d packets, want %d", got, want)
	}
}

// TestNAKRoundAllocsFlat pins a whole NAK round — the player's timer
// firing (collect, sort and encode the missing seqs), then the server
// parsing the request and retransmitting every listed packet — at the
// same allocation count whether one seq or 64 are missing: the round's
// cost does not grow with the loss it repairs. The gap is forced by
// marking the session's latest packets missing at the player, as gap
// detection does.
func TestNAKRoundAllocsFlat(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation pins are unreliable under -race")
	}
	round := func(missing int) float64 {
		p, srv, sess, _, tap := streamingSession(t)
		tap.deliver = func(payload []byte) { srv.onControl(p.host.Now(), sess.ctl, payload) }
		for i := 1; i <= missing; i++ {
			p.missing[sess.seq-uint32(i)] = true
		}
		before := srv.Resent
		allocs := testing.AllocsPerRun(100, p.sendNAK)
		if got, want := srv.Resent-before, 101*missing; got != want {
			t.Fatalf("%d missing: retransmitted %d packets, want %d", missing, got, want)
		}
		return allocs
	}
	one, many := round(1), round(64)
	if one != many {
		t.Fatalf("a NAK round allocates %.2f times for 1 missing seq but %.2f for 64, want the same", one, many)
	}
	// The one allocation is the server's string form of the request.
	if many > 1 {
		t.Fatalf("a NAK round allocates %.2f times, want ≤ 1", many)
	}
}

// TestReportTickAllocFree pins the player's reception-report tick —
// compute the interval's loss and encode the REPORT into reused scratch —
// at 0 allocations.
func TestReportTickAllocFree(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation pins are unreliable under -race")
	}
	p, _, _, _, _ := streamingSession(t)
	if allocs := testing.AllocsPerRun(100, func() { p.report(p.host.Now()) }); allocs != 0 {
		t.Fatalf("REPORT tick allocates %.2f times, want 0", allocs)
	}
}

// TestUsePacketPoolSharesBuffers pins the packet-buffer ownership rules: a
// server owns its list until UsePacketPool hands it a shared one, which
// takes over the buffers already free, and every later send and recycle
// goes through the shared list.
func TestUsePacketPoolSharesBuffers(t *testing.T) {
	_, srv, _, _, _ := streamingSession(t)
	srv.Reset() // the session's resend window returns to the server's own list
	own := srv.pkts.Len()
	if own == 0 {
		t.Fatal("reset returned no packet buffers to the server's list")
	}
	shared := &PacketPool{}
	srv.UsePacketPool(shared)
	if shared.Len() != own || srv.pkts != shared {
		t.Fatalf("shared pool holds %d buffers, want the server's %d", shared.Len(), own)
	}
	other := NewServer(srv.Host())
	if other.pkts == shared || other.pkts.Len() != 0 {
		t.Fatal("a new server does not start with its own empty list")
	}
}
