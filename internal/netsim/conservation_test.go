package netsim

import (
	"math/rand"
	"testing"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/netem"
)

// scenarioSpecs lays a path out the way the testbed does — access hop
// first, server-side bottleneck last, backbone between — with the
// scenario's impairment on each hop by role. The backbone runs at 8 Mbps.
func scenarioSpecs(sc *netem.Scenario, hops int) []HopSpec {
	specs := make([]HopSpec, hops)
	for i := range specs {
		role, bw := netem.RoleBackbone, 8e6
		switch i {
		case 0:
			role, bw = netem.RoleAccess, 10e6
		case hops - 1:
			role, bw = netem.RoleBottleneck, 1.5e6
		}
		specs[i] = HopSpec{
			Addr:      inet.MakeAddr(10, 0, 2, byte(i+1)),
			Bandwidth: bw,
			PropDelay: 2 * time.Millisecond,
			JitterMax: time.Millisecond,
			Loss:      0.001,
			Impair:    sc.Impair(role, i, hops),
		}
	}
	return specs
}

// checkConservation asserts, for one path run to idle, that every datagram
// the source put on the wire is accounted for hop by hop: what hop i
// forwarded, hop i+1 forwarded or dropped by exactly one cause, and what
// the last hop forwarded reached the destination. Nothing is left queued.
func checkConservation(t *testing.T, dir string, p *Path, sent, delivered uint64) {
	t.Helper()
	hs := p.HopStats()
	lost := func(h HopCounters) uint64 { return h.DroppedLoss + h.DroppedFull + h.DroppedAQM + h.TTLExpired }
	if in := hs[0].Forwarded + lost(hs[0]); in != sent {
		t.Errorf("%s: hop 0 accounts for %d datagrams, the source sent %d", dir, in, sent)
	}
	for i := 0; i+1 < len(hs); i++ {
		if out, in := hs[i].Forwarded, hs[i+1].Forwarded+lost(hs[i+1]); out != in {
			t.Errorf("%s: hop %d forwarded %d, hop %d accounts for %d (%+v)", dir, i, out, i+1, in, hs[i+1].PathStats)
		}
	}
	if last := hs[len(hs)-1].Forwarded; last != delivered {
		t.Errorf("%s: last hop forwarded %d, the destination received %d", dir, last, delivered)
	}
	if q := p.Stats().Queued; q != 0 {
		t.Errorf("%s: %d datagrams still queued after the network went idle", dir, q)
	}
}

// TestHopConservationAcrossScenarios runs every named netem scenario to
// idle with a media stream offered above the bottleneck rate in one
// direction and traceroute-style TTL-limited pings in the other, then
// checks packet conservation on both paths and wire-buffer conservation
// in the network's pool. The backbone is thinner than the testbed's so
// that congested-peering's cross traffic fills its RED hop: across the
// scenarios, every drop cause occurs, and so do reassembly timeouts.
func TestHopConservationAcrossScenarios(t *testing.T) {
	const hops = 10
	var all PathStats
	var timeouts uint64
	for _, sc := range netem.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			n := New(2002)
			c := n.AddHost(clientAddr)
			s := n.AddHost(serverAddr)
			up, down := n.ConnectDuplex(clientAddr, serverAddr, scenarioSpecs(sc, hops))
			c.BindUDP(2, func(eventsim.Time, inet.Endpoint, []byte) {})
			var timeExceeded uint64
			c.OnICMP(func(_ eventsim.Time, _ inet.Addr, m inet.ICMPMessage) {
				if m.Type == inet.ICMPTimeExceeded {
					timeExceeded++
				}
			})

			rng := rand.New(rand.NewSource(7))
			payload := make([]byte, 4000)
			end := eventsim.Time(60 * time.Second)
			var seq uint16
			var tick func(now eventsim.Time)
			tick = func(now eventsim.Time) {
				// ~1.8 Mbps of mixed single-frame and fragmented units.
				s.SendUDP(1, inet.Endpoint{Addr: clientAddr, Port: 2}, payload[:200+rng.Intn(3800)])
				seq++
				c.SendICMP(serverAddr, byte(1+int(seq)%(hops+2)), inet.ICMPMessage{
					Type: inet.ICMPEchoRequest, ID: 9, Seq: seq, Payload: payload[:32]})
				if now < end {
					n.Sched.After(10*time.Millisecond, "test.stream", tick)
				}
			}
			n.Sched.At(0, "test.stream", tick)
			if err := n.Run(0); err != nil {
				t.Fatal(err)
			}

			checkConservation(t, "downlink", down, s.SentDatagrams, c.ReceivedDatagrams-timeExceeded)
			checkConservation(t, "uplink", up, c.SentDatagrams, s.ReceivedDatagrams)
			ds, us := down.Stats(), up.Stats()
			if ds.Forwarded == 0 || ds.Dropped() == 0 || us.TTLExpired == 0 {
				t.Fatalf("traffic exercised too little: downlink %+v, uplink %+v", ds, us)
			}
			all.Add(ds)
			all.Add(us)
			// Trains that lost a fragment were abandoned by the reassembly
			// timeout during the run, or are released now: either way,
			// every wire buffer comes back.
			timeouts += c.ReassemblyTimeouts
			n.ReleaseFragments()
			if pc := n.pool.Census(); pc.FreeBufs != pc.Bufs || pc.FreeDatagrams != pc.Datagrams {
				t.Errorf("wire-buffer pool census %+v after release, want every buffer and datagram free", pc)
			}
		})
	}
	if all.DroppedLoss == 0 || all.DroppedFull == 0 || all.DroppedAQM == 0 || all.TTLExpired == 0 {
		t.Fatalf("some drop cause never occurred across the scenarios: %+v", all)
	}
	if timeouts == 0 {
		t.Fatal("no fragment train timed out across the scenarios")
	}
}

// TestQueuedReadsTheRing pins Queued as a live reading: mid-run, with a
// burst still serialising at the bottleneck, it counts exactly the
// datagrams not yet departed.
func TestQueuedReadsTheRing(t *testing.T) {
	n := New(1)
	c := n.AddHost(clientAddr)
	n.AddHost(serverAddr)
	specs := lanSpecs(2, time.Millisecond, 10e6)
	specs[1].Bandwidth = 1e6
	fwd, _ := n.ConnectDuplex(clientAddr, serverAddr, specs)
	for i := 0; i < 10; i++ {
		c.SendUDP(2, inet.Endpoint{Addr: serverAddr, Port: 1}, make([]byte, 972)) // 1014B wire
	}
	// All ten clear hop 0 by 10 × 0.81ms + 1ms; the bottleneck then needs
	// 8.1ms per datagram. At 40ms, the first four have departed it.
	if err := n.Run(eventsim.Time(40 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	hs := fwd.HopStats()
	if hs[0].Queued != 0 || hs[1].Queued != 6 || fwd.Stats().Queued != 6 {
		t.Fatalf("queued hop0=%d hop1=%d path=%d, want 0/6/6", hs[0].Queued, hs[1].Queued, fwd.Stats().Queued)
	}
	if err := n.Run(0); err != nil {
		t.Fatal(err)
	}
	if q := fwd.Stats().Queued; q != 0 {
		t.Fatalf("queued %d after idle", q)
	}
}
