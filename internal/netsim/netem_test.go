package netsim

import (
	"testing"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/netem"
)

// impairHop returns lanSpecs with the given impairment installed on hop
// index k.
func impairSpecs(hops int, bw float64, k int, im netem.Impairment) []HopSpec {
	specs := lanSpecs(hops, time.Millisecond, bw)
	specs[k].Impair = im
	return specs
}

func TestImpairedHopBurstyLoss(t *testing.T) {
	n := New(42)
	c := n.AddHost(clientAddr)
	s := n.AddHost(serverAddr)
	im := netem.Impairment{Loss: func() netem.LossModel { return netem.GEFromBurst(0.05, 8, 0.3) }}
	fwd, _ := n.ConnectDuplex(clientAddr, serverAddr, impairSpecs(3, 10e6, 1, im))
	s.BindUDP(7, func(eventsim.Time, inet.Endpoint, []byte) {})

	const sent = 20000
	for i := 0; i < sent; i++ {
		c.SendUDP(7, inet.Endpoint{Addr: serverAddr, Port: 7}, make([]byte, 200))
		n.Run(0)
	}
	st := fwd.Stats()
	if st.DroppedLoss == 0 {
		t.Fatal("bursty loss model dropped nothing")
	}
	rate := float64(st.DroppedLoss) / sent
	if rate < 0.02 || rate > 0.10 {
		t.Fatalf("loss rate %.3f, want ~0.05", rate)
	}
	if st.DroppedFull != 0 || st.DroppedAQM != 0 {
		t.Fatalf("unexpected queue drops: full=%d aqm=%d", st.DroppedFull, st.DroppedAQM)
	}
	// The breakdown is visible per hop, attributed to the impaired router.
	hs := fwd.HopStats()
	if hs[1].DroppedLoss != st.DroppedLoss {
		t.Fatalf("hop 1 loss %d, path loss %d", hs[1].DroppedLoss, st.DroppedLoss)
	}
	if hs[0].DroppedLoss != 0 || hs[2].DroppedLoss != 0 {
		t.Fatal("loss attributed to unimpaired hops")
	}
}

func TestAQMDropsCountedSeparately(t *testing.T) {
	n := New(7)
	c := n.AddHost(clientAddr)
	s := n.AddHost(serverAddr)
	// A slow hop with a small FIFO and aggressive RED: blasting packets at
	// it must produce early (AQM) drops distinct from overflow drops.
	im := netem.Impairment{Queue: func(limit int) netem.Queue {
		return netem.NewRED(2, float64(limit)/2, 0.5, 1)
	}}
	specs := impairSpecs(2, 10e6, 1, im)
	specs[0].QueueLen = 1000 // deep ingress FIFO so pressure lands on the RED hop
	specs[1].Bandwidth = 64e3
	specs[1].QueueLen = 20
	fwd, _ := n.ConnectDuplex(clientAddr, serverAddr, specs)
	s.BindUDP(7, func(eventsim.Time, inet.Endpoint, []byte) {})

	for i := 0; i < 400; i++ {
		c.SendUDP(7, inet.Endpoint{Addr: serverAddr, Port: 7}, make([]byte, 500))
	}
	n.Run(0)
	st := fwd.Stats()
	if st.DroppedAQM == 0 {
		t.Fatalf("RED produced no early drops: %+v", st)
	}
	if st.DroppedLoss != 0 {
		t.Fatalf("queue pressure misattributed to link loss: %+v", st)
	}
	if st.Forwarded == 0 {
		t.Fatal("nothing forwarded")
	}
}

func TestBandwidthProfileGovernsSerialization(t *testing.T) {
	n := New(1)
	c := n.AddHost(clientAddr)
	s := n.AddHost(serverAddr)
	// Derate hop 0 to half its nominal rate via a profile; delivery time
	// must match serialization at the derated rate exactly.
	im := netem.Impairment{Bandwidth: netem.Scaled(0.5)}
	n.ConnectDuplex(clientAddr, serverAddr, impairSpecs(4, 10e6, 0, im))
	var deliveredAt eventsim.Time
	s.BindUDP(1, func(now eventsim.Time, _ inet.Endpoint, _ []byte) { deliveredAt = now })
	c.SendUDP(2, inet.Endpoint{Addr: serverAddr, Port: 1}, make([]byte, 972)) // 1014B wire
	n.Run(0)
	want := eventsim.Time(4*time.Millisecond +
		transmissionDelay(1014, 5e6) + 3*transmissionDelay(1014, 10e6))
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

// steadyCross is a deterministic always-on background source for exact
// latency assertions.
type steadyCross float64

func (r steadyCross) BitsBetween(_ *eventsim.RNG, from, to eventsim.Time) float64 {
	return float64(r) * to.Sub(from).Seconds()
}

func TestCrossTrafficConsumesCapacity(t *testing.T) {
	n := New(1)
	c := n.AddHost(clientAddr)
	s := n.AddHost(serverAddr)
	// 5 Mbps of steady background on a 10 Mbps hop: once the fluid state
	// is primed, foreground packets serialise at the residual 5 Mbps.
	im := netem.Impairment{Cross: func() netem.CrossTraffic { return steadyCross(5e6) }}
	n.ConnectDuplex(clientAddr, serverAddr, impairSpecs(2, 10e6, 0, im))
	var arrivals []eventsim.Time
	s.BindUDP(1, func(now eventsim.Time, _ inet.Endpoint, _ []byte) {
		arrivals = append(arrivals, now)
	})
	dst := inet.Endpoint{Addr: serverAddr, Port: 1}
	c.SendUDP(2, dst, make([]byte, 972)) // primes the cross integrator, full rate
	n.Run(0)
	c.SendUDP(2, dst, make([]byte, 972)) // sees the 50% load
	n.Run(0)
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	base := eventsim.Time(2*time.Millisecond + 2*transmissionDelay(1014, 10e6))
	if arrivals[0] != base {
		t.Fatalf("first packet at %v, want unimpaired %v", arrivals[0], base)
	}
	slowed := arrivals[1].Sub(arrivals[0])
	want := time.Duration(base) + transmissionDelay(1014, 5e6) - transmissionDelay(1014, 10e6)
	if slowed != want {
		t.Fatalf("second packet took %v, want %v", slowed, want)
	}
}

// TestForwardSteadyStateAllocFree pins the acceptance requirement that
// steady-state forwarding stays allocation-free under full impairment:
// bursty loss, a time-varying bandwidth profile, trunc-normal jitter, RED
// and two cross-traffic models, all active on every hop. The destination
// host is deliberately unregistered so the measurement isolates the
// forwarding path from delivery/reassembly.
func TestForwardSteadyStateAllocFree(t *testing.T) {
	n := New(99)
	c := n.AddHost(clientAddr)
	im := netem.Impairment{
		Loss:      func() netem.LossModel { return netem.GEFromBurst(0.01, 8, 0.3) },
		Bandwidth: netem.ScaledSinusoid(0.9, 0.3, 10*time.Second),
		Jitter: func() netem.DelayJitter {
			return netem.TruncNormal{Mean: time.Millisecond, StdDev: time.Millisecond, Max: 5 * time.Millisecond}
		},
		Queue: func(limit int) netem.Queue {
			return netem.NewRED(float64(limit)/10, float64(limit)/2, 0.1, 0.02)
		},
		Cross: func() netem.CrossTraffic {
			return &netem.ParetoOnOff{Sources: 4, Rate: 1e6, Alpha: 1.5,
				OnMean: time.Second, OffMean: 3 * time.Second}
		},
	}
	specs := lanSpecs(6, 100*time.Microsecond, 10e6)
	for i := range specs {
		specs[i].Impair = im
	}
	n.connect(clientAddr, serverAddr, specs)

	d, err := inet.BuildUDP(inet.Endpoint{Addr: clientAddr, Port: 2},
		inet.Endpoint{Addr: serverAddr, Port: 1}, 1, make([]byte, 500))
	if err != nil {
		t.Fatal(err)
	}
	send := func() {
		d.Header.TTL = inet.DefaultTTL
		n.send(d, n.Now())
		n.Run(0)
	}
	// Warm the event, transit and cross-traffic state pools.
	for i := 0; i < 200; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(500, send); allocs > 0 {
		t.Fatalf("impaired forwarding allocates %.2f allocs/packet, want 0", allocs)
	}
	_ = c

	// A saturated bottleneck: offered load runs at twice its rate for
	// more than 10 × queueCap packets, so its departure ring stays full
	// and drop-tail sheds the excess. Once the warm-up has grown the ring
	// to queueCap, forwarding must not allocate, and the ring must not
	// grow past queueCap.
	const limit = 20 // not a power of two: the ring's doubling must stop at queueCap
	sat := lanSpecs(3, 100*time.Microsecond, 10e6)
	sat[1].Bandwidth = 1e6
	sat[1].QueueLen = limit
	p := n.connect(clientAddr, inet.MakeAddr(10, 9, 9, 9), sat)
	bottleneck := p.hops[1]
	train := make([]*inet.Datagram, 4*limit) // recycled long after each leaves
	for i := range train {
		if train[i], err = inet.BuildUDP(inet.Endpoint{Addr: clientAddr, Port: 2},
			inet.Endpoint{Addr: inet.MakeAddr(10, 9, 9, 9), Port: 1}, uint16(i), make([]byte, 500)); err != nil {
			t.Fatal(err)
		}
	}
	gap := transmissionDelay(train[0].WireLen(), 2e6) // half the bottleneck's service time
	next := 0
	offer := func() {
		d := train[next%len(train)]
		next++
		d.Header.TTL = inet.DefaultTTL
		n.send(d, n.Now())
		if err := n.Run(n.Now().Add(gap)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*limit; i++ {
		offer()
	}
	if q := bottleneck.backlog(n.Sched); q != limit {
		t.Fatalf("bottleneck backlog %d after warm-up, want a full queue of %d", q, limit)
	}
	full := bottleneck.DroppedFull
	if allocs := testing.AllocsPerRun(10*limit, offer); allocs > 0 {
		t.Fatalf("saturated forwarding allocates %.2f allocs/packet, want 0", allocs)
	}
	if bottleneck.DroppedFull-full < 4*limit {
		t.Fatalf("only %d drop-tail drops over %d offered packets: the bottleneck was not saturated",
			bottleneck.DroppedFull-full, 10*limit+1)
	}
	if len(bottleneck.fifo) != limit || cap(bottleneck.fifo) != limit {
		t.Fatalf("departure ring len %d cap %d, want exactly queueCap %d",
			len(bottleneck.fifo), cap(bottleneck.fifo), limit)
	}
}

// TestDuplexBuildsPrivateModels ensures forward and reverse hops never
// share stateful model instances.
func TestDuplexBuildsPrivateModels(t *testing.T) {
	n := New(1)
	n.AddHost(clientAddr)
	n.AddHost(serverAddr)
	built := 0
	im := netem.Impairment{Loss: func() netem.LossModel {
		built++
		return netem.GEFromBurst(0.01, 4, 0.2)
	}}
	fwd, rev := n.ConnectDuplex(clientAddr, serverAddr, impairSpecs(3, 10e6, 1, im))
	if built != 2 {
		t.Fatalf("loss factory invoked %d times, want 2 (one per direction)", built)
	}
	if fwd.hops[1].models.Loss == rev.hops[1].models.Loss {
		t.Fatal("duplex directions share a loss model instance")
	}
}
