package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/netem"
)

// eventOracle forwards datagrams the way netsim did before hop queue depth
// came from departure rings: each hop keeps a counter, admission increments
// it, and a real "hop.dequeue" event scheduled at the departure decrements
// it. The oracle also feeds the production ring, so at every forward it can
// check the ring's lazily retired backlog against the counter the events
// kept.
type eventOracle struct {
	t      *testing.T
	n      *Network
	queued map[*hopState]int

	stepFn, dequeueFn func(eventsim.Time, any)

	forwards, busy int // forwards checked; of those, with a non-empty queue
	tiesPassed     int // queued departures due now that had already fired
	tiesPending    int // queued departures due now that had not
}

func newEventOracle(t *testing.T, n *Network) *eventOracle {
	o := &eventOracle{t: t, n: n, queued: make(map[*hopState]int)}
	o.stepFn = func(now eventsim.Time, arg any) { o.forward(arg.(*transit), now) }
	o.dequeueFn = func(_ eventsim.Time, arg any) { o.queued[arg.(*hopState)]-- }
	return o
}

func (o *eventOracle) send(d *inet.Datagram, now eventsim.Time) {
	n := o.n
	o.forward(n.newTransit(n.paths[route{d.Header.Src, d.Header.Dst}], d), now)
}

// forward is Network.forward as it was, plus the ring cross-check.
func (o *eventOracle) forward(t *transit, now eventsim.Time) {
	n := o.n
	p, i, d := t.p, t.hop, t.d
	hop := p.hops[i]
	o.observeTies(hop, now)
	queued := o.queued[hop]
	if got := hop.backlog(n.Sched); got != queued {
		o.t.Fatalf("hop %d at %v: ring backlog %d, dequeue events leave %d queued", i, now, got, queued)
	}
	o.forwards++
	if queued > 0 {
		o.busy++
	}
	if hop.dropByLoss(n.rng) {
		hop.DroppedLoss++
		d.Release()
		n.releaseTransit(t)
		return
	}
	if queued >= hop.queueCap() {
		hop.DroppedFull++
		d.Release()
		n.releaseTransit(t)
		return
	}
	if !hop.admit(n.rng, queued) {
		hop.DroppedAQM++
		d.Release()
		n.releaseTransit(t)
		return
	}
	if d.Header.TTL <= 1 {
		hop.TTLExpired++
		n.returnTimeExceeded(p, i, d, now)
		d.Release()
		n.releaseTransit(t)
		return
	}
	d.Header.TTL--
	if hop.spec.Corrupt > 0 && len(d.Payload) > 0 && n.rng.Bernoulli(hop.spec.Corrupt) {
		d.Payload[n.rng.Intn(len(d.Payload))] ^= 1 << n.rng.Intn(8)
	}

	o.queued[hop]++
	ser := transmissionDelay(d.WireLen(), hop.bandwidthAt(n.rng, now))
	start := now
	if hop.busyUntil > start {
		start = hop.busyUntil
	}
	departure := start.Add(ser)
	hop.busyUntil = departure
	hop.enqueue(departure, n.Sched.Scheduled()) // the stamp the event below gets
	n.Sched.AtArg(departure, "hop.dequeue", o.dequeueFn, hop)

	delay := hop.spec.PropDelay + hop.drawJitter(n.rng)
	arrival := departure.Add(delay)
	if arrival < hop.lastExit {
		arrival = hop.lastExit
	}
	hop.lastExit = arrival
	hop.Forwarded++

	if i == len(p.hops)-1 {
		n.Sched.AtArg(arrival, "host.deliver", deliverStep, t)
		return
	}
	t.hop = i + 1
	n.Sched.AtArg(arrival, "hop.forward", o.stepFn, t)
}

// observeTies counts the queued departures due exactly now, split by
// whether dispatch has already passed them, so the test can prove it
// exercised both sides of a same-instant tie.
func (o *eventOracle) observeTies(h *hopState, now eventsim.Time) {
	for k := 0; k < h.fifoLen; k++ {
		e := h.fifo[(h.fifoHead+k)%len(h.fifo)]
		if e.at != now {
			continue
		}
		if o.n.Sched.Dispatched(e.at, e.seq) {
			o.tiesPassed++
		} else {
			o.tiesPending++
		}
	}
}

// burst is one batch of equal datagrams injected at one instant.
type burst struct {
	at      eventsim.Time
	count   int
	payload int
	ttl     byte
}

// randomBursts draws bursts on a time grid whose step is the bottleneck's
// serialisation time for the smallest datagram, so bursts land on the same
// instants as departures and arrivals. Payload sizes come from a short list
// (equal sizes collide on equal serialisation times), the largest ones
// fragment into trains at the 1500-byte MTU. A paced prelude of smallest
// datagrams, one per step, makes each reach the idle bottleneck at the
// instant the previous one departs, scheduled after that departure was
// stamped.
func randomBursts(rng *rand.Rand, count int) []burst {
	const paced = 8
	sizes := []int{200, 1472, 2000, 4000}
	probe, err := inet.BuildUDP(inet.Endpoint{}, inet.Endpoint{}, 0, make([]byte, sizes[0]))
	if err != nil {
		panic(err)
	}
	step := transmissionDelay(probe.WireLen(), bottleneckBps)
	out := make([]burst, paced, paced+count)
	for i := range out {
		out[i] = burst{at: eventsim.Time(time.Duration(i) * step), count: 1, payload: sizes[0], ttl: inet.DefaultTTL}
	}
	for i := 0; i < count; i++ {
		b := burst{
			at:      eventsim.Time(time.Duration(paced+rng.Intn(3*count)) * step),
			count:   1 + rng.Intn(24),
			payload: sizes[rng.Intn(len(sizes))],
			ttl:     inet.DefaultTTL,
		}
		if rng.Intn(8) == 0 {
			b.ttl = byte(2 + rng.Intn(4)) // expires mid-path
		}
		out = append(out, b)
	}
	return out
}

// bottleneckBps is the rate of fifoSpecs' bottleneck hop.
const bottleneckBps = 2e6

// fifoSpecs is a zero-jitter path built for ties: zero-serialisation hops
// (bandwidth 0), zero-propagation hops, and a slow, shallow bottleneck,
// optionally under RED. A burst admitted at a zero-serialisation hop
// leaves departures due now, stamped after the events still to run now.
func fifoSpecs(red bool) []HopSpec {
	specs := lanSpecs(6, 0, 100e6)
	specs[0].Bandwidth = 0 // departs the instant it is admitted
	specs[1].Bandwidth = 0
	specs[2].PropDelay = 500 * time.Microsecond
	specs[3].Bandwidth = bottleneckBps
	specs[3].QueueLen = 12
	specs[4].PropDelay = 250 * time.Microsecond
	if red {
		specs[3].Impair = netem.Impairment{Queue: func(limit int) netem.Queue {
			return netem.NewRED(float64(limit)/4, float64(limit)*3/4, 0.2, 0.25)
		}}
	}
	return specs
}

// deliveryLog records what reaches a host, in order.
type deliveryLog []string

func (l *deliveryLog) tap(now eventsim.Time, dir Direction, d *inet.Datagram) {
	if dir == Recv {
		*l = append(*l, fmt.Sprintf("%d %d %d %d", now, d.Header.ID, d.Header.FragOff, d.Len()))
	}
}

// fifoNet is fifoSpecs' path between two hosts, logging what reaches the
// server.
type fifoNet struct {
	n   *Network
	fwd *Path
	log deliveryLog
}

func newFifoNet(seed int64, red bool) *fifoNet {
	f := &fifoNet{n: New(seed)}
	f.n.AddHost(clientAddr)
	f.n.AddHost(serverAddr).Tap(f.log.tap)
	f.fwd, _ = f.n.ConnectDuplex(clientAddr, serverAddr, fifoSpecs(red))
	return f
}

// send is the production forwarding path.
func (f *fifoNet) send(d *inet.Datagram, now eventsim.Time) { f.n.send(d, now) }

// offer schedules the bursts: each datagram is fragmented at the default
// MTU and every fragment handed to send.
func (f *fifoNet) offer(t *testing.T, bursts []burst, send func(*inet.Datagram, eventsim.Time)) {
	var id uint16
	var frags []*inet.Datagram
	for _, b := range bursts {
		b := b
		f.n.Sched.At(b.at, "test.burst", func(now eventsim.Time) {
			for k := 0; k < b.count; k++ {
				id++
				d, err := inet.BuildUDP(inet.Endpoint{Addr: clientAddr, Port: 2},
					inet.Endpoint{Addr: serverAddr, Port: 1}, id, make([]byte, b.payload))
				if err != nil {
					t.Fatal(err)
				}
				d.Header.TTL = b.ttl
				if frags, err = inet.AppendFragments(frags[:0], d, inet.DefaultMTU); err != nil {
					t.Fatal(err)
				}
				for _, fr := range frags {
					send(fr, now)
				}
			}
		})
	}
}

// sameRun fails unless two networks, run to idle, delivered the same
// datagrams at the same instants, hold the same hop counters and went idle
// at the same time.
func sameRun(t *testing.T, got, want *fifoNet) {
	t.Helper()
	if got.n.Now() != want.n.Now() {
		t.Fatalf("run ended at %v, want %v", got.n.Now(), want.n.Now())
	}
	gotHops, wantHops := got.fwd.HopStats(), want.fwd.HopStats()
	for i := range wantHops {
		if gotHops[i] != wantHops[i] {
			t.Fatalf("hop %d counters %+v, want %+v", i, gotHops[i], wantHops[i])
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("%d deliveries, want %d", len(got.log), len(want.log))
	}
	for i := range want.log {
		if got.log[i] != want.log[i] {
			t.Fatalf("delivery %d: %q, want %q", i, got.log[i], want.log[i])
		}
	}
}

// TestDepartureRingMatchesDequeueEvents is the differential test for the
// departure rings: random same-instant-heavy traffic runs once through the
// oracle, which asserts ring == event-kept count at every forward, and once
// through the production path, whose deliveries, counters and final clock
// must equal the oracle's exactly.
func TestDepartureRingMatchesDequeueEvents(t *testing.T) {
	for _, red := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("red=%t/seed=%d", red, seed), func(t *testing.T) {
				bursts := randomBursts(rand.New(rand.NewSource(seed)), 60)
				want := newFifoNet(seed, red)
				o := newEventOracle(t, want.n)
				want.offer(t, bursts, o.send)
				got := newFifoNet(seed, red)
				got.offer(t, bursts, got.send)
				for _, f := range []*fifoNet{want, got} {
					if err := f.n.Run(0); err != nil {
						t.Fatal(err)
					}
				}

				if o.busy == 0 || o.tiesPassed == 0 || o.tiesPending == 0 {
					t.Fatalf("traffic too tame: %d forwards, %d queued, ties passed/pending %d/%d",
						o.forwards, o.busy, o.tiesPassed, o.tiesPending)
				}
				hops := want.fwd.HopStats()
				if bottleneck := hops[3]; bottleneck.DroppedFull+bottleneck.DroppedAQM == 0 ||
					red && bottleneck.DroppedAQM == 0 || bottleneck.TTLExpired+hops[2].TTLExpired == 0 {
					t.Fatalf("admission never decided anything: %+v", bottleneck)
				}
				for h, q := range o.queued {
					if q != 0 {
						t.Fatalf("oracle hop %v ends with %d queued", h, q)
					}
				}
				sameRun(t, got, want)
			})
		}
	}
}

// TestResetClearsDepartureRings: a network reset mid-congestion, with
// departures still queued, then replays exactly like a fresh one.
func TestResetClearsDepartureRings(t *testing.T) {
	bursts := randomBursts(rand.New(rand.NewSource(5)), 60)
	used := newFifoNet(5, true)
	used.offer(t, bursts, used.send)
	if err := used.n.Run(eventsim.Time(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if used.fwd.Stats().Queued == 0 {
		t.Fatal("nothing queued at the reset: the network is not congested")
	}
	used.n.Reset(5)
	used.log = nil
	used.n.Host(serverAddr).Tap(used.log.tap) // Reset drops taps
	used.offer(t, bursts, used.send)
	fresh := newFifoNet(5, true)
	fresh.offer(t, bursts, fresh.send)
	for _, f := range []*fifoNet{used, fresh} {
		if err := f.n.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	sameRun(t, used, fresh)
}
