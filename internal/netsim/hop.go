// Package netsim is the discrete-event network substrate the reproduction
// streams over. It models what the paper's testbed provided physically: a
// client PC on a 10 Mbps campus LAN, an Internet path of 13-25 router hops
// to each video server site, with propagation delay, per-hop FIFO queueing,
// serialization at link bandwidth, background-traffic jitter, and rare
// loss (the paper reports ~0% ping loss with a few observed drops).
//
// Hosts exchange real inet.Datagrams: the sending host's IP layer fragments
// at its MTU (the mechanism behind the paper's MediaPlayer findings) and
// the receiving host reassembles. Router hops decrement TTL and return
// ICMP time-exceeded errors, which is what makes tracert work.
//
// Hops are impairable: a HopSpec may carry a netem.Impairment whose models
// replace the spec's fixed loss/bandwidth/jitter processes and add AQM and
// cross-traffic on top — the mechanism behind the scenario library's
// bursty, time-varying network conditions. Unimpaired hops run the exact
// legacy code path, draw for draw.
package netsim

import (
	"fmt"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/netem"
)

// HopSpec describes one router hop of a path.
type HopSpec struct {
	Addr      inet.Addr     // router address reported to traceroute
	Bandwidth float64       // nominal link bits/second leaving this hop
	PropDelay time.Duration // propagation to the next hop (or host)
	JitterMax time.Duration // uniform extra queueing delay from cross traffic
	SpikeProb float64       // probability of a heavy-tailed jitter spike
	SpikeMax  time.Duration // upper bound of a spike
	Loss      float64       // independent drop probability at this hop
	Corrupt   float64       // probability of flipping a payload byte in transit
	QueueLen  int           // max datagrams queued awaiting serialization (0 = default)

	// Impair plugs netem models into the hop. Zero (no factories) keeps
	// the spec-driven fields above as the hop's behaviour; each non-nil
	// factory overrides its aspect. Factories are instantiated per
	// unidirectional hop at connect time, so duplex directions never share
	// model state.
	Impair netem.Impairment
}

// DefaultQueueLen is used when a HopSpec leaves QueueLen zero; generous
// enough that drops come from the Loss model under typical conditions, as
// in the paper's uncongested runs.
const DefaultQueueLen = 100

// maxCrossLoad caps the link share cross traffic may consume, so
// background load can brown a link out (down to 2% of capacity) but never
// wedge it entirely.
const maxCrossLoad = 0.98

// hopState is the runtime state of a unidirectional hop.
type hopState struct {
	spec HopSpec
	// models holds the hop's instantiated netem models; nil fields fall
	// back to the spec-driven legacy behaviour, keeping unimpaired hops
	// allocation- and draw-identical to the pre-netem code.
	models netem.HopModels
	// busyUntil is when the output link finishes serialising the last
	// accepted datagram.
	busyUntil eventsim.Time
	// lastExit preserves FIFO ordering downstream of jitter draws.
	lastExit eventsim.Time
	// fifo is a ring of the departures of datagrams accepted but not yet
	// fully serialised, oldest first, holding fifoLen entries from
	// fifoHead. It is sized to the deepest backlog the hop has held, is
	// kept across reset, and never exceeds queueCap slots: drop-tail
	// admission keeps the backlog within them.
	fifo     []fifoEntry
	fifoHead int
	fifoLen  int

	// Cross-traffic fluid state: the last integration time and the load
	// share computed for that step.
	crossInit bool
	crossAt   eventsim.Time
	crossLoad float64

	// Counters for diagnostics and the congestion experiments. DroppedAQM
	// counts early drops by the queue policy (RED), distinct from
	// DroppedFull (physical FIFO overflow) and DroppedLoss (link loss
	// process).
	Forwarded   uint64
	DroppedLoss uint64
	DroppedFull uint64
	DroppedAQM  uint64
	TTLExpired  uint64
}

// newHopState instantiates one unidirectional hop; its reset builds the
// hop's private netem model instances from the spec's impairment
// factories.
func newHopState(spec HopSpec) *hopState {
	h := &hopState{spec: spec}
	h.reset()
	return h
}

// reset arms the hop for a run: queue and FIFO state, cross-traffic
// integration, and counters zero, and the netem models are rebuilt from
// the spec's factories — allocation-free for unimpaired hops (a zero
// Impairment builds no models).
func (h *hopState) reset() {
	h.models = h.spec.Impair.Build(h.spec.Bandwidth, h.queueCap())
	h.busyUntil = 0
	h.lastExit = 0
	h.fifoHead = 0
	h.fifoLen = 0
	h.crossInit = false
	h.crossAt = 0
	h.crossLoad = 0
	h.Forwarded = 0
	h.DroppedLoss = 0
	h.DroppedFull = 0
	h.DroppedAQM = 0
	h.TTLExpired = 0
}

// fifoEntry is when one queued datagram finishes serialising, stamped
// with the sequence number an event scheduled at its admission would have
// carried: the pair orders the departure against events that fall on the
// same instant (eventsim.Scheduler.Dispatched).
type fifoEntry struct {
	at  eventsim.Time
	seq uint64
}

// enqueue appends a departure to the ring; the caller has checked the
// backlog against queueCap.
func (h *hopState) enqueue(at eventsim.Time, seq uint64) {
	if h.fifoLen == len(h.fifo) {
		h.growFIFO()
	}
	i := h.fifoHead + h.fifoLen
	if i >= len(h.fifo) {
		i -= len(h.fifo)
	}
	h.fifo[i] = fifoEntry{at: at, seq: seq}
	h.fifoLen++
}

// growFIFO doubles a full ring, capped at queueCap, unwrapping it into the
// new array. Most hops never queue more than a few datagrams, so rings
// start small; a saturated hop reaches queueCap after a handful of
// doublings and stops growing.
func (h *hopState) growFIFO() {
	ring := make([]fifoEntry, min(max(2*len(h.fifo), 8), h.queueCap()))
	n := copy(ring, h.fifo[h.fifoHead:])
	copy(ring[n:], h.fifo[:h.fifoHead])
	h.fifo, h.fifoHead = ring, 0
}

// backlog retires the departures the scheduler has already passed and
// returns how many datagrams remain queued. Departures are admitted in
// (at, seq) order, so the passed ones are always a prefix of the ring.
func (h *hopState) backlog(s *eventsim.Scheduler) int {
	for h.fifoLen > 0 {
		d := h.fifo[h.fifoHead]
		if !s.Dispatched(d.at, d.seq) {
			break
		}
		h.fifoHead++
		if h.fifoHead == len(h.fifo) {
			h.fifoHead = 0
		}
		h.fifoLen--
	}
	return h.fifoLen
}

// transmissionDelay returns the serialization time of wireBytes at bps.
func transmissionDelay(wireBytes int, bps float64) time.Duration {
	if bps <= 0 {
		return 0
	}
	sec := float64(wireBytes*8) / bps
	return time.Duration(sec * float64(time.Second))
}

// queueCap returns the effective queue limit.
func (h *hopState) queueCap() int {
	if h.spec.QueueLen > 0 {
		return h.spec.QueueLen
	}
	return DefaultQueueLen
}

// dropByLoss runs the hop's loss process for one packet.
func (h *hopState) dropByLoss(rng *eventsim.RNG) bool {
	if h.models.Loss != nil {
		return h.models.Loss.Drop(rng)
	}
	return h.spec.Loss > 0 && rng.Bernoulli(h.spec.Loss)
}

// admit consults the hop's AQM policy after the physical limit check,
// given the current backlog.
func (h *hopState) admit(rng *eventsim.RNG, queued int) bool {
	if h.models.Queue == nil {
		return true
	}
	return h.models.Queue.Admit(rng, queued, h.queueCap())
}

// bandwidthAt returns the hop's current output rate, after the bandwidth
// profile and the cross-traffic capacity share.
func (h *hopState) bandwidthAt(rng *eventsim.RNG, now eventsim.Time) float64 {
	bw := h.spec.Bandwidth
	if h.models.Bandwidth != nil {
		bw = h.models.Bandwidth.BandwidthAt(now)
	}
	if h.models.Cross != nil {
		bw *= 1 - h.crossShare(rng, now, bw)
	}
	return bw
}

// crossShare integrates the hop's background traffic up to now and returns
// the link share it consumes, as a fluid approximation: the bits offered
// over the last integration step, normalised by link capacity and capped
// at maxCrossLoad. Foreground packets then serialise at the residual rate,
// so queue buildup and overflow drops emerge in the same FIFO the
// foreground uses.
func (h *hopState) crossShare(rng *eventsim.RNG, now eventsim.Time, bw float64) float64 {
	if !h.crossInit {
		h.crossInit = true
		h.crossAt = now
		return 0
	}
	if now <= h.crossAt {
		return h.crossLoad
	}
	bits := h.models.Cross.BitsBetween(rng, h.crossAt, now)
	dt := now.Sub(h.crossAt).Seconds()
	load := 0.0
	if bw > 0 && dt > 0 {
		load = bits / (bw * dt)
	}
	if load > maxCrossLoad {
		load = maxCrossLoad
	}
	h.crossAt = now
	h.crossLoad = load
	return load
}

// drawJitter samples the hop's per-packet extra delay: the netem model if
// one is installed, otherwise the spec's uniform-plus-spike process (the
// legacy cross-traffic stand-in, the same sampler netem.UniformSpike
// models — a stack value, so the fallback stays allocation-free).
func (h *hopState) drawJitter(rng *eventsim.RNG) time.Duration {
	if h.models.Jitter != nil {
		return h.models.Jitter.Draw(rng)
	}
	return netem.UniformSpike{
		Max:       h.spec.JitterMax,
		SpikeProb: h.spec.SpikeProb,
		SpikeMax:  h.spec.SpikeMax,
	}.Draw(rng)
}

func (h *hopState) String() string {
	return fmt.Sprintf("hop %s bw=%.0f prop=%v loss=%.4f", h.spec.Addr, h.spec.Bandwidth, h.spec.PropDelay, h.spec.Loss)
}

// Path is a unidirectional chain of hops between two hosts. Reverse paths
// are separate Path values with their own queue state.
type Path struct {
	src, dst inet.Addr
	hops     []*hopState
	sched    *eventsim.Scheduler // tells which queued departures have passed
}

// Hops returns the number of router hops on the path.
func (p *Path) Hops() int { return len(p.hops) }

// HopAddrs lists the router addresses in order.
func (p *Path) HopAddrs() []inet.Addr {
	out := make([]inet.Addr, len(p.hops))
	for i, h := range p.hops {
		out[i] = h.spec.Addr
	}
	return out
}

// BasePropagation sums the propagation delays of the path — the floor of
// the one-way delay, excluding queueing and serialization.
func (p *Path) BasePropagation() time.Duration {
	var d time.Duration
	for _, h := range p.hops {
		d += h.spec.PropDelay
	}
	return d
}

// Bottleneck returns the lowest nominal hop bandwidth in bits/second.
func (p *Path) Bottleneck() float64 {
	if len(p.hops) == 0 {
		return 0
	}
	min := p.hops[0].spec.Bandwidth
	for _, h := range p.hops {
		if h.spec.Bandwidth > 0 && (min <= 0 || h.spec.Bandwidth < min) {
			min = h.spec.Bandwidth
		}
	}
	return min
}

// PathStats aggregates hop counters for reporting. The three drop causes
// stay separate so model loss (the link's loss process), AQM early drops
// and queue overflow are distinguishable in every report. Queued is the
// datagrams still awaiting serialisation when the snapshot was taken.
type PathStats struct {
	Forwarded, DroppedLoss, DroppedFull, DroppedAQM, TTLExpired uint64
	Queued                                                      uint64
}

// Dropped sums every drop cause.
func (s PathStats) Dropped() uint64 {
	return s.DroppedLoss + s.DroppedFull + s.DroppedAQM
}

// Add accumulates another stats value.
func (s *PathStats) Add(o PathStats) {
	s.Forwarded += o.Forwarded
	s.DroppedLoss += o.DroppedLoss
	s.DroppedFull += o.DroppedFull
	s.DroppedAQM += o.DroppedAQM
	s.TTLExpired += o.TTLExpired
	s.Queued += o.Queued
}

// Stats sums the counters across hops.
func (p *Path) Stats() PathStats {
	var s PathStats
	for _, h := range p.hops {
		s.Add(h.stats(p.sched))
	}
	return s
}

func (h *hopState) stats(sched *eventsim.Scheduler) PathStats {
	return PathStats{
		Forwarded:   h.Forwarded,
		DroppedLoss: h.DroppedLoss,
		DroppedFull: h.DroppedFull,
		DroppedAQM:  h.DroppedAQM,
		TTLExpired:  h.TTLExpired,
		Queued:      uint64(h.backlog(sched)),
	}
}

// HopCounters is one hop's counter snapshot, for per-hop breakdowns.
type HopCounters struct {
	Addr inet.Addr
	PathStats
}

// HopStats returns per-hop counter snapshots in path order.
func (p *Path) HopStats() []HopCounters {
	out := make([]HopCounters, len(p.hops))
	for i, h := range p.hops {
		out[i] = HopCounters{Addr: h.spec.Addr, PathStats: h.stats(p.sched)}
	}
	return out
}
