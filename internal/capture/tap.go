package capture

import (
	"time"

	"turbulence/internal/inet"
	"turbulence/internal/stats"
)

// Tap observes captured records as they happen. The sniffer invokes Observe
// once per captured packet, synchronously, with zero allocation; the record
// (and its wire payload view) is valid only for the duration of the call,
// so taps that keep anything must copy it. Online analyzers implement Tap
// to compute flow metrics at capture time, which is what lets sweeps run
// without materialising a trace at all (see core's StreamProfiles).
type Tap interface {
	Observe(r *Record)
}

// Burst-ratio windows, shared by the online analyzer and the trace-replay
// path (core.ProfileFlow runs on FlowMetrics too, so the two agree
// exactly): the startup window compared against the steady-state sample at
// the end of the flow, past any buffering burst.
const (
	burstWindow = 8 * time.Second
	steadyTail  = 0.25 // final quarter of the flow
)

// tailRing is a growable ring of (time, bits) samples covering at least
// the final steadyTail share of a flow. The analyzer evicts from the front
// as the flow's elapsed time grows — a sample older than steadyTail of the
// current span can never land in the final steady window — so steady-state
// capture appends without allocating once the ring reaches the flow's
// quarter-window size.
type tailRing struct {
	at   []time.Duration
	bits []int32
	head int
	n    int
}

func (tr *tailRing) push(at time.Duration, bits int32) {
	if tr.n == len(tr.at) {
		size := 2 * tr.n
		if size < 64 {
			size = 64
		}
		ats := make([]time.Duration, size)
		bs := make([]int32, size)
		for i := 0; i < tr.n; i++ {
			j := (tr.head + i) % len(tr.at)
			ats[i] = tr.at[j]
			bs[i] = tr.bits[j]
		}
		tr.at, tr.bits, tr.head = ats, bs, 0
	}
	i := (tr.head + tr.n) % len(tr.at)
	tr.at[i] = at
	tr.bits[i] = bits
	tr.n++
}

func (tr *tailRing) evictBefore(cut time.Duration) {
	for tr.n > 0 && tr.at[tr.head] < cut {
		tr.head = (tr.head + 1) % len(tr.at)
		tr.n--
	}
}

// windowSum sums bits for samples with time in [from, to), in insertion
// order — the same reduction stats.TimeSeries.WindowSum performs, exact
// because the samples are integer bit counts.
func (tr *tailRing) windowSum(from, to time.Duration) float64 {
	sum := 0.0
	for i := 0; i < tr.n; i++ {
		j := (tr.head + i) % len(tr.at)
		if tr.at[j] >= from && tr.at[j] < to {
			sum += float64(tr.bits[j])
		}
	}
	return sum
}

// FlowMetrics is the online per-flow analyzer: it folds each captured
// record of one flow into constant-size accumulators (plus a ring bounded
// by the flow's final quarter window) and answers every reduction
// core.FlowProfile needs — packet and datagram counts, fragmentation
// stats, wire-size and group-interarrival summaries, average rate and
// burst ratio — without storing the records. Records must be observed in
// capture (time) order, the order a sniffer naturally delivers.
//
// core.ProfileFlow computes trace-derived profiles by replaying the flow's
// records through this same accumulator, so online and trace-derived
// profiles are identical by construction.
type FlowMetrics struct {
	frag       FragmentStats
	sizes      stats.Welford
	firstSizes stats.Welford
	groupIA    stats.Welford

	bits      float64 // Σ wire bits, exact (integer-valued samples)
	earlyBits float64 // Σ wire bits in the first burstWindow of the flow

	firstAt, lastAt time.Duration
	lastFirstAt     time.Duration // time of the last datagram-initial packet
	sawPacket       bool
	sawDatagram     bool

	tail tailRing
}

// Reset clears the accumulators for a new flow while retaining the tail
// ring's backing arrays, so a pooled analyzer observes its next flow
// without reallocating the ring it already grew.
func (m *FlowMetrics) Reset() {
	tail := m.tail
	*m = FlowMetrics{}
	tail.head, tail.n = 0, 0
	m.tail = tail
}

// Observe folds one record into the accumulators.
func (m *FlowMetrics) Observe(r *Record) {
	if !m.sawPacket {
		m.firstAt = r.At
		m.sawPacket = true
	}
	m.lastAt = r.At

	m.frag.Packets++
	if r.FragOff == 0 {
		m.frag.Datagrams++
		m.firstSizes.Add(float64(r.WireLen))
		if m.sawDatagram {
			m.groupIA.Add((r.At - m.lastFirstAt).Seconds())
		}
		m.lastFirstAt = r.At
		m.sawDatagram = true
	} else {
		m.frag.Continuations++
	}
	if r.IsFragment() {
		m.frag.AnyFragment++
	}

	m.sizes.Add(float64(r.WireLen))
	bits := float64(r.WireLen * 8)
	m.bits += bits

	at := r.At - m.firstAt
	if at < burstWindow {
		m.earlyBits += bits
	}
	m.tail.push(at, int32(r.WireLen*8))
	span := m.lastAt - m.firstAt
	m.tail.evictBefore(time.Duration(float64(span) * (1 - steadyTail)))
}

// Packets reports the number of wire packets observed.
func (m *FlowMetrics) Packets() int { return m.frag.Packets }

// Fragmentation returns the flow's fragment statistics.
func (m *FlowMetrics) Fragmentation() FragmentStats { return m.frag }

// Sizes returns the wire-size summary (all packets).
func (m *FlowMetrics) Sizes() *stats.Welford { return &m.sizes }

// FirstSizes returns the wire-size summary of datagram-initial packets —
// the sample the paper's CBR classification judges, with fragment trains
// collapsed.
func (m *FlowMetrics) FirstSizes() *stats.Welford { return &m.firstSizes }

// GroupInterarrivals returns the summary of spacings between the first
// packets of successive datagrams (seconds), the paper's Figure 9
// reduction.
func (m *FlowMetrics) GroupInterarrivals() *stats.Welford { return &m.groupIA }

// AverageRate returns the flow's mean throughput in bits/second across its
// active duration (first to last packet) — identical to
// FlowTrace.AverageRate.
func (m *FlowMetrics) AverageRate() float64 {
	if m.frag.Packets < 2 {
		return 0
	}
	span := (m.lastAt - m.firstAt).Seconds()
	if span <= 0 {
		return 0
	}
	return m.bits / span
}

// BurstRatio compares startup throughput to steady-state throughput —
// identical to the trace-based reduction core applied (startup window
// burstWindow, steady sample the final steadyTail of the flow).
func (m *FlowMetrics) BurstRatio() float64 {
	if m.frag.Packets < 2 {
		return 0
	}
	span := m.lastAt - m.firstAt
	if span <= burstWindow*2 {
		return 1
	}
	early := m.earlyBits / burstWindow.Seconds()
	tailStart := time.Duration(float64(span) * (1 - steadyTail))
	steady := m.tail.windowSum(tailStart, span) / (time.Duration(float64(span) * steadyTail)).Seconds()
	if steady <= 0 {
		return 0
	}
	return early / steady
}

// Span returns the flow's first and last packet times.
func (m *FlowMetrics) Span() (first, last time.Duration) { return m.firstAt, m.lastAt }

// FlowStream is one flow being analysed online by a FlowDemux.
type FlowStream struct {
	Flow    inet.Flow
	Metrics *FlowMetrics
	// Extra is the per-flow analyzer built by the demux's Extra factory,
	// nil when no factory is installed.
	Extra Tap
}

// addrPair keys fragment-train state by the (source, destination) address
// pair — IP IDs are only unique within one.
type addrPair struct{ src, dst inet.Addr }

// trainTable maps an IP ID to 1 + the flow index of the train's first
// fragment (0 = no train seen). A flat array rather than a map keeps the
// per-fragment hot path allocation-free and gives the same
// last-writer-wins, entries-persist semantics Trace.SplitFlows' train map
// has, which the online/trace parity depends on.
type trainTable [1 << 16]int32

// FlowDemux routes captured records to per-flow FlowMetrics online,
// attributing continuation fragments to the flow of their train's first
// fragment via the IP ID — exactly the reduction Trace.SplitFlows applies
// to a stored trace, flow order included. Steady-state observation (known
// flows, any fragmentation) performs no allocation.
type FlowDemux struct {
	// Extra, when set before observation starts, builds one extra analyzer
	// per discovered flow; the demux feeds it every record of that flow.
	Extra func(inet.Flow) Tap

	byFlow map[inet.Flow]int32
	flows  []FlowStream
	trains map[addrPair]*trainTable

	// freeMetrics recycles per-flow analyzers across Resets, so a pooled
	// demux discovers its flows without allocating accumulators again.
	freeMetrics []*FlowMetrics
}

// NewFlowDemux returns an empty demultiplexer.
func NewFlowDemux() *FlowDemux {
	return &FlowDemux{
		byFlow: make(map[inet.Flow]int32),
		trains: make(map[addrPair]*trainTable),
	}
}

// Reset returns the demux to its post-NewFlowDemux state while retaining
// every allocation it has made: flow analyzers move to a free list for the
// next discovery pass, the flow map empties in place, and the train tables
// (256 KB flat arrays, the demux's dominant allocation) are zeroed and
// kept. This is what lets a sweep worker analyse run after run with one
// demux instead of one per cell. The Extra factory is preserved; flow
// views handed out before the Reset must not be used afterwards.
func (dx *FlowDemux) Reset() {
	clear(dx.byFlow)
	for i := range dx.flows {
		dx.flows[i].Metrics.Reset()
		dx.freeMetrics = append(dx.freeMetrics, dx.flows[i].Metrics)
		dx.flows[i] = FlowStream{}
	}
	dx.flows = dx.flows[:0]
	for _, tt := range dx.trains {
		clear(tt[:])
	}
}

// Observe routes one record to its flow's analyzers.
func (dx *FlowDemux) Observe(r *Record) {
	if r.Proto != inet.ProtoUDP && r.Proto != inet.ProtoTCP {
		return
	}
	var fi int32
	if r.HasPorts {
		flow, _ := r.Flow()
		idx, ok := dx.byFlow[flow]
		if !ok {
			idx = int32(len(dx.flows))
			dx.byFlow[flow] = idx
			var m *FlowMetrics
			if n := len(dx.freeMetrics); n > 0 {
				m = dx.freeMetrics[n-1]
				dx.freeMetrics = dx.freeMetrics[:n-1]
			} else {
				m = &FlowMetrics{}
			}
			fs := FlowStream{Flow: flow, Metrics: m}
			if dx.Extra != nil {
				fs.Extra = dx.Extra(flow)
			}
			dx.flows = append(dx.flows, fs)
		}
		fi = idx
		if r.IsFragment() {
			tt := dx.trains[addrPair{r.Src, r.Dst}]
			if tt == nil {
				tt = new(trainTable)
				dx.trains[addrPair{r.Src, r.Dst}] = tt
			}
			tt[r.IPID] = fi + 1
		}
	} else {
		tt := dx.trains[addrPair{r.Src, r.Dst}]
		if tt == nil {
			return // orphan fragment; first never seen
		}
		v := tt[r.IPID]
		if v == 0 {
			return
		}
		fi = v - 1
	}
	fs := &dx.flows[fi]
	fs.Metrics.Observe(r)
	if fs.Extra != nil {
		fs.Extra.Observe(r)
	}
}

// Flows returns the analysed flows in first-seen order — the order
// SplitFlows yields them from a stored trace.
func (dx *FlowDemux) Flows() []FlowStream { return dx.flows }

// To returns the first flow whose destination port matches, or nil — the
// online counterpart of Trace.FlowTo.
func (dx *FlowDemux) To(dstPort inet.Port) *FlowStream {
	for i := range dx.flows {
		if dx.flows[i].Flow.Dst.Port == dstPort {
			return &dx.flows[i]
		}
	}
	return nil
}
