package capture

import (
	"sort"
	"time"

	"turbulence/internal/inet"
	"turbulence/internal/stats"
)

// FlowTrace is the slice of a trace belonging to one UDP flow, with
// continuation fragments attributed to the flow via their IP ID (a sniffer
// sees no ports on non-first fragments; the paper's Ethereal resolved them
// the same way). It is an index-based view over the parent trace's
// columnar record storage: extracting flows copies indices, never records,
// and the metric reductions below scan the owning store's columns
// directly.
type FlowTrace struct {
	Flow inet.Flow

	owner *Trace
	idx   []int32
}

// Len reports the number of wire packets in the flow.
func (f *FlowTrace) Len() int { return len(f.idx) }

// At returns the i-th wire packet of the flow, materialised from the
// parent trace's storage.
func (f *FlowTrace) At(i int) Record { return f.owner.st.record(int(f.idx[i])) }

// Replay feeds the flow's records, in order, to an online analyzer — how
// trace-derived metrics and capture-time metrics stay one code path.
func (f *FlowTrace) Replay(t Tap) {
	st := &f.owner.st
	// One scratch record for the whole replay: records flow into a Tap
	// interface call, so a loop-local value would escape and allocate per
	// record.
	var r Record
	for _, i := range f.idx {
		r = st.record(int(i))
		t.Observe(&r)
	}
}

// Where returns the sub-flow of packets for which keep returns true, as a
// view sharing the same storage.
func (f *FlowTrace) Where(keep func(*Record) bool) *FlowTrace {
	idx := make([]int32, 0, len(f.idx))
	var r Record
	for _, i := range f.idx {
		r = f.owner.st.record(int(i))
		if keep(&r) {
			idx = append(idx, i)
		}
	}
	return &FlowTrace{Flow: f.Flow, owner: f.owner, idx: idx}
}

// FlowRecorder is a Tap that keeps one flow's records without their
// payload bytes: each observed record goes into the recorder's columnar
// store with no arena bytes, and FlowTrace hands the flow out as a
// standalone FlowTrace answering every reduction (times, sizes, fragment
// fields) at a fraction of a whole capture's cost. Records are Wire-less,
// like synthetic ones: Raw returns nil. Install it through
// FlowDemux.Extra, which attributes fragments exactly as SplitFlows does,
// and the recorded flow equals the stored trace's FlowTo view record for
// record. The zero value is ready for Reset; a recorder is reused flow
// after flow, so its columns grow once, not per flow.
type FlowRecorder struct {
	flow inet.Flow
	st   store
}

// Reset empties the recorder for a new flow, keeping its columns'
// capacity.
func (fr *FlowRecorder) Reset(flow inet.Flow) {
	fr.flow = flow
	fr.st.truncate()
}

// Observe stores one record, dropping its wire payload.
func (fr *FlowRecorder) Observe(r *Record) {
	rec := *r
	rec.wire = nil
	fr.st.append(rec)
}

// FlowTrace copies the recorded flow into a standalone FlowTrace whose
// columns are sized exactly, so the flow outlives the recorder's next
// Reset and holds no spare capacity.
func (fr *FlowRecorder) FlowTrace() *FlowTrace {
	n := fr.st.len()
	owner := &Trace{}
	owner.st.grow(n)
	idx := make([]int32, n)
	for i := range idx {
		owner.st.append(fr.st.record(i))
		idx[i] = int32(i)
	}
	return &FlowTrace{Flow: fr.flow, owner: owner, idx: idx}
}

// SplitFlows partitions received UDP records into flows. Records are
// assumed time-ordered (as captured). Fragment trains are attributed to the
// flow of their first fragment by (src, dst, IP ID).
func (t *Trace) SplitFlows() []*FlowTrace {
	type trainKey struct {
		src, dst inet.Addr
		id       uint16
	}
	owner := t.owner()
	st := &owner.st
	byFlow := make(map[inet.Flow]*FlowTrace)
	var order []inet.Flow
	trains := make(map[trainKey]inet.Flow)
	n := t.Len()
	for i := 0; i < n; i++ {
		si := t.storageIndex(i)
		proto := st.proto[si]
		if proto != inet.ProtoUDP && proto != inet.ProtoTCP {
			continue
		}
		var flow inet.Flow
		if st.meta[si]&metaHasPorts != 0 {
			flow = inet.Flow{
				Src: inet.Endpoint{Addr: st.src[si], Port: st.srcPort[si]},
				Dst: inet.Endpoint{Addr: st.dst[si], Port: st.dstPort[si]},
			}
			if st.isFragment(int(si)) {
				trains[trainKey{st.src[si], st.dst[si], st.ipid[si]}] = flow
			}
		} else {
			var ok bool
			flow, ok = trains[trainKey{st.src[si], st.dst[si], st.ipid[si]}]
			if !ok {
				continue // orphan fragment; first never seen
			}
		}
		ft := byFlow[flow]
		if ft == nil {
			ft = &FlowTrace{Flow: flow, owner: owner}
			byFlow[flow] = ft
			order = append(order, flow)
		}
		ft.idx = append(ft.idx, si)
	}
	out := make([]*FlowTrace, 0, len(order))
	for _, f := range order {
		out = append(out, byFlow[f])
	}
	return out
}

// FlowTo returns the flow trace whose destination port matches, or nil.
// Streaming experiments key flows by their well-known data port.
func (t *Trace) FlowTo(dstPort inet.Port) *FlowTrace {
	for _, ft := range t.SplitFlows() {
		if ft.Flow.Dst.Port == dstPort {
			return ft
		}
	}
	return nil
}

// PacketSizes returns the wire sizes in bytes of every packet, the sample
// behind the paper's Figure 6/7 PDFs.
func (f *FlowTrace) PacketSizes() []float64 {
	wire := f.owner.st.wireLen
	out := make([]float64, len(f.idx))
	for i, si := range f.idx {
		out[i] = float64(wire[si])
	}
	return out
}

// Interarrivals returns successive packet spacing in seconds (Figure 8).
func (f *FlowTrace) Interarrivals() []float64 {
	n := len(f.idx)
	if n < 2 {
		return nil
	}
	at := f.owner.st.at
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		out = append(out, (at[f.idx[i]] - at[f.idx[i-1]]).Seconds())
	}
	return out
}

// GroupInterarrivals returns the spacing between the *first packets* of
// successive datagrams, collapsing fragment trains into one arrival. The
// paper uses exactly this reduction for high-rate MediaPlayer clips in
// Figure 9 "to remove the noise caused by the IP fragments".
func (f *FlowTrace) GroupInterarrivals() []float64 {
	st := &f.owner.st
	var firsts []time.Duration
	for _, si := range f.idx {
		if st.fragOff[si] == 0 { // whole datagram or first fragment
			firsts = append(firsts, st.at[si])
		}
	}
	if len(firsts) < 2 {
		return nil
	}
	out := make([]float64, 0, len(firsts)-1)
	for i := 1; i < len(firsts); i++ {
		out = append(out, (firsts[i] - firsts[i-1]).Seconds())
	}
	return out
}

// FragmentStats summarises fragmentation in a flow.
type FragmentStats struct {
	Packets       int // wire packets
	Datagrams     int // distinct application datagrams (FragOff == 0)
	Continuations int // non-first fragments (Ethereal's "IP fragments")
	AnyFragment   int // packets carrying any fragment flag/offset
}

// ContinuationShare is the Figure 5 metric: the fraction of wire packets
// that are continuation fragments.
func (s FragmentStats) ContinuationShare() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.Continuations) / float64(s.Packets)
}

// Fragmentation computes the flow's fragment statistics.
func (f *FlowTrace) Fragmentation() FragmentStats {
	st := &f.owner.st
	var s FragmentStats
	s.Packets = len(f.idx)
	for _, si := range f.idx {
		if st.fragOff[si] == 0 {
			s.Datagrams++
		} else {
			s.Continuations++
		}
		if st.isFragment(int(si)) {
			s.AnyFragment++
		}
	}
	return s
}

// BandwidthSeries reduces the flow into a bits-per-second curve with the
// given bucket width (Figure 10 uses one-second buckets).
func (f *FlowTrace) BandwidthSeries(bucket time.Duration) []stats.Point {
	st := &f.owner.st
	var ts stats.TimeSeries
	for _, si := range f.idx {
		ts.Add(st.at[si], float64(int(st.wireLen[si])*8))
	}
	return ts.RateSeries(bucket)
}

// AverageRate returns the flow's mean throughput in bits/second across its
// active duration (first to last packet).
func (f *FlowTrace) AverageRate() float64 {
	n := len(f.idx)
	if n < 2 {
		return 0
	}
	st := &f.owner.st
	var bits float64
	for _, si := range f.idx {
		bits += float64(int(st.wireLen[si]) * 8)
	}
	span := (st.at[f.idx[n-1]] - st.at[f.idx[0]]).Seconds()
	if span <= 0 {
		return 0
	}
	return bits / span
}

// SequencePoints returns (time, packet index) points for an arrival window,
// reproducing Figure 4's sequence-number-versus-time view. Indexing starts
// at the first packet of the flow so concurrent flows can be overlaid.
func (f *FlowTrace) SequencePoints(from, to time.Duration) []stats.Point {
	st := &f.owner.st
	var out []stats.Point
	for i, si := range f.idx {
		at := st.at[si]
		if at >= from && at < to {
			out = append(out, stats.Point{X: at.Seconds(), Y: float64(i)})
		}
	}
	return out
}

// TrainLengths returns the wire-packet count of each datagram's fragment
// train, in arrival order: 1 for unfragmented datagrams.
func (f *FlowTrace) TrainLengths() []int {
	st := &f.owner.st
	var out []int
	count := 0
	for _, si := range f.idx {
		if st.fragOff[si] == 0 {
			if count > 0 {
				out = append(out, count)
			}
			count = 1
		} else {
			count++
		}
	}
	if count > 0 {
		out = append(out, count)
	}
	return out
}

// Window narrows the flow trace to records in [from, to), as a view over
// the same storage.
func (f *FlowTrace) Window(from, to time.Duration) *FlowTrace {
	return f.Where(func(r *Record) bool { return r.At >= from && r.At < to })
}

// DistinctSizes returns the sorted distinct wire sizes and their counts;
// useful to assert the CBR "all packets the same size" property.
func (f *FlowTrace) DistinctSizes() ([]int, []int) {
	wire := f.owner.st.wireLen
	counts := make(map[int]int)
	for _, si := range f.idx {
		counts[int(wire[si])]++
	}
	sizes := make([]int, 0, len(counts))
	for sz := range counts {
		sizes = append(sizes, sz)
	}
	sort.Ints(sizes)
	ns := make([]int, len(sizes))
	for i, sz := range sizes {
		ns[i] = counts[sz]
	}
	return sizes, ns
}
