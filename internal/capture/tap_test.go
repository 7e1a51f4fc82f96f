package capture

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/netsim"
	"turbulence/internal/obs"
	"turbulence/internal/racecheck"
	"turbulence/internal/stats"
)

// replayMetrics runs a flow trace through a fresh online analyzer.
func replayMetrics(f *FlowTrace) *FlowMetrics {
	m := &FlowMetrics{}
	f.Replay(m)
	return m
}

// randomTrace synthesises a capture with several interleaved flows,
// fragment trains, orphan continuations (first fragment "lost") and
// repeating IP IDs — the shapes heavy netem impairment produces at a
// client NIC.
func randomTrace(t *testing.T, rng *eventsim.RNG, packets int) *Trace {
	t.Helper()
	tr := &Trace{}
	ports := []inet.Port{inet.PortMMSData, inet.PortRDTData, 9000}
	at := time.Duration(0)
	id := uint16(0)
	for tr.Len() < packets {
		at += time.Duration(rng.Uniform(0.0001, 0.05) * float64(time.Second))
		port := ports[rng.Intn(len(ports))]
		size := 200 + rng.Intn(7000)
		id++
		d, err := inet.BuildUDP(inet.Endpoint{Addr: serverAddr, Port: port}, cliEP, id, make([]byte, size))
		if err != nil {
			t.Fatal(err)
		}
		frags, err := inet.Fragment(d, inet.DefaultMTU)
		if err != nil {
			t.Fatal(err)
		}
		dropFirst := len(frags) > 1 && rng.Bernoulli(0.15) // orphan train
		for j, f := range frags {
			if j == 0 && dropFirst {
				continue
			}
			tr.Append(parseRecord(at+time.Duration(j)*time.Millisecond, netsim.Recv, f))
		}
	}
	return tr
}

func close9(a, b float64) bool {
	if a == b {
		return true
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b)/den < 1e-9
}

// TestFlowMetricsMatchSliceReductions is the online-versus-trace property
// test: on randomized synthetic flows, the one-pass analyzer must agree
// with the independent slice-based reductions — exactly for counts, sums,
// means, max and average rate (integer-valued samples), and to tight
// relative tolerance for the variance-derived CVs.
func TestFlowMetricsMatchSliceReductions(t *testing.T) {
	rng := eventsim.NewRNG(42)
	for round := 0; round < 20; round++ {
		tr := randomTrace(t, rng, 300)
		for _, f := range tr.SplitFlows() {
			m := replayMetrics(f)
			if m.Packets() != f.Len() {
				t.Fatalf("packets: %d vs %d", m.Packets(), f.Len())
			}
			if m.Fragmentation() != f.Fragmentation() {
				t.Fatalf("fragmentation: %+v vs %+v", m.Fragmentation(), f.Fragmentation())
			}
			ss := stats.Summarize(f.PacketSizes())
			if m.Sizes().Mean() != ss.Mean || m.Sizes().Sum != ss.Sum || m.Sizes().Max != ss.Max {
				t.Fatalf("sizes: mean %v vs %v", m.Sizes().Mean(), ss.Mean)
			}
			if !close9(m.Sizes().StdDev(), ss.StdDev) {
				t.Fatalf("size stddev: %v vs %v", m.Sizes().StdDev(), ss.StdDev)
			}
			is := stats.Summarize(f.GroupInterarrivals())
			if m.GroupInterarrivals().Mean() != is.Mean {
				t.Fatalf("group ia mean: %v vs %v", m.GroupInterarrivals().Mean(), is.Mean)
			}
			if !close9(m.GroupInterarrivals().StdDev(), is.StdDev) {
				t.Fatalf("group ia stddev: %v vs %v", m.GroupInterarrivals().StdDev(), is.StdDev)
			}
			if m.AverageRate() != f.AverageRate() {
				t.Fatalf("rate: %v vs %v", m.AverageRate(), f.AverageRate())
			}
			if m.BurstRatio() != traceBurstRatio(f) {
				t.Fatalf("burst: %v vs %v", m.BurstRatio(), traceBurstRatio(f))
			}
		}
	}
}

// traceBurstRatio is the original trace-based burst-ratio reduction,
// re-implemented here over the raw records so FlowMetrics.BurstRatio is
// checked against an independent computation, not itself.
func traceBurstRatio(ft *FlowTrace) float64 {
	if ft.Len() < 2 {
		return 0
	}
	start := ft.At(0).At
	end := ft.At(ft.Len() - 1).At
	span := end - start
	if span <= burstWindow*2 {
		return 1
	}
	var ts stats.TimeSeries
	for i, n := 0, ft.Len(); i < n; i++ {
		r := ft.At(i)
		ts.Add(r.At-start, float64(r.WireLen*8))
	}
	early := ts.WindowSum(0, burstWindow) / burstWindow.Seconds()
	tailStart := time.Duration(float64(span) * (1 - steadyTail))
	steady := ts.WindowSum(tailStart, span) / (time.Duration(float64(span) * steadyTail)).Seconds()
	if steady <= 0 {
		return 0
	}
	return early / steady
}

// TestFlowMetricsBurstRatioLongFlow exercises the tail ring across a flow
// long enough to need eviction and growth, against the independent
// reduction.
func TestFlowMetricsBurstRatioLongFlow(t *testing.T) {
	rng := eventsim.NewRNG(7)
	tr := &Trace{}
	at := time.Duration(0)
	// Bursty start, then steady pacing over ~120 s.
	for i := 0; i < 4000; i++ {
		gap := 0.03
		if i < 400 {
			gap = 0.01
		}
		at += time.Duration(rng.Uniform(0.2, 1.8) * gap * float64(time.Second))
		tr.Append(mkRecord(t, at.Seconds(), 400+rng.Intn(600), uint16(i)))
	}
	f := tr.SplitFlows()[0]
	m := replayMetrics(f)
	if got, want := m.BurstRatio(), traceBurstRatio(f); got != want {
		t.Fatalf("burst ratio: online %v vs trace %v", got, want)
	}
	if m.BurstRatio() <= 1 {
		t.Fatalf("expected a startup burst, got %v", m.BurstRatio())
	}
}

// TestFlowDemuxMatchesSplitFlows pins the online demultiplexer against the
// trace-based partition on randomized captures: same flows, same order,
// and per-flow analyzer state identical to replaying the split flows.
func TestFlowDemuxMatchesSplitFlows(t *testing.T) {
	rng := eventsim.NewRNG(99)
	for round := 0; round < 10; round++ {
		tr := randomTrace(t, rng, 500)
		dx := NewFlowDemux()
		n := tr.Len()
		for i := 0; i < n; i++ {
			r := tr.At(i)
			dx.Observe(&r)
		}
		split := tr.SplitFlows()
		online := dx.Flows()
		if len(online) != len(split) {
			t.Fatalf("flows: %d online vs %d split", len(online), len(split))
		}
		for i, ft := range split {
			if online[i].Flow != ft.Flow {
				t.Fatalf("flow %d order: %v vs %v", i, online[i].Flow, ft.Flow)
			}
			if !metricsEqual(online[i].Metrics, replayMetrics(ft)) {
				t.Fatalf("flow %v: online metrics differ from replayed trace metrics", ft.Flow)
			}
		}
		// FlowTo and demux To agree on port lookups.
		for _, port := range []inet.Port{inet.PortMMSData, inet.PortRDTData, 9000, 1} {
			ft, fs := tr.FlowTo(port), dx.To(port)
			if (ft == nil) != (fs == nil) {
				t.Fatalf("port %d: FlowTo nil=%v, demux nil=%v", port, ft == nil, fs == nil)
			}
			if ft != nil && fs.Flow != ft.Flow {
				t.Fatalf("port %d: different flows", port)
			}
		}
	}
}

// metricsEqual compares two analyzers through every derived reduction a
// profile consumes — bitwise, the online/trace parity contract.
func metricsEqual(a, b *FlowMetrics) bool {
	af, al := a.Span()
	bf, bl := b.Span()
	return a.Packets() == b.Packets() &&
		a.Fragmentation() == b.Fragmentation() &&
		a.Sizes().Summary() == b.Sizes().Summary() &&
		a.FirstSizes().Summary() == b.FirstSizes().Summary() &&
		a.GroupInterarrivals().Summary() == b.GroupInterarrivals().Summary() &&
		a.AverageRate() == b.AverageRate() &&
		a.BurstRatio() == b.BurstRatio() &&
		af == bf && al == bl
}

// TestRateAccumulatorMatchesBandwidthSeries pins the online bucketing
// against FlowTrace.BandwidthSeries exactly.
func TestRateAccumulatorMatchesBandwidthSeries(t *testing.T) {
	rng := eventsim.NewRNG(5)
	tr := randomTrace(t, rng, 400)
	for _, f := range tr.SplitFlows() {
		ra := &RateAccumulator{Width: time.Second}
		f.Replay(ra)
		got, want := ra.Series(), f.BandwidthSeries(time.Second)
		if len(got) != len(want) {
			t.Fatalf("buckets: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("bucket %d: %+v vs %+v", i, got[i], want[i])
			}
		}
	}
}

// TestTrainTallyMatchesTrainLengths pins the online train-length tally.
func TestTrainTallyMatchesTrainLengths(t *testing.T) {
	rng := eventsim.NewRNG(6)
	tr := randomTrace(t, rng, 400)
	for _, f := range tr.SplitFlows() {
		tt := &TrainTally{}
		f.Replay(tt)
		got, want := tt.Lengths(), f.TrainLengths()
		if len(got) != len(want) {
			t.Fatalf("trains: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("train %d: %d vs %d", i, got[i], want[i])
			}
		}
	}
}

// TestSequenceWindowMatchesSequencePoints pins the online sequence view.
func TestSequenceWindowMatchesSequencePoints(t *testing.T) {
	rng := eventsim.NewRNG(8)
	tr := randomTrace(t, rng, 400)
	from, to := 500*time.Millisecond, 3*time.Second
	for _, f := range tr.SplitFlows() {
		sw := &SequenceWindow{From: from, To: to}
		f.Replay(sw)
		got, want := sw.Points(), f.SequencePoints(from, to)
		if len(got) != len(want) {
			t.Fatalf("points: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("point %d: %+v vs %+v", i, got[i], want[i])
			}
		}
	}
}

// TestDemuxExtraAnalyzers checks the per-flow Extra factory wiring.
func TestDemuxExtraAnalyzers(t *testing.T) {
	rng := eventsim.NewRNG(11)
	tr := randomTrace(t, rng, 200)
	dx := NewFlowDemux()
	dx.Extra = func(inet.Flow) Tap { return &TrainTally{} }
	n := tr.Len()
	for i := 0; i < n; i++ {
		r := tr.At(i)
		dx.Observe(&r)
	}
	for i, fs := range dx.Flows() {
		want := tr.SplitFlows()[i].TrainLengths()
		got := fs.Extra.(*TrainTally).Lengths()
		if len(got) != len(want) {
			t.Fatalf("flow %v extra tally: %d vs %d trains", fs.Flow, len(got), len(want))
		}
	}
}

// TestTapSteadyStateAllocFree is the allocation pin for the online path:
// once every flow and fragment-train table exists, demultiplexing and
// analysing one record — fragments, continuations and orphans included,
// the record mix full netem impairment produces — must not allocate.
func TestTapSteadyStateAllocFree(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation pins are unreliable under -race")
	}
	// One fragmented datagram's worth of records per flow, reused as the
	// steady-state observation stream.
	var recs []Record
	for _, port := range []inet.Port{inet.PortMMSData, inet.PortRDTData} {
		d, err := inet.BuildUDP(inet.Endpoint{Addr: serverAddr, Port: port}, cliEP, 1000, make([]byte, 4000))
		if err != nil {
			t.Fatal(err)
		}
		frags, err := inet.Fragment(d, inet.DefaultMTU)
		if err != nil {
			t.Fatal(err)
		}
		for j, f := range frags {
			recs = append(recs, parseRecord(time.Duration(j)*time.Millisecond, netsim.Recv, f))
		}
	}
	// An orphan continuation (unknown train) rides along.
	orphan := recs[1]
	orphan.IPID = 9999
	recs = append(recs, orphan)

	dx := NewFlowDemux()
	// Metrics collection rides the same per-packet path, so the pin runs
	// with it enabled: a CounterTap fed from a live obs registry observes
	// every record alongside the demux.
	reg := obs.NewRegistry()
	meter := &CounterTap{
		Records: reg.Counter("pkts_total", "packets"),
		Bytes:   reg.Counter("bytes_total", "bytes"),
	}
	at := time.Duration(0)
	id := uint16(0)
	// One persistent scratch record, as the sniffer keeps: a fresh stack
	// record per observation would escape through the Tap interface call
	// and charge a spurious allocation to the path under test.
	var r Record
	warm := func() {
		at += 40 * time.Millisecond
		id++
		for i := range recs {
			r = recs[i]
			r.At = at + time.Duration(i)*time.Millisecond
			r.IPID += id
			dx.Observe(&r)
			meter.Observe(&r)
		}
	}
	// Warm: discover flows, allocate train tables, grow tail rings past
	// the steady-state working set.
	for i := 0; i < 2000; i++ {
		warm()
	}
	allocs := testing.AllocsPerRun(1000, warm)
	if allocs > 0 {
		t.Fatalf("tap path allocates %.3f times per observation batch, want 0", allocs)
	}
}

// TestFlowRecorderMatchesSplitFlows pins the payload-free flow recorder
// behind core's RetainFlows: fed through the demux's Extra factory, each
// recorder's FlowTrace equals the stored trace's SplitFlows view record
// for record, payload aside, and a flow handed out survives the
// recorder's reuse for the next flows.
func TestFlowRecorderMatchesSplitFlows(t *testing.T) {
	sameFlow := func(got, want *FlowTrace) string {
		if got.Flow != want.Flow || got.Len() != want.Len() {
			return fmt.Sprintf("%v with %d records, want %v with %d", got.Flow, got.Len(), want.Flow, want.Len())
		}
		for j := 0; j < want.Len(); j++ {
			a, b := got.At(j), want.At(j)
			if a.Wire() != nil {
				return fmt.Sprintf("record %d kept its payload", j)
			}
			b.wire = nil
			if !reflect.DeepEqual(a, b) {
				return fmt.Sprintf("record %d:\n%+v\n%+v", j, a, b)
			}
		}
		return ""
	}
	rng := eventsim.NewRNG(7)
	var recs []*FlowRecorder
	var first [][2]*FlowTrace // round 0's flows, rechecked after reuse
	for round := 0; round < 3; round++ {
		tr := randomTrace(t, rng, 400)
		dx := NewFlowDemux()
		next := 0
		dx.Extra = func(f inet.Flow) Tap {
			if next == len(recs) {
				recs = append(recs, &FlowRecorder{})
			}
			fr := recs[next]
			next++
			fr.Reset(f)
			return fr
		}
		for i := 0; i < tr.Len(); i++ {
			r := tr.At(i)
			dx.Observe(&r)
		}
		split := tr.SplitFlows()
		if next != len(split) {
			t.Fatalf("round %d: %d recorders for %d flows", round, next, len(split))
		}
		for i, want := range split {
			got := recs[i].FlowTrace()
			if msg := sameFlow(got, want); msg != "" {
				t.Fatalf("round %d flow %d: %s", round, i, msg)
			}
			if round == 0 {
				first = append(first, [2]*FlowTrace{got, want})
			}
		}
	}
	for i, p := range first {
		if msg := sameFlow(p[0], p[1]); msg != "" {
			t.Fatalf("round 0 flow %d changed after its recorder was reused: %s", i, msg)
		}
	}
}
