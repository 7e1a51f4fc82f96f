// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per artifact, plus the DESIGN.md §4 ablations and
// substrate micro-benchmarks. Each figure bench performs the complete
// regeneration — simulated streaming runs included — so `go test -bench=.`
// reproduces the entire evaluation from scratch.
package turbulence_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"turbulence"
	"turbulence/internal/capture"
	"turbulence/internal/dispatch"
	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/netem"
	"turbulence/internal/netsim"
	"turbulence/internal/racecheck"
	"turbulence/internal/segment"
	"turbulence/internal/wire"
)

// benchExperiment runs one registered experiment per iteration with a
// fresh context (no run caching), so the bench measures full regeneration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		ctx := turbulence.NewExperimentContext(2002)
		res, err := turbulence.RunExperiment(ctx, id)
		if err != nil {
			b.Fatal(err)
		}
		if res == nil || res.ID != id {
			b.Fatalf("bad result for %s", id)
		}
	}
}

func BenchmarkTable1DataSets(b *testing.B)                 { benchExperiment(b, "table1") }
func BenchmarkFig01RTTCDF(b *testing.B)                    { benchExperiment(b, "fig01") }
func BenchmarkFig02HopsCDF(b *testing.B)                   { benchExperiment(b, "fig02") }
func BenchmarkFig03PlaybackVsEncoding(b *testing.B)        { benchExperiment(b, "fig03") }
func BenchmarkFig04PacketArrivals(b *testing.B)            { benchExperiment(b, "fig04") }
func BenchmarkFig05Fragmentation(b *testing.B)             { benchExperiment(b, "fig05") }
func BenchmarkFig06PacketSizePDF(b *testing.B)             { benchExperiment(b, "fig06") }
func BenchmarkFig07NormalizedSizePDF(b *testing.B)         { benchExperiment(b, "fig07") }
func BenchmarkFig08InterarrivalPDF(b *testing.B)           { benchExperiment(b, "fig08") }
func BenchmarkFig09NormalizedInterarrivalCDF(b *testing.B) { benchExperiment(b, "fig09") }
func BenchmarkFig10BandwidthTimeline(b *testing.B)         { benchExperiment(b, "fig10") }
func BenchmarkFig11BufferingRatio(b *testing.B)            { benchExperiment(b, "fig11") }
func BenchmarkFig12InterleavingDelivery(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13FrameRateTimeline(b *testing.B)         { benchExperiment(b, "fig13") }
func BenchmarkFig14FrameRateVsEncoding(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkFig15FrameRateVsBandwidth(b *testing.B)      { benchExperiment(b, "fig15") }
func BenchmarkSec4FlowGenerator(b *testing.B)              { benchExperiment(b, "sec4") }

// Extension benches (paper §VI future work and §I/§II.D transport claim).
func BenchmarkExtensionMediaScaling(b *testing.B) { benchExperiment(b, "ext-scaling") }
func BenchmarkExtensionUDPvsTCP(b *testing.B)     { benchExperiment(b, "ext-tcp") }

// BenchmarkExtNetemScenarios regenerates the scenario-matrix extension:
// 54 streamed cells (every high-class pair under every named scenario),
// each scenario a testbed shape of its own.
func BenchmarkExtNetemScenarios(b *testing.B) { benchExperiment(b, "ext-netem-scenarios") }

// Ablation benches (DESIGN.md §4).
func BenchmarkAblationNoFragmentation(b *testing.B)   { benchExperiment(b, "ablation-nofrag") }
func BenchmarkAblationUncappedBuffering(b *testing.B) { benchExperiment(b, "ablation-uncapped") }
func BenchmarkAblationNoInterleave(b *testing.B)      { benchExperiment(b, "ablation-nointerleave") }
func BenchmarkAblationSequential(b *testing.B)        { benchExperiment(b, "ablation-sequential") }

// BenchmarkPairRun measures one complete paired streaming experiment
// (the unit of every figure above): handshake, probes, two full clip
// streams over a 15-hop path, capture and analysis.
func BenchmarkPairRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, err := turbulence.RunPair(2002, 2, turbulence.High, turbulence.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if run.Trace.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkPairRunNetem is BenchmarkPairRun through the netem scenario
// layer: once under paper-baseline (whose models are all defaults, so
// allocs/op must equal BenchmarkPairRun exactly — the zero-cost guarantee)
// and once under an impaired scenario (whose only alloc growth is the
// fixed per-testbed model construction; steady-state forwarding stays
// allocation-free, pinned by netsim's TestForwardSteadyStateAllocFree).
func BenchmarkPairRunNetem(b *testing.B) {
	for _, name := range []string{"paper-baseline", "lossy-wifi"} {
		sc, err := turbulence.FindScenario(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := turbulence.RunPair(2002, 2, turbulence.High,
					turbulence.Options{Scenario: sc})
				if err != nil {
					b.Fatal(err)
				}
				if run.Trace.Len() == 0 {
					b.Fatal("empty trace")
				}
			}
		})
	}
}

// BenchmarkNAKRecovery is the layer benchmark of RealPlayer NAK recovery
// (internal/rdt): one forced-overflow cell on a warm single-worker Runner
// — set 2 high under flash-crowd at the reference seed, where the
// bottleneck queue overflows and the player recovers the lost packets by
// NAK and retransmission. Besides allocs/op it reports ns/retransmit, the
// cell's time per retransmitted packet the player recovered.
func BenchmarkNAKRecovery(b *testing.B) {
	sc, err := turbulence.FindScenario("flash-crowd")
	if err != nil {
		b.Fatal(err)
	}
	plan := turbulence.NewPlan(2002).
		ForPairs(turbulence.PairKey{Set: 2, Class: turbulence.High}).
		UnderScenarios(sc)
	runner := turbulence.NewRunner(
		turbulence.WithWorkers(1),
		turbulence.WithTraceRetention(turbulence.StreamProfiles),
	)
	cell := func() (recovered int) {
		results, err := runner.Run(plan)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.Run.Downlink.DroppedFull == 0 || res.Run.Real.PacketsRecovered == 0 {
				b.Fatal("cell has no queue overflow to recover from")
			}
			recovered = res.Run.Real.PacketsRecovered
		}
		return recovered
	}
	cell() // warm the runner's testbed and pools
	b.ReportAllocs()
	b.ResetTimer()
	recovered := 0
	for i := 0; i < b.N; i++ {
		recovered += cell()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(recovered), "ns/retransmit")
}

// BenchmarkRunAllSequential regenerates all 13 Table 1 pair experiments on
// one core — the workload behind every all-data-set figure. Each iteration
// runs the default Plan on a new sequential Runner, so no testbed carries
// over between iterations.
func BenchmarkRunAllSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := turbulence.NewRunner(turbulence.WithWorkers(1)).Run(turbulence.NewPlan(2002))
		if err != nil {
			b.Fatal(err)
		}
		if len(runs) != 13 {
			b.Fatalf("got %d runs", len(runs))
		}
	}
}

// BenchmarkRunAllParallel is the same workload fanned out across all
// cores; results are byte-identical to the sequential run.
func BenchmarkRunAllParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := turbulence.NewRunner(turbulence.WithWorkers(0)).Run(turbulence.NewPlan(2002))
		if err != nil {
			b.Fatal(err)
		}
		if len(runs) != 13 {
			b.Fatalf("got %d runs", len(runs))
		}
	}
}

// BenchmarkPlanStream measures the Plan/Runner engine end to end on the
// paper's full sweep: 13 pair cells declared by the default Plan, fanned
// across all cores and collected by Run with full traces retained, each
// cell profiled once more from its trace by Compare — the record storage
// and trace-based analysis that BenchmarkPlanStreamOnline does without.
// Every cell also pays for the online profiles all retentions compute.
func BenchmarkPlanStream(b *testing.B) {
	plan := turbulence.NewPlan(2002)
	runner := turbulence.NewRunner(
		turbulence.WithWorkers(0),
		turbulence.WithTraceRetention(turbulence.RetainTraces),
	)
	for i := 0; i < b.N; i++ {
		results, err := runner.Run(plan)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.Run.Trace == nil {
				b.Fatal("retention contract violated")
			}
			if c := turbulence.Compare(res.Run); c.WMP.Packets == 0 {
				b.Fatal("empty profile")
			}
		}
		if len(results) != plan.Size() {
			b.Fatalf("collected %d cells, want %d", len(results), plan.Size())
		}
	}
}

// BenchmarkPlanStreamOnline is BenchmarkPlanStream under StreamProfiles:
// the same 13-pair sweep, but no run ever materialises a trace — captured
// packets stream through online per-flow analyzers and the profiles come
// back in RunResult.Comparison. The delta against BenchmarkPlanStream is
// the whole point of online analysis: record storage, the payload arena
// and the second profiling pass all disappear, and the network's wire
// buffers recycle without capture ever pinning them. The runner is the
// configuration that ships — testbed reuse and the heap scheduler — so
// this is the number BENCH_heap.json tracks; output is byte-identical to
// the fresh-testbed sweep (pinned by TestReusedMatchesFresh).
func BenchmarkPlanStreamOnline(b *testing.B) {
	plan := turbulence.NewPlan(2002)
	runner := turbulence.NewRunner(
		turbulence.WithWorkers(0),
		turbulence.WithTraceRetention(turbulence.StreamProfiles),
	)
	for i := 0; i < b.N; i++ {
		results, err := runner.Run(plan)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.Comparison == nil || res.Run.Trace != nil {
				b.Fatal("retention contract violated")
			}
		}
		if len(results) != plan.Size() {
			b.Fatalf("collected %d cells, want %d", len(results), plan.Size())
		}
	}
}

// BenchmarkFlowGeneration measures the Section IV synthetic generator
// alone: one 60-second flow per iteration from a pre-fitted model.
func BenchmarkFlowGeneration(b *testing.B) {
	run, err := turbulence.RunPair(2002, 2, turbulence.High, turbulence.Options{})
	if err != nil {
		b.Fatal(err)
	}
	model := turbulence.FitModel(run.WMPFlow)
	rng := turbulence.NewRNG(1)
	flow := run.WMPFlow.Flow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := turbulence.GenerateFlow(model, rng, 60*time.Second, flow)
		if tr.Len() == 0 {
			b.Fatal("empty generated trace")
		}
	}
}

// BenchmarkProfileFlow measures the turbulence analysis alone on a
// captured high-rate flow.
func BenchmarkProfileFlow(b *testing.B) {
	run, err := turbulence.RunPair(2002, 1, turbulence.High, turbulence.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := turbulence.ProfileFlow(run.WMPFlow)
		if p.Packets == 0 {
			b.Fatal("empty profile")
		}
	}
}

// goldenRecords materialises every record of the golden-seed 2/high pair
// run's retained capture, so demux replays measure routing and analysis
// only, not reading the columnar store.
func goldenRecords(tb testing.TB) []capture.Record {
	tb.Helper()
	run, err := turbulence.RunPair(2002, 2, turbulence.High, turbulence.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	recs := make([]capture.Record, run.Trace.Len())
	for i := range recs {
		recs[i] = run.Trace.At(i)
	}
	return recs
}

// replayDemux resets a reused demux and feeds it every record, as a sweep
// worker's pooled demux sees one StreamProfiles cell's capture.
func replayDemux(dx *turbulence.FlowDemux, recs []capture.Record) {
	dx.Reset()
	for i := range recs {
		dx.Observe(&recs[i])
	}
}

// warmDemux returns a demux that has replayed recs twice: the first pass
// discovers the flows and allocates the train tables; Reset recycles flow
// analyzers last-in first-out, so the second pass hands each flow another
// flow's analyzer and grows its tail ring once. From then on a replay
// allocates nothing.
func warmDemux(recs []capture.Record) *turbulence.FlowDemux {
	dx := turbulence.NewFlowDemux()
	replayDemux(dx, recs)
	replayDemux(dx, recs)
	return dx
}

// BenchmarkFlowDemuxObserve measures the online analysis a streamed cell
// runs per captured record — FlowDemux routing (continuation fragments
// included) plus FlowMetrics accumulation — over the golden-seed 2/high
// capture, one reused demux Reset per replay. Reports ns/record.
func BenchmarkFlowDemuxObserve(b *testing.B) {
	recs := goldenRecords(b)
	dx := warmDemux(recs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayDemux(dx, recs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
}

// TestFlowDemuxObserveAllocFree is the allocation pin for the path
// BenchmarkFlowDemuxObserve measures: once a demux has settled on the
// capture's flows, Reset and a full replay allocate nothing.
func TestFlowDemuxObserveAllocFree(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation pins are unreliable under -race")
	}
	recs := goldenRecords(t)
	dx := warmDemux(recs)
	if allocs := testing.AllocsPerRun(5, func() { replayDemux(dx, recs) }); allocs > 0 {
		t.Fatalf("replaying %d records allocates %.1f times, want 0", len(recs), allocs)
	}
}

// BenchmarkFilterMatch measures display-filter evaluation over a full
// trace.
func BenchmarkFilterMatch(b *testing.B) {
	run, err := turbulence.RunPair(2002, 1, turbulence.High, turbulence.Options{})
	if err != nil {
		b.Fatal(err)
	}
	// Continuation fragments carry no transport ports, so match them by
	// address, fragment state and wire size.
	f, err := turbulence.CompileFilter("ip.dst == 130.215.10.5 && ip.contfrag && size >= 1514")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.Apply(run.Trace).Len() == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkTestbedReset measures rewinding the full apparatus — network,
// hosts, hops, both stacks at six sites, capture — for reuse: the
// per-cell cost a cached sweep pays instead of construction. Compare
// against BenchmarkPairRun's first-iteration build to see the gap the
// TestbedCache closes.
func BenchmarkTestbedReset(b *testing.B) {
	tb := turbulence.NewTestbed(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Reset(int64(i + 2))
	}
}

// BenchmarkSchedulerDense drives a dense self-rescheduling timer workload
// — the event pattern packet pacing produces — through the scheduler's
// 4-ary heap. The sub-benchmark keeps the name "heap" so results compare
// against the committed records.
func BenchmarkSchedulerDense(b *testing.B) {
	const (
		timers = 4096                   // concurrent pacing loops
		step   = 800 * time.Microsecond // mean reschedule gap
		spread = 64 * time.Microsecond  // per-timer phase offset
	)
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := eventsim.NewScheduler()
			fired := 0
			var tick func(now eventsim.Time, arg any)
			tick = func(now eventsim.Time, arg any) {
				fired++
				k := arg.(int)
				s.AfterArg(eventsim.Duration(step+time.Duration(k%7)*spread), "dense.tick", tick, arg)
			}
			for k := 0; k < timers; k++ {
				s.AfterArg(eventsim.Duration(time.Duration(k)*spread), "dense.start", tick, k)
			}
			if err := s.Run(eventsim.Time(200 * time.Millisecond)); err != nil {
				b.Fatal(err)
			}
			if fired == 0 {
				b.Fatal("no events fired")
			}
		}
	})
}

// BenchmarkHopForward measures the hop-forwarding layer alone: each op
// offers a 32-datagram train to an 8-hop path whose middle hop is a
// 10 Mbps bottleneck, and runs the network to idle. The destination is
// not a host, so delivery and reassembly stay out of the number; ns/forward
// divides the time by the hop traversals the path counted. "bare" runs the
// spec-driven hops; "netem-red" puts bursty loss, a time-varying bandwidth
// profile, trunc-normal jitter and on/off cross traffic on every hop and
// RED on the bottleneck's standing queue.
func BenchmarkHopForward(b *testing.B) {
	const (
		hops  = 8
		train = 32
	)
	src := inet.MakeAddr(130, 215, 10, 5)
	dst := inet.Endpoint{Addr: inet.MakeAddr(207, 46, 1, 9), Port: 1}
	run := func(b *testing.B, im, bottleneckIm netem.Impairment) {
		n := netsim.New(1)
		h := n.AddHost(src)
		specs := make([]netsim.HopSpec, hops)
		for i := range specs {
			specs[i] = netsim.HopSpec{
				Addr:      inet.MakeAddr(10, 0, 3, byte(i+1)),
				Bandwidth: 100e6,
				PropDelay: 2 * time.Millisecond,
				JitterMax: 200 * time.Microsecond,
				Impair:    im,
			}
		}
		specs[hops/2].Bandwidth = 10e6
		specs[hops/2].Impair = bottleneckIm
		fwd, _ := n.ConnectDuplex(src, dst.Addr, specs)
		payload := make([]byte, 972)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < train; k++ {
				h.SendUDP(2, dst, payload)
			}
			if err := n.Run(0); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if f := fwd.Stats().Forwarded; f > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(f), "ns/forward")
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, netem.Impairment{}, netem.Impairment{}) })
	b.Run("netem-red", func(b *testing.B) {
		im := netem.Impairment{
			Loss:      func() netem.LossModel { return netem.GEFromBurst(0.01, 8, 0.3) },
			Bandwidth: netem.ScaledSinusoid(0.9, 0.3, 10*time.Second),
			Jitter: func() netem.DelayJitter {
				return netem.TruncNormal{Mean: time.Millisecond, StdDev: time.Millisecond, Max: 5 * time.Millisecond}
			},
			Cross: func() netem.CrossTraffic {
				return &netem.ParetoOnOff{Sources: 4, Rate: 1e6, Alpha: 1.5,
					OnMean: time.Second, OffMean: 3 * time.Second}
			},
		}
		red := im
		red.Queue = func(limit int) netem.Queue {
			return netem.NewRED(float64(limit)/10, float64(limit)/2, 0.1, 0.02)
		}
		run(b, im, red)
	})
}

// BenchmarkUDPBuildParse measures the inet codec between two stacks, one
// datagram per op: BuildUDPPooled (header, payload copy and checksum into
// a pooled wire buffer), fragmentation at a 1500-byte MTU, reassembly, and
// ParseUDP's checksum verification. 1400 B fits one packet; 16 KiB is a
// twelve-fragment train like a high-rate Windows Media data unit's.
// Reports ns/datagram and payload MB/s.
func BenchmarkUDPBuildParse(b *testing.B) {
	src := inet.Endpoint{Addr: inet.MakeAddr(207, 46, 1, 9), Port: inet.PortMMSData}
	dst := inet.Endpoint{Addr: inet.MakeAddr(130, 215, 10, 5), Port: 4002}
	for _, size := range []int{1400, 16 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			payload := segment.EncodeList([]segment.Segment{{Length: uint16(size - 12), Last: true}})
			var pool inet.BufPool
			reasm := inet.NewReassemblerPooled(&pool)
			var frags []*inet.Datagram
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := inet.BuildUDPPooled(&pool, src, dst, uint16(i), payload)
				if err != nil {
					b.Fatal(err)
				}
				if frags, err = inet.AppendFragments(frags[:0], d, 1500); err != nil {
					b.Fatal(err)
				}
				inet.SetFragmentRefs(frags)
				if len(frags) > 1 {
					d.Recycle()
				}
				var whole *inet.Datagram
				for _, f := range frags {
					if whole, err = reasm.Add(f, 0); err != nil {
						b.Fatal(err)
					}
				}
				_, got, err := inet.ParseUDP(whole.Header.Src, whole.Header.Dst, whole.Payload)
				if err != nil || len(got) != size {
					b.Fatalf("parse: %d bytes, %v", len(got), err)
				}
				whole.Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/datagram")
		})
	}
}

// segmentCases are the data packets the segment-list benchmarks encode and
// decode: a ~1 KB RealPlayer packet closing one frame and opening the
// next, and a 16 KiB Windows Media data unit spanning four frames.
var segmentCases = []struct {
	name string
	segs []segment.Segment
}{
	{"real-1KB", []segment.Segment{
		{FrameIndex: 7, Offset: 2600, Length: 380, Last: true},
		{FrameIndex: 8, Length: 600},
	}},
	{"wmp-16KB", []segment.Segment{
		{FrameIndex: 30, Offset: 1000, Length: 3000, Last: true},
		{FrameIndex: 31, Length: 4100, Key: true, Last: true},
		{FrameIndex: 32, Length: 4100, Last: true},
		{FrameIndex: 33, Length: 5142},
	}},
}

// BenchmarkSegmentAppendList measures encoding one data packet's segment
// list straight after its protocol header into a reused buffer, as the
// send paths do, for each of segmentCases. Reports payload MB/s.
func BenchmarkSegmentAppendList(b *testing.B) {
	header := make([]byte, 11)
	for _, c := range segmentCases {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, len(header)+segment.ListWireSize(c.segs))
			b.SetBytes(int64(segment.ListWireSize(c.segs)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = segment.AppendList(append(buf[:0], header...), c.segs)
			}
		})
	}
}

// BenchmarkSegmentDecodeListInto is BenchmarkSegmentAppendList's receive
// side: decoding each of segmentCases' encoded lists into one reused
// scratch slice, as both players' playout sinks do per data packet.
// Reports payload MB/s.
func BenchmarkSegmentDecodeListInto(b *testing.B) {
	for _, c := range segmentCases {
		b.Run(c.name, func(b *testing.B) {
			enc := segment.AppendList(nil, c.segs)
			scratch := make([]segment.Segment, 0, len(c.segs))
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				segs, err := segment.DecodeListInto(scratch[:0], enc)
				if err != nil || len(segs) != len(c.segs) {
					b.Fatalf("decoded %d segments, %v", len(segs), err)
				}
			}
		})
	}
}

// paperBatch is the paper sweep's 13 cells at seed 2002 under
// StreamProfiles, flattened to wire runs: what a worker ships for a
// one-shard lease of the default plan. Simulated once per test binary and
// shared by the wire and dispatch benchmarks, which time no simulation.
var paperBatch = sync.OnceValues(func() ([]wire.Run, error) {
	runner := turbulence.NewRunner(
		turbulence.WithWorkers(0),
		turbulence.WithTraceRetention(turbulence.StreamProfiles),
	)
	results, err := runner.Run(turbulence.NewPlan(2002))
	if err != nil {
		return nil, err
	}
	runs := wire.FromResults(results)
	for _, r := range runs {
		if r.Comparison == nil {
			return nil, fmt.Errorf("cell %d carries no profiles", r.Index)
		}
	}
	return runs, nil
})

// BenchmarkWireBatchGob measures the wire layer's shard-batch codec: one
// wire.WriteGob and one wire.ReadGob of the 13-cell paperBatch, with a
// fresh encoder and decoder per op as each Complete has. Reports the
// batch's encoded size.
func BenchmarkWireBatchGob(b *testing.B) {
	runs, err := paperBatch()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	encoded := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := wire.WriteGob(&buf, runs); err != nil {
			b.Fatal(err)
		}
		encoded = buf.Len()
		got, err := wire.ReadGob(&buf)
		if err != nil || len(got) != len(runs) {
			b.Fatalf("decoded %d runs, %v", len(got), err)
		}
	}
	b.ReportMetric(float64(encoded), "batch-B")
}

// BenchmarkLoopbackRoundTrip measures one dispatch round trip over
// dispatch.Loopback, the full wire path with no sockets: a Lease of the
// default plan as one shard, then a CompleteStats delivering the
// precomputed 13-run paperBatch with worker stats. Each op gets a fresh
// coordinator, built with the timer stopped.
func BenchmarkLoopbackRoundTrip(b *testing.B) {
	runs, err := paperBatch()
	if err != nil {
		b.Fatal(err)
	}
	plan := turbulence.NewPlan(2002)
	stats := &wire.WorkerStats{Version: wire.StatsVersion, Worker: "bench", Cells: len(runs)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := dispatch.New(plan, dispatch.WithShards(1))
		if err != nil {
			b.Fatal(err)
		}
		cl := dispatch.Loopback(c)
		b.StartTimer()
		grant, err := cl.Lease("bench")
		if err != nil || grant.LeaseID == "" {
			b.Fatalf("lease %+v: %v", grant, err)
		}
		if err := cl.CompleteStats(grant.LeaseID, runs, stats); err != nil {
			b.Fatal(err)
		}
	}
}
