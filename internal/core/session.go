package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"turbulence/internal/capture"
	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/media"
	"turbulence/internal/netem"
	"turbulence/internal/netsim"
	"turbulence/internal/obs"
	"turbulence/internal/probe"
	"turbulence/internal/tracker"
)

// Port conventions for experiment sessions on the client.
const (
	WMPCtlPort  = 4001
	WMPDataPort = 4002
	RDTCtlPort  = 5001
	RDTDataPort = 5002
)

// PairRun is the result of the paper's unit experiment: one clip pair
// (identical content, both formats) streamed simultaneously from its site
// to the client, with full instrumentation.
type PairRun struct {
	Set   int
	Class media.Class
	Site  SiteProfile

	// Application-layer reports from the two instrumented players.
	WMP  *tracker.Report
	Real *tracker.Report

	// Network-layer capture at the client NIC (inbound only).
	Trace    *capture.Trace
	WMPFlow  *capture.FlowTrace
	RealFlow *capture.FlowTrace

	// Network-conditions checks run around the experiment, per the
	// methodology (§2.D: "Before and after each run, ping and tracert
	// were run").
	PingBefore, PingAfter *probe.PingReport
	Route                 *probe.TraceReport

	// Scenario names the netem scenario the run streamed under ("" = the
	// faithful testbed).
	Scenario string

	// Path drop breakdowns, collected from the hop counters after the
	// run: Downlink is the site-to-client direction (the media flows),
	// Uplink the client-to-site control direction. The three drop causes
	// stay separate so model loss is distinguishable from AQM early drops
	// and queue overflow in every report.
	Downlink, Uplink netsim.PathStats

	// Sim holds the run's scheduler counters. Deterministic for a given
	// seed — the same cell yields the same counts on any worker layout —
	// so they feed metrics without threatening reproducibility.
	Sim SimCounters
}

// SimCounters is one run's eventsim activity summary.
type SimCounters struct {
	TimersScheduled uint64 // events ever pushed onto the scheduler
	EventsFired     uint64 // events dispatched
	HeapPeak        int    // high-water pending-event count
	// Deprecated: WheelPeak is always zero (the scheduler has no timing
	// wheel); it remains only for existing readers.
	WheelPeak int
}

// Clips returns the pair's clips (Real, WindowsMedia).
func (r *PairRun) Clips() (media.Clip, media.Clip) {
	p, _ := media.FindPair(r.Set, r.Class)
	return p.Real, p.WindowsMedia
}

// Options select ablation variants of the pair experiment (DESIGN.md §4).
// The zero value is the faithful reproduction.
type Options struct {
	// WMSUnitCap bounds the WMS data-unit payload; sub-MTU values
	// eliminate fragmentation ("what if WMS packetised like RealServer").
	WMSUnitCap int
	// UncappedBurst removes the bottleneck cap on Real's buffering burst.
	UncappedBurst bool
	// DisableInterleave delivers WMP units to the application as they
	// arrive rather than in one-second batches.
	DisableInterleave bool
	// Sequential streams the two formats one after the other instead of
	// simultaneously (methodology ablation).
	Sequential bool
	// BottleneckBps overrides the site's server-access bandwidth for the
	// constrained-bandwidth experiments the paper's future work proposes
	// (0 = the site's faithful value).
	BottleneckBps float64
	// EnableScaling turns on both stacks' media scaling (loss-feedback
	// stream thinning), the capability §VI says both players have. The
	// faithful reproduction leaves it off: the paper measured typical
	// uncongested conditions where scaling never engages.
	EnableScaling bool
	// Scenario streams the pair under a netem scenario: every site path's
	// hops are impaired by role (bursty loss, time-varying bandwidth,
	// AQM, cross traffic). Nil — and the built-in "paper-baseline" —
	// reproduce the faithful testbed byte for byte.
	Scenario *netem.Scenario
}

// runPair is the single pair-experiment executor every Runner cell —
// sweep or one-off — funnels through. The context is polled between
// simulation events (the scheduler's interrupt seam), so a cancelled ctx
// aborts the run promptly mid-stream and returns ctx.Err().
//
// Under every retention each captured record streams through the
// worker's pooled online flow-demultiplexing analyzer, and both flows'
// profiles come back as a Comparison computed from the analyzer state.
// The retention decides only what else the run keeps. RetainTraces has
// the sniffer store every record too, and sets Trace with its WMPFlow and
// RealFlow views. StreamProfiles stores nothing and keeps no Trace or
// flow views. RetainFlows stores nothing either but records the two media
// data flows, payload-free, through the demux's per-flow Extra tap (see
// capture.FlowRecorder), so WMPFlow and RealFlow are set while Trace
// stays nil. Everything else — tracker reports, probes, path stats — is
// identical, and the profiles are exactly equal to what profiling the
// retained flows yields, because ProfileFlow replays stored flows through
// the same analyzer.
//
// A non-nil sink attaches a capture.CounterTap to the sniffer (packet and
// byte volume, two atomic adds per record — the tap path's allocation pin
// covers it). Sim counters and drop tallies are read from the finished
// PairRun by the Runner, not here, keeping the sink out of the sim.
//
// The cache serves the testbed (reset-reused across the worker's runs)
// and the pooled analysis scratch. The run's bytes are identical either
// way: reuse is pinned equal to construction.
func runPair(ctx context.Context, seed int64, set int, class media.Class, opts Options, retention TraceRetention, sink *obs.Sink, cache *TestbedCache) (*PairRun, *Comparison, error) {
	pair, ok := media.FindPair(set, class)
	if !ok {
		return nil, nil, fmt.Errorf("core: Table 1 has no set %d / %v pair", set, class)
	}
	tb := cache.Get(seed, set, opts)
	site := tb.Site(set)
	run := &PairRun{Set: set, Class: class, Site: site.Profile}
	if opts.Scenario != nil {
		run.Scenario = opts.Scenario.Name
	}
	if opts.WMSUnitCap > 0 {
		site.WMS.SetUnitCap(opts.WMSUnitCap)
	}
	if opts.UncappedBurst {
		site.RDT.SetUncappedBurst(true)
	}
	if opts.EnableScaling {
		site.WMS.EnableScaling(true)
		site.RDT.EnableScaling(true)
	}

	sniff := capture.Attach(tb.Client)
	sniff.RecvOnly = true
	sniff.SetStore(retention == RetainTraces)
	if sink != nil {
		sniff.AddTap(&capture.CounterTap{Records: sink.Packets, Bytes: sink.Bytes})
	}
	demux := cache.demux()
	demux.Extra = nil
	if retention == RetainFlows {
		demux.Extra = cache.flowRecorders()
	}
	sniff.AddTap(demux)

	// Pre-run network checks.
	pingBefore := probe.StartPing(tb.Client, site.Profile.Addr, probe.PingOptions{Count: 10, Interval: 200 * time.Millisecond, ID: 100}, nil)
	tracer := probe.StartTrace(tb.Client, site.Profile.Addr, probe.TraceOptions{ID: 101}, nil)

	// Start both players simultaneously once the checks have had a
	// moment, mirroring the methodology.
	const checksLead = 5 * time.Second
	var wmpDone, realDone bool
	var realTrk *tracker.RealTracker
	var wmpTrk *tracker.MediaTracker
	startReal := func() {
		realTrk = tracker.StartRealTracker(tb.Client, site.RDT, pair.Real.Name(), RDTCtlPort, RDTDataPort,
			func(rep *tracker.Report) { run.Real = rep; realDone = true })
	}
	// startWMP honours the interleave ablation on every path — including
	// the Sequential branch, so Sequential+DisableInterleave composes.
	startWMP := func(onDone func()) {
		mt := tracker.StartMediaTracker(tb.Client, site.WMS, pair.WindowsMedia.Name(), WMPCtlPort, WMPDataPort,
			func(rep *tracker.Report) {
				run.WMP = rep
				wmpDone = true
				if onDone != nil {
					onDone()
				}
			})
		if opts.DisableInterleave {
			mt.Player().DisableInterleave()
		}
		wmpTrk = mt
	}
	tb.Net.Sched.After(checksLead, "session.startPair", func(eventsim.Time) {
		if opts.Sequential {
			// Methodology ablation: WMP first, then Real.
			startWMP(startReal)
			return
		}
		startWMP(nil)
		startReal()
	})

	// Post-run ping, fired once both players finish.
	var pingAfter *probe.Pinger
	dur := pair.Real.Duration // both clips of a set run the same length
	horizon := checksLead + dur + 3*time.Minute + opts.Scenario.Slack()
	if opts.Sequential {
		horizon += dur + 3*time.Minute
	}
	stopWatch := tb.Net.Sched.Ticker(time.Second, "session.watch", func(now eventsim.Time) bool {
		if wmpDone && realDone && pingAfter == nil {
			pingAfter = probe.StartPing(tb.Client, site.Profile.Addr, probe.PingOptions{Count: 10, Interval: 200 * time.Millisecond, ID: 102}, nil)
			return false
		}
		return true
	})
	if ctx.Done() != nil {
		tb.Net.Sched.SetInterrupt(func() bool { return ctx.Err() != nil })
	}
	if err := tb.Net.Run(eventsim.Time(horizon)); err != nil {
		if errors.Is(err, eventsim.ErrInterrupted) {
			return nil, nil, ctx.Err()
		}
		return nil, nil, err
	}
	stopWatch()
	if !wmpDone || !realDone {
		return nil, nil, fmt.Errorf("core: pair %d/%v did not complete within horizon (wmp=%t real=%t)", set, class, wmpDone, realDone)
	}
	// The event loop has fully drained — nothing can deliver to the
	// players anymore — so their pooled assembly state can recycle for
	// the next run, and so can the wire buffers of fragment trains that
	// lost a fragment, on every host.
	realTrk.Player().Release()
	wmpTrk.Player().Release()
	tb.Net.ReleaseFragments()

	run.PingBefore = pingBefore.Report()
	if pingAfter != nil {
		run.PingAfter = pingAfter.Report()
	}
	run.Route = tracer.Report()
	if p := tb.Net.PathBetween(site.Profile.Addr, ClientAddr); p != nil {
		run.Downlink = p.Stats()
	}
	if p := tb.Net.PathBetween(ClientAddr, site.Profile.Addr); p != nil {
		run.Uplink = p.Stats()
	}
	run.Sim = SimCounters{
		TimersScheduled: tb.Net.Sched.Scheduled(),
		EventsFired:     tb.Net.Sched.Fired(),
		HeapPeak:        tb.Net.Sched.PeakQueue(),
	}
	wmp, real := demux.To(WMPDataPort), demux.To(RDTDataPort)
	if wmp == nil || real == nil {
		return nil, nil, fmt.Errorf("core: pair %d/%v missing data flows in capture", set, class)
	}
	cmp := &Comparison{
		Set:       run.Set,
		ClassName: run.Class.String(),
		Real:      ProfileFromMetrics(real.Metrics),
		WMP:       ProfileFromMetrics(wmp.Metrics),
	}
	switch retention {
	case RetainFlows:
		run.WMPFlow = wmp.Extra.(*capture.FlowRecorder).FlowTrace()
		run.RealFlow = real.Extra.(*capture.FlowRecorder).FlowTrace()
	case RetainTraces:
		run.Trace = sniff.Trace()
		run.WMPFlow = run.Trace.FlowTo(WMPDataPort)
		run.RealFlow = run.Trace.FlowTo(RDTDataPort)
	}
	return run, cmp, nil
}

// PairKey identifies one pair experiment.
type PairKey struct {
	Set   int
	Class media.Class
}

// AllPairs lists the 13 pair experiments of Table 1 in order.
func AllPairs() []PairKey {
	var out []PairKey
	for _, s := range media.Library() {
		for _, c := range s.Classes() {
			out = append(out, PairKey{Set: s.Set, Class: c})
		}
	}
	return out
}

// SeedFor derives a per-pair seed from a base seed so runs are independent
// but reproducible. Every execution path — sequential or parallel — seeds
// a pair experiment through this one function, which is what makes the two
// paths byte-identical.
func SeedFor(base int64, k PairKey) int64 {
	return base*1000003 + int64(k.Set)*101 + int64(k.Class)*13
}

// DataEndpointWMP returns the client data endpoint for MediaPlayer flows.
func DataEndpointWMP() inet.Endpoint {
	return inet.Endpoint{Addr: ClientAddr, Port: WMPDataPort}
}

// DataEndpointReal returns the client data endpoint for RealPlayer flows.
func DataEndpointReal() inet.Endpoint {
	return inet.Endpoint{Addr: ClientAddr, Port: RDTDataPort}
}
