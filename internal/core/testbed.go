// Package core assembles the substrates into the paper's experiment: a WPI
// client PC streaming identical content simultaneously in both formats
// from six Internet server sites, instrumented by MediaTracker,
// RealTracker, a packet sniffer, ping and tracert. It also implements the
// paper's analytical contribution — the characterisation of streaming
// "turbulence" (per-flow packet size/interarrival/fragmentation/burst
// structure) — and the Section IV synthetic flow generator fitted from
// measured distributions.
package core

import (
	"fmt"
	"time"

	"turbulence/internal/capture"
	"turbulence/internal/inet"
	"turbulence/internal/media"
	"turbulence/internal/netem"
	"turbulence/internal/netsim"
	"turbulence/internal/rdt"
	"turbulence/internal/wms"
)

// ClientAddr is the measurement client (a WPI campus address, as in the
// paper).
var ClientAddr = inet.MakeAddr(130, 215, 10, 5)

// SiteProfile describes one server site's network path, calibrated so the
// probe CDFs reproduce Figures 1-2 (median RTT ~40 ms, max ~160 ms, most
// paths 15-20 hops) and the bottlenecks reproduce Figure 11's buffering
// ratios.
type SiteProfile struct {
	Set        int
	Addr       inet.Addr
	Hops       int           // router hops client<->site
	BaseRTT    time.Duration // propagation-only round trip
	Bottleneck float64       // server-side access bandwidth, bits/second

	// Scenario impairs the path's hops by role (nil = the faithful
	// testbed). Installed via WithScenario at testbed construction.
	Scenario *netem.Scenario
}

// Sites returns the six server sites matching Table 1's data sets.
func Sites() []SiteProfile {
	return []SiteProfile{
		{Set: 1, Addr: inet.MakeAddr(207, 46, 1, 9), Hops: 16, BaseRTT: 33 * time.Millisecond, Bottleneck: 900e3},
		{Set: 2, Addr: inet.MakeAddr(209, 247, 2, 7), Hops: 15, BaseRTT: 27 * time.Millisecond, Bottleneck: 900e3},
		{Set: 3, Addr: inet.MakeAddr(64, 28, 3, 11), Hops: 18, BaseRTT: 37 * time.Millisecond, Bottleneck: 950e3},
		{Set: 4, Addr: inet.MakeAddr(216, 52, 4, 15), Hops: 19, BaseRTT: 45 * time.Millisecond, Bottleneck: 850e3},
		{Set: 5, Addr: inet.MakeAddr(204, 202, 5, 19), Hops: 17, BaseRTT: 33 * time.Millisecond, Bottleneck: 900e3},
		{Set: 6, Addr: inet.MakeAddr(63, 241, 6, 23), Hops: 22, BaseRTT: 88 * time.Millisecond, Bottleneck: 1.45e6},
	}
}

// SiteFor returns the profile serving a data set.
func SiteFor(set int) (SiteProfile, bool) {
	for _, s := range Sites() {
		if s.Set == set {
			return s, true
		}
	}
	return SiteProfile{}, false
}

// Path-shape constants. The client sits on a 10 Mbps campus LAN (the
// paper's PC has a PCI 10 Mbps NIC); intermediate hops are fast backbone
// links; the final hop carries the site's bottleneck bandwidth.
const (
	campusBandwidth   = 10e6
	backboneBandwidth = 45e6 // T3-class backbone links
	hopJitterMax      = 400 * time.Microsecond
	hopSpikeProb      = 0.005
	hopSpikeMax       = 55 * time.Millisecond
	hopLoss           = 0.0001
)

// HopSpecs expands a site profile into per-hop specs for the
// client-to-site direction, applying the profile's scenario (if any) by
// hop role: hop 0 is the client access link, the final hop the server-side
// bottleneck, everything between backbone transit. ConnectDuplex mirrors
// the specs for the reverse direction, so a role stays attached to the
// same router both ways while each direction builds private model state.
func (p SiteProfile) HopSpecs() []netsim.HopSpec {
	perHop := time.Duration(int64(p.BaseRTT) / 2 / int64(p.Hops))
	specs := make([]netsim.HopSpec, p.Hops)
	for i := range specs {
		bw := backboneBandwidth
		role := netem.RoleBackbone
		switch i {
		case 0:
			bw = campusBandwidth
			role = netem.RoleAccess
		case p.Hops - 1:
			bw = p.Bottleneck
			role = netem.RoleBottleneck
		}
		specs[i] = netsim.HopSpec{
			Addr:      inet.MakeAddr(10, byte(p.Set), byte(i/250), byte(i%250+1)),
			Bandwidth: bw,
			PropDelay: perHop,
			JitterMax: hopJitterMax,
			SpikeProb: hopSpikeProb,
			SpikeMax:  hopSpikeMax,
			Loss:      hopLoss,
			Impair:    p.Scenario.Impair(role, i, p.Hops),
		}
	}
	return specs
}

// Site is one instantiated server site: a host running both stacks, since
// the paper selected sites where the two servers were co-located.
type Site struct {
	Profile SiteProfile
	Host    *netsim.Host
	WMS     *wms.Server
	RDT     *rdt.Server
}

// Testbed is the full experimental apparatus.
type Testbed struct {
	Net    *netsim.Network
	Client *netsim.Host
	Sites  map[int]*Site
}

// TestbedOption adjusts site profiles at construction time (e.g. for the
// constrained-bandwidth future-work experiments).
type TestbedOption func(*SiteProfile)

// WithBottleneck overrides one site's server-access bandwidth.
func WithBottleneck(set int, bps float64) TestbedOption {
	return func(p *SiteProfile) {
		if p.Set == set {
			p.Bottleneck = bps
		}
	}
}

// WithScenario installs a netem scenario on every site path: each hop's
// impairment is chosen by the scenario from the hop's role (client access,
// backbone transit, server-side bottleneck). A nil scenario — and the
// built-in "paper-baseline" — leaves the testbed byte-identical to the
// faithful reproduction.
func WithScenario(sc *netem.Scenario) TestbedOption {
	return func(p *SiteProfile) { p.Scenario = sc }
}

// NewTestbed builds the network, client and all six sites, registers
// every Table 1 clip at its site's servers, and arms the testbed for seed
// with Reset.
func NewTestbed(seed int64, opts ...TestbedOption) *Testbed {
	n := netsim.New(seed)
	client := n.AddHost(ClientAddr)
	tb := &Testbed{Net: n, Client: client, Sites: make(map[int]*Site)}
	for _, prof := range Sites() {
		for _, opt := range opts {
			opt(&prof)
		}
		host := n.AddHost(prof.Addr)
		n.ConnectDuplex(ClientAddr, prof.Addr, prof.HopSpecs())
		site := &Site{
			Profile: prof,
			Host:    host,
			WMS:     wms.NewServer(host),
			RDT:     rdt.NewServer(host),
		}
		tb.Sites[prof.Set] = site
	}
	for _, set := range media.Library() {
		site := tb.Sites[set.Set]
		for _, clip := range set.Clips() {
			if clip.Format == media.WindowsMedia {
				site.WMS.Register(clip.Name(), clip)
			} else {
				site.RDT.Register(clip.Name(), clip)
			}
		}
	}
	tb.Reset(seed)
	return tb
}

// Site returns the site serving a data set.
func (tb *Testbed) Site(set int) *Site {
	s, ok := tb.Sites[set]
	if !ok {
		panic(fmt.Sprintf("core: no site for set %d", set))
	}
	return s
}

// Reset arms the testbed for a run under seed without reallocating
// anything: the network drains and reseeds, every host and hop rewinds,
// and both stacks at every site re-arm on their freshly cleared hosts,
// splitting their streams from the root RNG in Sites() order. It is the
// only code that arms per-run state: NewTestbed ends in it, so a newly
// built testbed and a reused one are the same state.
//
// Topology and clip registration are construction-time and retained; the
// per-run ablation switches (unit cap, uncapped burst, scaling) revert to
// their defaults, so callers reapply Options per run, as runPair does.
func (tb *Testbed) Reset(seed int64) {
	tb.Net.Reset(seed)
	for _, prof := range Sites() {
		site := tb.Sites[prof.Set]
		site.WMS.Reset()
		site.RDT.Reset()
	}
}

// testbedShape identifies the construction-time configuration of a testbed:
// two testbeds with the same shape are interchangeable after a Reset. The
// scenario is compared by pointer — a Plan shares one *Scenario across its
// cells, and distinct pointers conservatively build distinct testbeds.
type testbedShape struct {
	scenario      *netem.Scenario
	bottleneckSet int
	bottleneckBps float64
}

// shapeFor derives the testbed shape a pair run needs from its options.
func shapeFor(set int, opts Options) testbedShape {
	sh := testbedShape{scenario: opts.Scenario}
	if opts.BottleneckBps > 0 {
		sh.bottleneckSet, sh.bottleneckBps = set, opts.BottleneckBps
	}
	return sh
}

// options expands a shape back into testbed construction options.
func (sh testbedShape) options() []TestbedOption {
	var tbOpts []TestbedOption
	if sh.bottleneckBps > 0 {
		tbOpts = append(tbOpts, WithBottleneck(sh.bottleneckSet, sh.bottleneckBps))
	}
	if sh.scenario != nil {
		tbOpts = append(tbOpts, WithScenario(sh.scenario))
	}
	return tbOpts
}

// TestbedCache reuses testbeds across the runs of one worker. The first
// run of each shape builds a testbed, armed for its seed by NewTestbed;
// every later run Resets it to the run's seed, so no cell reconstructs
// the whole apparatus, which removes the dominant allocation cost of a
// sweep (building six sites' paths, hosts and stacks per cell). A cache
// is single-goroutine, like the runs it serves: the Runner creates one
// per worker.
//
// The cache also owns the worker's online-analysis scratch (the capture
// flow demux and RetainFlows' two flow recorders) and two pools that every
// testbed it builds shares: the wire-buffer pool (inet.BufPool) behind
// every network's datagrams and reassembly, and the RealServer
// packet-buffer pool (rdt.PacketPool) behind every RDT server. They are
// pooled for the same reason: a testbed of a new shape streams from the
// buffers the previous cell returned instead of filling a working set of
// fresh ones, and a testbed that sits idle pins none. Only one of the
// cache's testbeds runs at a time, so the shared pools need no lock.
type TestbedCache struct {
	tbs           map[testbedShape]*Testbed
	dx            *capture.FlowDemux
	recs          dataFlowRecorders
	bufs          inet.BufPool
	pkts          *rdt.PacketPool
	built, reused int
}

// NewTestbedCache returns an empty cache.
func NewTestbedCache() *TestbedCache {
	return &TestbedCache{tbs: make(map[testbedShape]*Testbed), pkts: &rdt.PacketPool{}}
}

// Get returns the cache's testbed for the run's shape, built on the
// shape's first run, reset to seed exactly once: a cached testbed by
// Reset, a new one by NewTestbed's own Reset (UseBufPool and
// UsePacketPool only switch pools, which arms nothing).
func (c *TestbedCache) Get(seed int64, set int, opts Options) *Testbed {
	sh := shapeFor(set, opts)
	if tb, ok := c.tbs[sh]; ok {
		c.reused++
		tb.Reset(seed)
		return tb
	}
	tb := NewTestbed(seed, sh.options()...)
	tb.Net.UseBufPool(&c.bufs)
	for _, site := range tb.Sites {
		site.RDT.UsePacketPool(c.pkts)
	}
	c.built++
	c.tbs[sh] = tb
	return tb
}

// Built reports how many testbeds the cache constructed.
func (c *TestbedCache) Built() int { return c.built }

// Reused reports how many Gets were served by resetting a cached testbed.
func (c *TestbedCache) Reused() int { return c.reused }

// dataFlowRecorders is RetainFlows' recording scratch: one pooled
// recorder per media data port. Each run hands a port's recorder to the
// first flow bound for that port — the flow demux.To and Trace.FlowTo
// pick — and records no other flow.
type dataFlowRecorders struct {
	wmp, real       capture.FlowRecorder
	wmpSet, realSet bool
	extra           func(inet.Flow) capture.Tap // tap, bound once
}

// tap is the demux Extra factory.
func (fr *dataFlowRecorders) tap(f inet.Flow) capture.Tap {
	switch {
	case f.Dst.Port == WMPDataPort && !fr.wmpSet:
		fr.wmpSet = true
		fr.wmp.Reset(f)
		return &fr.wmp
	case f.Dst.Port == RDTDataPort && !fr.realSet:
		fr.realSet = true
		fr.real.Reset(f)
		return &fr.real
	}
	return nil
}

// flowRecorders returns the worker's data-flow recording factory, armed
// for a new run.
func (c *TestbedCache) flowRecorders() func(inet.Flow) capture.Tap {
	fr := &c.recs
	fr.wmpSet, fr.realSet = false, false
	if fr.extra == nil {
		fr.extra = fr.tap
	}
	return fr.extra
}

// demux returns the worker's pooled flow demultiplexer, reset for a new
// run.
func (c *TestbedCache) demux() *capture.FlowDemux {
	if c.dx == nil {
		c.dx = capture.NewFlowDemux()
	} else {
		c.dx.Reset()
	}
	return c.dx
}
