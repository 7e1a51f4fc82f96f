package core

import (
	"math"
	"testing"
	"time"

	"turbulence/internal/capture"
	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/media"
	"turbulence/internal/stats"
)

func TestSitesMatchLibrary(t *testing.T) {
	if len(Sites()) != len(media.Library()) {
		t.Fatal("site count != data set count")
	}
	for _, s := range Sites() {
		if s.Hops < 10 || s.Hops > 30 {
			t.Fatalf("site %d hops %d outside Figure 2 axis", s.Set, s.Hops)
		}
		if s.BaseRTT < 20*time.Millisecond || s.BaseRTT > 160*time.Millisecond {
			t.Fatalf("site %d base RTT %v outside Figure 1 range", s.Set, s.BaseRTT)
		}
		if _, ok := SiteFor(s.Set); !ok {
			t.Fatalf("SiteFor(%d) missing", s.Set)
		}
		specs := s.HopSpecs()
		if len(specs) != s.Hops {
			t.Fatalf("site %d specs=%d", s.Set, len(specs))
		}
		if specs[0].Bandwidth != campusBandwidth {
			t.Fatal("first hop must be the campus link")
		}
		if specs[len(specs)-1].Bandwidth != s.Bottleneck {
			t.Fatal("last hop must carry the bottleneck")
		}
	}
	if _, ok := SiteFor(99); ok {
		t.Fatal("ghost site")
	}
}

func TestNewTestbedRegistersEverything(t *testing.T) {
	tb := NewTestbed(1)
	if len(tb.Sites) != 6 {
		t.Fatalf("sites=%d", len(tb.Sites))
	}
	for set := 1; set <= 6; set++ {
		site := tb.Site(set)
		if site.WMS == nil || site.RDT == nil {
			t.Fatalf("site %d servers missing", set)
		}
		if tb.Net.PathBetween(ClientAddr, site.Profile.Addr) == nil {
			t.Fatalf("site %d not connected", set)
		}
		if tb.Net.PathBetween(site.Profile.Addr, ClientAddr) == nil {
			t.Fatalf("site %d reverse path missing", set)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown site did not panic")
		}
	}()
	tb.Site(42)
}

func TestAllPairsEnumeration(t *testing.T) {
	pairs := AllPairs()
	if len(pairs) != 13 { // 5 sets x 2 classes + set 6 x 3
		t.Fatalf("pairs=%d, want 13", len(pairs))
	}
	seen := make(map[PairKey]bool)
	for _, k := range pairs {
		if seen[k] {
			t.Fatalf("duplicate pair %+v", k)
		}
		seen[k] = true
	}
	if !seen[(PairKey{Set: 6, Class: media.VeryHigh})] {
		t.Fatal("set 6 very-high pair missing")
	}
}

// TestRunPairHeadlineFindings executes the paper's unit experiment on the
// shortest data set and asserts every §3 headline on the result.
func TestRunPairHeadlineFindings(t *testing.T) {
	run, err := NewRunner().RunPair(7, 2, media.High, Options{}) // set 2: 39 s commercial, 268/307.2 Kbps
	if err != nil {
		t.Fatal(err)
	}
	// (1) MediaPlayer fragments at high rates; RealPlayer never does.
	wmpProf := ProfileFlow(run.WMPFlow)
	realProf := ProfileFlow(run.RealFlow)
	if wmpProf.FragShare < 0.5 {
		t.Fatalf("WMP frag share=%.2f, want ~0.66", wmpProf.FragShare)
	}
	if realProf.FragShare != 0 {
		t.Fatalf("Real frag share=%.2f, want 0", realProf.FragShare)
	}
	// (2) WMP is CBR; Real is varied.
	if !wmpProf.CBR {
		t.Fatalf("WMP not classified CBR: %v", wmpProf)
	}
	if realProf.CBR {
		t.Fatalf("Real classified CBR: %v", realProf)
	}
	if realProf.SizeCV <= wmpProf.SizeCV {
		t.Fatal("Real size variation should exceed WMP's")
	}
	// (3) Real bursts at startup; WMP does not. On this 39 s clip the
	// burst spans most of the stream (the whole clip fits in the buffer),
	// so compare the startup rate to the encoding rate directly.
	realClip, wmpClip := run.Clips()
	realEarly := earlyRate(run.RealFlow)
	if ratio := realEarly / realClip.EncodedBps(); ratio < 1.2 {
		t.Fatalf("Real startup rate ratio=%.2f, want > 1.2", ratio)
	}
	wmpEarly := earlyRate(run.WMPFlow)
	if ratio := wmpEarly / wmpClip.EncodedBps(); ratio < 0.85 || ratio > 1.25 {
		t.Fatalf("WMP startup rate ratio=%.2f, want ~1", ratio)
	}
	// (4) Both reach full motion at high rate.
	if math.Abs(run.WMP.AvgFPS-25) > 2 || math.Abs(run.Real.AvgFPS-25) > 2 {
		t.Fatalf("fps: wmp=%.1f real=%.1f", run.WMP.AvgFPS, run.Real.AvgFPS)
	}
	// (5) Real begins playback sooner.
	if run.Real.StartupDelay() >= run.WMP.StartupDelay() {
		t.Fatalf("startup: real=%v wmp=%v", run.Real.StartupDelay(), run.WMP.StartupDelay())
	}
	// (6) Network checks ran and look like Figure 1/2 conditions.
	if run.PingBefore == nil || run.PingBefore.Received == 0 {
		t.Fatal("pre-run ping missing")
	}
	if run.PingAfter == nil || run.PingAfter.Received == 0 {
		t.Fatal("post-run ping missing")
	}
	if !run.Route.Reached || run.Route.HopCount() != run.Site.Hops {
		t.Fatalf("route: reached=%t hops=%d want %d", run.Route.Reached, run.Route.HopCount(), run.Site.Hops)
	}
	rtt := run.PingBefore.AvgRTT
	if rtt < run.Site.BaseRTT || rtt > run.Site.BaseRTT+40*time.Millisecond {
		t.Fatalf("ping RTT=%v vs base %v", rtt, run.Site.BaseRTT)
	}
	// (7) Comparison wrapper works.
	cmp := Compare(run)
	if cmp.Set != 2 || cmp.ClassName != "high" {
		t.Fatalf("comparison: %+v", cmp)
	}
	if cmp.Real.String() == "" || cmp.WMP.String() == "" {
		t.Fatal("profile strings")
	}
}

func TestRunPairLowRate(t *testing.T) {
	run, err := NewRunner().RunPair(8, 3, media.Low, Options{}) // set 3: 60 s sports, 36.5/37.9 Kbps
	if err != nil {
		t.Fatal(err)
	}
	wmpProf := ProfileFlow(run.WMPFlow)
	realProf := ProfileFlow(run.RealFlow)
	// No fragmentation below 100 Kbps for either player (Figure 5).
	if wmpProf.FragShare != 0 || realProf.FragShare != 0 {
		t.Fatalf("low-rate fragmentation: wmp=%.2f real=%.2f", wmpProf.FragShare, realProf.FragShare)
	}
	// Real's burst ratio approaches 3 at low rates (Figure 11).
	if realProf.BurstRatio < 2.0 {
		t.Fatalf("Real low-rate burst=%.2f, want ~3", realProf.BurstRatio)
	}
	// Frame rates: Real ~19, WMP ~13 (Figure 13).
	if run.Real.AvgFPS <= run.WMP.AvgFPS {
		t.Fatalf("low-rate fps: real=%.1f should beat wmp=%.1f", run.Real.AvgFPS, run.WMP.AvgFPS)
	}
	if math.Abs(run.WMP.AvgFPS-13) > 2 {
		t.Fatalf("WMP low fps=%.1f, want ~13", run.WMP.AvgFPS)
	}
	// Real's average playback bandwidth exceeds encoding; WMP's tracks it.
	if run.Real.AvgPlaybackBps <= run.Real.EncodedBps {
		t.Fatal("Real playback bandwidth should exceed encoding rate")
	}
	ratio := run.WMP.AvgPlaybackBps / run.WMP.EncodedBps
	if ratio < 0.8 || ratio > 1.35 {
		t.Fatalf("WMP playback/encoded=%.2f, want ~1", ratio)
	}
}

func TestRunPairErrors(t *testing.T) {
	if _, err := NewRunner().RunPair(1, 99, media.Low, Options{}); err == nil {
		t.Fatal("unknown set accepted")
	}
	if _, err := NewRunner().RunPair(1, 1, media.VeryHigh, Options{}); err == nil {
		t.Fatal("missing class accepted")
	}
}

func TestRunPairDeterminism(t *testing.T) {
	a, err := NewRunner().RunPair(9, 2, media.Low, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner().RunPair(9, 2, media.Low, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace.Len() != b.Trace.Len() {
		t.Fatalf("trace lengths differ: %d vs %d", a.Trace.Len(), b.Trace.Len())
	}
	for i := 0; i < a.Trace.Len(); i++ {
		ra, rb := a.Trace.At(i), b.Trace.At(i)
		if ra.At != rb.At || ra.WireLen != rb.WireLen {
			t.Fatalf("record %d differs", i)
		}
	}
	if a.WMP.AvgFPS != b.WMP.AvgFPS || a.Real.AvgPlaybackBps != b.Real.AvgPlaybackBps {
		t.Fatal("reports differ across identical seeds")
	}
}

func TestFlowModelRoundTrip(t *testing.T) {
	// Section IV: fit a model from a measured flow, generate a synthetic
	// flow, and verify the synthetic flow reproduces the measured
	// turbulence profile.
	run, err := NewRunner().RunPair(10, 2, media.High, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		flow *capture.FlowTrace
	}{
		{"wmp", run.WMPFlow},
		{"real", run.RealFlow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			measured := ProfileFlow(tc.flow)
			model := FitModel(tc.flow)
			rng := eventsim.NewRNG(4)
			gen := model.Generate(rng, 60*time.Second, inet.Flow{
				Src: inet.Endpoint{Addr: inet.MakeAddr(1, 1, 1, 1), Port: 9000},
				Dst: DataEndpointWMP(),
			})
			if gen.Len() == 0 {
				t.Fatal("generator produced nothing")
			}
			flows := gen.SplitFlows()
			if len(flows) != 1 {
				t.Fatalf("generated flows=%d", len(flows))
			}
			synth := ProfileFlow(flows[0])
			// Mean size within 15%.
			if rel(synth.MeanSize, measured.MeanSize) > 0.15 {
				t.Fatalf("mean size: synth=%.0f measured=%.0f", synth.MeanSize, measured.MeanSize)
			}
			// Fragment share within 0.1 absolute.
			if math.Abs(synth.FragShare-measured.FragShare) > 0.1 {
				t.Fatalf("frag share: synth=%.2f measured=%.2f", synth.FragShare, measured.FragShare)
			}
			// CBR classification preserved.
			if synth.CBR != measured.CBR {
				t.Fatalf("CBR flag: synth=%t measured=%t", synth.CBR, measured.CBR)
			}
		})
	}
}

func TestModelFromPair(t *testing.T) {
	run, err := NewRunner().RunPair(11, 3, media.Low, Options{})
	if err != nil {
		t.Fatal(err)
	}
	realM, wmpM := FitModel(run.RealFlow), FitModel(run.WMPFlow)
	if len(realM.SizeCDF) == 0 || len(wmpM.SizeCDF) == 0 {
		t.Fatal("models missing size CDFs")
	}
	// Real's burst survives into the model; WMP's does not.
	if realM.BurstRatio < 1.5 {
		t.Fatalf("real model burst=%.2f", realM.BurstRatio)
	}
	if wmpM.BurstRatio > 1.2 {
		t.Fatalf("wmp model burst=%.2f", wmpM.BurstRatio)
	}
	if realM.BurstDuration == 0 {
		t.Fatal("real model should have a burst duration")
	}
	if wmpM.BurstDuration != 0 {
		t.Fatal("wmp model should have no burst")
	}
}

func TestGeneratorBurstShape(t *testing.T) {
	m := FlowModel{
		SizeCDF:       []stats.Point{{X: 600, Y: 1}},
		IntervalCDF:   []stats.Point{{X: 0.1, Y: 1}},
		TrainLen:      1,
		BurstRatio:    3,
		BurstDuration: 10 * time.Second,
	}
	rng := eventsim.NewRNG(5)
	tr := m.Generate(rng, 40*time.Second, inet.Flow{
		Src: inet.Endpoint{Addr: inet.MakeAddr(1, 1, 1, 1), Port: 9000},
		Dst: DataEndpointReal(),
	})
	ft := tr.SplitFlows()[0]
	prof := ProfileFlow(ft)
	if prof.BurstRatio < 2.2 {
		t.Fatalf("generated burst ratio=%.2f, want ~3", prof.BurstRatio)
	}
}

func TestGeneratorEmptyModel(t *testing.T) {
	var m FlowModel
	tr := m.Generate(eventsim.NewRNG(1), time.Second, inet.Flow{})
	if tr.Len() != 0 {
		t.Fatal("empty model generated packets")
	}
}

// earlyRate measures a flow's mean throughput over its first 8 seconds.
func earlyRate(ft *capture.FlowTrace) float64 {
	if ft.Len() == 0 {
		return 0
	}
	start := ft.At(0).At
	var bits float64
	for i, n := 0, ft.Len(); i < n; i++ {
		if r := ft.At(i); r.At-start <= 8*time.Second {
			bits += float64(r.WireLen * 8)
		}
	}
	return bits / 8
}

func rel(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestRunSubset(t *testing.T) {
	keys := []PairKey{{Set: 2, Class: media.Low}, {Set: 3, Class: media.Low}}
	results, err := NewRunner(WithWorkers(1)).Run(NewPlan(12).ForPairs(keys...))
	if err != nil {
		t.Fatal(err)
	}
	runs := PairRuns(results)
	if len(runs) != 2 || runs[0].Set != 2 || runs[1].Set != 3 {
		t.Fatalf("subset: %d runs", len(runs))
	}
	// Subset results equal standalone runs with the derived seeds.
	solo, err := NewRunner().RunPair(SeedFor(12, keys[0]), 2, media.Low, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if solo.Trace.Len() != runs[0].Trace.Len() {
		t.Fatal("subset seed derivation diverges from standalone runs")
	}
}

func TestDataEndpoints(t *testing.T) {
	if DataEndpointWMP().Port != WMPDataPort || DataEndpointReal().Port != RDTDataPort {
		t.Fatal("data endpoints")
	}
	if DataEndpointWMP().Addr != ClientAddr {
		t.Fatal("client address")
	}
}

func TestRunPairWithBottleneckOverride(t *testing.T) {
	// Starving the bottleneck must hurt the WMP stream measurably.
	healthy, err := NewRunner().RunPair(13, 1, media.High, Options{})
	if err != nil {
		t.Fatal(err)
	}
	starved, err := NewRunner().RunPair(13, 1, media.High, Options{BottleneckBps: 400e3})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.WMP.LossRate() > 0.02 {
		t.Fatalf("healthy run lossy: %v", healthy.WMP.LossRate())
	}
	if starved.WMP.LossRate() < 0.2 {
		t.Fatalf("starved run not lossy: %v", starved.WMP.LossRate())
	}
	if starved.Site.Bottleneck != 400e3 {
		t.Fatal("override not recorded in site profile")
	}
}

func TestRunPairWithScalingReducesStarvedLoss(t *testing.T) {
	base, err := NewRunner().RunPair(14, 1, media.High, Options{BottleneckBps: 500e3})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := NewRunner().RunPair(14, 1, media.High, Options{BottleneckBps: 500e3, EnableScaling: true})
	if err != nil {
		t.Fatal(err)
	}
	if scaled.WMP.LossRate() >= base.WMP.LossRate() {
		t.Fatalf("scaling did not reduce WMP loss: %v vs %v",
			scaled.WMP.LossRate(), base.WMP.LossRate())
	}
}
