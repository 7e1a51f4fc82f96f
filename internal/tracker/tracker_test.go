package tracker

import (
	"math"
	"strings"
	"testing"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/media"
	"turbulence/internal/netsim"
	"turbulence/internal/rdt"
	"turbulence/internal/transport"
	"turbulence/internal/wms"
)

var (
	clientAddr = inet.MakeAddr(130, 215, 10, 5)
	wmsAddr    = inet.MakeAddr(207, 46, 1, 9)
	rdtAddr    = inet.MakeAddr(209, 247, 1, 20)
)

// testbed wires a client to both a WMS and a Real server.
func testbed(t *testing.T, seed int64) (*netsim.Network, *netsim.Host, *wms.Server, *rdt.Server) {
	t.Helper()
	n := netsim.New(seed)
	c := n.AddHost(clientAddr)
	w := n.AddHost(wmsAddr)
	r := n.AddHost(rdtAddr)
	mk := func(third byte) []netsim.HopSpec {
		specs := make([]netsim.HopSpec, 5)
		for i := range specs {
			specs[i] = netsim.HopSpec{
				Addr:      inet.MakeAddr(10, third, 0, byte(i+1)),
				Bandwidth: 4e6,
				PropDelay: 3 * time.Millisecond,
				JitterMax: 300 * time.Microsecond,
			}
		}
		return specs
	}
	n.ConnectDuplex(clientAddr, wmsAddr, mk(3))
	n.ConnectDuplex(clientAddr, rdtAddr, mk(4))
	return n, c, wms.NewServer(transport.NewSim(w)), rdt.NewServer(transport.NewSim(r))
}

func TestMediaTrackerRecordsSession(t *testing.T) {
	n, c, wsrv, _ := testbed(t, 51)
	clip, _ := media.FindClip(5, media.WindowsMedia, media.Low)
	wsrv.Register(clip.Name(), clip)
	var final *Report
	StartMediaTracker(c, wsrv, clip.Name(), 4001, 4002, func(r *Report) { final = r })
	n.Run(eventsim.At(clip.Duration.Seconds() + 60))
	if final == nil {
		t.Fatal("tracker never completed")
	}
	if !final.Completed || final.Tool != "MediaTracker" || final.Protocol != "UDP" {
		t.Fatalf("report: %+v", final)
	}
	if final.EncodedKbps() != 39.0 {
		t.Fatalf("encoded=%v", final.EncodedKbps())
	}
	if math.Abs(final.AvgFPS-13) > 1 {
		t.Fatalf("avg fps=%v, want ~13", final.AvgFPS)
	}
	// Application bandwidth should track the encoding rate (CBR).
	if final.AvgPlaybackBps < 0.85*final.EncodedBps || final.AvgPlaybackBps > 1.3*final.EncodedBps {
		t.Fatalf("avg playback=%v vs encoded=%v", final.AvgPlaybackBps, final.EncodedBps)
	}
	if len(final.OSPackets) == 0 || len(final.AppPackets) == 0 {
		t.Fatal("packet arrival logs empty")
	}
	if final.StartupDelay() < 4*time.Second {
		t.Fatalf("startup=%v, want >= ~5 s for WMP", final.StartupDelay())
	}
	if final.String() == "" {
		t.Fatal("String")
	}
}

func TestRealTrackerRecordsSession(t *testing.T) {
	n, c, _, rsrv := testbed(t, 52)
	clip, _ := media.FindClip(5, media.Real, media.Low)
	rsrv.Register(clip.Name(), clip)
	var final *Report
	StartRealTracker(c, rsrv, clip.Name(), 5001, 5002, func(r *Report) { final = r })
	n.Run(eventsim.At(clip.Duration.Seconds() + 90))
	if final == nil {
		t.Fatal("tracker never completed")
	}
	if final.Tool != "RealTracker" || !final.Completed {
		t.Fatalf("report: %+v", final)
	}
	if final.EncodedKbps() != 22.0 {
		t.Fatalf("encoded=%v", final.EncodedKbps())
	}
	if math.Abs(final.AvgFPS-19) > 1.5 {
		t.Fatalf("avg fps=%v, want ~19", final.AvgFPS)
	}
	// Real's average playback bandwidth exceeds its encoding rate.
	if final.AvgPlaybackBps <= final.EncodedBps {
		t.Fatalf("avg playback %v <= encoded %v", final.AvgPlaybackBps, final.EncodedBps)
	}
	// RealTracker gathers no application packets (paper §3.G).
	if len(final.AppPackets) != 0 {
		t.Fatal("RealTracker should not log application packets")
	}
	if len(final.OSPackets) == 0 {
		t.Fatal("OS packet log empty")
	}
	// Real starts faster than WMP thanks to the buffering burst.
	if final.StartupDelay() > 4*time.Second {
		t.Fatalf("Real startup=%v, want < 4 s", final.StartupDelay())
	}
}

func TestSimultaneousTrackers(t *testing.T) {
	// The paper's core methodology: identical content, both formats,
	// streamed to one client at the same time.
	n, c, wsrv, rsrv := testbed(t, 53)
	pair, _ := media.FindPair(5, media.High)
	wsrv.Register(pair.WindowsMedia.Name(), pair.WindowsMedia)
	rsrv.Register(pair.Real.Name(), pair.Real)
	var wr, rr *Report
	StartMediaTracker(c, wsrv, pair.WindowsMedia.Name(), 4001, 4002, func(r *Report) { wr = r })
	StartRealTracker(c, rsrv, pair.Real.Name(), 5001, 5002, func(r *Report) { rr = r })
	n.Run(eventsim.At(pair.WindowsMedia.Duration.Seconds() + 90))
	if wr == nil || rr == nil {
		t.Fatal("trackers incomplete")
	}
	if math.Abs(wr.AvgFPS-25) > 1.5 || math.Abs(rr.AvgFPS-25) > 1.5 {
		t.Fatalf("high-rate fps: wmp=%v real=%v, want ~25", wr.AvgFPS, rr.AvgFPS)
	}
	if wr.LossRate() > 0.02 || rr.LossRate() > 0.02 {
		t.Fatalf("loss under typical conditions: %v %v", wr.LossRate(), rr.LossRate())
	}
}

func TestReportCSV(t *testing.T) {
	n, c, wsrv, _ := testbed(t, 54)
	clip, _ := media.FindClip(3, media.WindowsMedia, media.Low)
	wsrv.Register(clip.Name(), clip)
	var final *Report
	StartMediaTracker(c, wsrv, clip.Name(), 4001, 4002, func(r *Report) { final = r })
	n.Run(eventsim.At(120))
	var sb strings.Builder
	if err := final.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "second,bandwidth_kbps,fps") {
		t.Fatal("CSV header missing")
	}
	if strings.Count(out, "\n") < 30 {
		t.Fatalf("CSV too short:\n%s", out)
	}
}

func TestFig12InterleavingVisibleInReport(t *testing.T) {
	// Figure 12's signature: OS packets arrive steadily; application
	// packets arrive in once-per-second batches.
	n, c, wsrv, _ := testbed(t, 58)
	clip, _ := media.FindClip(5, media.WindowsMedia, media.High)
	wsrv.Register(clip.Name(), clip)
	var final *Report
	StartMediaTracker(c, wsrv, clip.Name(), 4001, 4002, func(r *Report) { final = r })
	n.Run(eventsim.At(clip.Duration.Seconds() + 60))
	if final == nil {
		t.Fatal("incomplete")
	}
	// Count distinct application delivery instants; far fewer than
	// packets.
	instants := make(map[time.Duration]int)
	for _, a := range final.AppPackets {
		instants[a.At]++
	}
	if len(instants) == 0 {
		t.Fatal("no app deliveries")
	}
	avgBatch := float64(len(final.AppPackets)) / float64(len(instants))
	if avgBatch < 6 {
		t.Fatalf("app batch size=%v, want ~10", avgBatch)
	}
	// OS deliveries are spread out: many more distinct instants.
	osInstants := make(map[time.Duration]bool)
	for _, a := range final.OSPackets {
		osInstants[a.At] = true
	}
	if len(osInstants) < 5*len(instants) {
		t.Fatalf("OS instants %d vs app instants %d", len(osInstants), len(instants))
	}
}

func TestLossRateAndEmptyReport(t *testing.T) {
	r := &Report{}
	if r.LossRate() != 0 || r.StartupDelay() != 0 {
		t.Fatal("empty report accessors")
	}
	r.PacketsReceived, r.PacketsLost = 90, 10
	if r.LossRate() != 0.1 {
		t.Fatalf("loss=%v", r.LossRate())
	}
}
