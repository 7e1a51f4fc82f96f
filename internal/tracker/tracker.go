// Package tracker reimplements the paper's two instrumented players'
// recording layer: MediaTracker (built on the Windows Media SDK) and
// RealTracker (built on the RealSystem SDK). Each wraps a player model and
// records what the paper lists in §2.B: encoded bit rate, playback
// bandwidth, application packets received/lost/recovered, frame rate,
// transport protocol and reception quality, plus the two-layer packet
// arrival times behind Figure 12. Both players count frames through the
// same playout clock (segment.Playout), so a gap between their reports
// comes from the protocols, not from the recorder. Multi-clip playlists,
// which both original tools supported, are cmd/tracker's: it chains one
// tracker per entry on a shared testbed.
package tracker

import (
	"fmt"
	"io"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/netsim"
	"turbulence/internal/rdt"
	"turbulence/internal/stats"
	"turbulence/internal/transport"
	"turbulence/internal/wms"
)

// Arrival is one packet receipt observation at a given layer.
type Arrival struct {
	At  time.Duration // relative to tracker start
	Seq uint32
}

// Report is the statistics record a tracker produces for one clip playback.
type Report struct {
	Tool     string // "MediaTracker" or "RealTracker"
	ClipRef  string
	Protocol string // always "UDP" in the paper's forced-UDP runs

	// Stream description as captured from the player (paper Table 1's
	// encoded rates come from here, not from the web page labels).
	EncodedBps  float64
	FrameRate   float64 // encoded fps
	Duration    time.Duration
	TotalFrames int

	// Per-second samples.
	Bandwidth stats.TimeSeries // application-level bits/second
	FPS       stats.TimeSeries // achieved frames/second

	// Packet receipt times at the two layers (Figure 12). AppPackets is
	// populated only by MediaTracker — the paper notes RealTracker could
	// not gather application packets.
	OSPackets  []Arrival
	AppPackets []Arrival

	// Counters.
	PacketsReceived, PacketsLost, PacketsRecovered int
	FramesPlayed, FramesExpected                   int

	// Timing.
	StartedAt   eventsim.Time
	PlayBeganAt eventsim.Time
	FinishedAt  eventsim.Time

	// Derived at completion.
	AvgPlaybackBps float64 // mean of the non-zero bandwidth seconds
	AvgFPS         float64
	Completed      bool
}

// StartupDelay is the wait between starting the session and playout.
func (r *Report) StartupDelay() time.Duration {
	if r.PlayBeganAt == 0 {
		return 0
	}
	return r.PlayBeganAt.Sub(r.StartedAt)
}

// EncodedKbps returns the encoded rate in Kbps, Table 1's unit.
func (r *Report) EncodedKbps() float64 { return r.EncodedBps / 1000 }

// LossRate is the unrecovered packet loss fraction.
func (r *Report) LossRate() float64 {
	total := r.PacketsReceived + r.PacketsLost
	if total == 0 {
		return 0
	}
	return float64(r.PacketsLost) / float64(total)
}

// finalize computes the derived statistics.
func (r *Report) finalize() {
	var bpsSamples []float64
	for _, s := range r.Bandwidth.Samples() {
		if s.Value > 0 {
			bpsSamples = append(bpsSamples, s.Value)
		}
	}
	r.AvgPlaybackBps = stats.Mean(bpsSamples)
	var fpsSamples []float64
	for _, s := range r.FPS.Samples() {
		fpsSamples = append(fpsSamples, s.Value)
	}
	r.AvgFPS = stats.Mean(fpsSamples)
}

// String renders a summary line.
func (r *Report) String() string {
	return fmt.Sprintf("%s %s: enc=%.1fKbps bw=%.1fKbps fps=%.1f recv=%d lost=%d recovered=%d startup=%v",
		r.Tool, r.ClipRef, r.EncodedKbps(), r.AvgPlaybackBps/1000, r.AvgFPS,
		r.PacketsReceived, r.PacketsLost, r.PacketsRecovered, r.StartupDelay())
}

// WriteCSV emits the per-second samples as CSV (second, bandwidthKbps,
// fps) — the tracker tools' on-disk recording format.
func (r *Report) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s %s encoded=%.1fKbps protocol=%s\n", r.Tool, r.ClipRef, r.EncodedKbps(), r.Protocol); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "second,bandwidth_kbps,fps"); err != nil {
		return err
	}
	bw := r.Bandwidth.MeanSeries(time.Second)
	fps := r.FPS.MeanSeries(time.Second)
	n := len(bw)
	if len(fps) > n {
		n = len(fps)
	}
	for i := 0; i < n; i++ {
		var b, f float64
		if i < len(bw) {
			b = bw[i].Y
		}
		if i < len(fps) {
			f = fps[i].Y
		}
		if _, err := fmt.Fprintf(w, "%d,%.2f,%.2f\n", i, b/1000, f); err != nil {
			return err
		}
	}
	return nil
}

// common wires the sampling shared by both trackers.
type common struct {
	host      *netsim.Host
	report    *Report
	epoch     eventsim.Time
	lastBytes int
	stopPoll  func()
	onDone    func(*Report)
}

func newCommon(host *netsim.Host, tool, clipRef string, onDone func(*Report)) *common {
	c := &common{
		host: host,
		report: &Report{
			Tool:     tool,
			ClipRef:  clipRef,
			Protocol: "UDP",
		},
		epoch:  host.Now(),
		onDone: onDone,
	}
	c.report.StartedAt = host.Now()
	return c
}

func (c *common) rel(now eventsim.Time) time.Duration { return now.Sub(c.epoch) }

// startPolling samples application bandwidth once per second from a bytes
// counter getter.
func (c *common) startPolling(bytesSoFar func() int) {
	c.stopPoll = c.host.Network().Sched.Ticker(time.Second, "tracker.poll", func(now eventsim.Time) bool {
		cur := bytesSoFar()
		delta := cur - c.lastBytes
		c.lastBytes = cur
		c.report.Bandwidth.Add(c.rel(now), float64(delta*8))
		return true
	})
}

func (c *common) finish(now eventsim.Time, completed bool) {
	if c.stopPoll != nil {
		c.stopPoll()
	}
	c.report.FinishedAt = now
	c.report.Completed = completed
	c.report.finalize()
	if c.onDone != nil {
		c.onDone(c.report)
	}
}

// MediaTracker wraps a Windows Media player session.
type MediaTracker struct {
	*common
	player *wms.Player
}

// StartMediaTracker builds the player for clipRef on host against server,
// attaches the recorder, and starts playback. onDone fires with the final
// report.
func StartMediaTracker(host *netsim.Host, server *wms.Server, clipRef string, ctlPort, dataPort uint16, onDone func(*Report)) *MediaTracker {
	c := newCommon(host, "MediaTracker", clipRef, onDone)
	t := &MediaTracker{common: c}
	ev := wms.PlayerEvents{
		OSPacket: func(now eventsim.Time, seq uint32, _ int) {
			c.report.OSPackets = append(c.report.OSPackets, Arrival{At: c.rel(now), Seq: seq})
		},
		AppPacket: func(now eventsim.Time, seq uint32) {
			c.report.AppPackets = append(c.report.AppPackets, Arrival{At: c.rel(now), Seq: seq})
		},
		SecondPlayed: func(now eventsim.Time, second, played, expected int) {
			c.report.FPS.Add(c.rel(now), float64(played))
		},
		StateChange: func(now eventsim.Time, s wms.State) {
			if s == wms.Playing {
				c.report.PlayBeganAt = now
			}
		},
		Done: func(now eventsim.Time) { t.complete(now) },
	}
	t.player = wms.NewPlayer(transport.NewSim(host), server.Host().Addr(), clipRef,
		toPort(ctlPort), toPort(dataPort), ev)
	t.player.Start()
	c.startPolling(func() int { return t.player.BytesReceived })
	return t
}

func (t *MediaTracker) complete(now eventsim.Time) {
	r := t.report
	m := t.player.Meta()
	r.EncodedBps = float64(m.EncodedBps)
	r.FrameRate = m.FrameRate()
	r.Duration = m.Duration()
	r.TotalFrames = int(m.TotalFrames)
	r.PacketsReceived = t.player.UnitsReceived
	r.PacketsLost = t.player.UnitsLost
	r.FramesPlayed = t.player.FramesPlayed
	r.FramesExpected = t.player.FramesExpected
	t.finish(now, t.player.FramesExpected > 0)
}

// Report returns the (final after Done) report.
func (t *MediaTracker) Report() *Report { return t.report }

// Player exposes the wrapped player.
func (t *MediaTracker) Player() *wms.Player { return t.player }

// RealTracker wraps a RealPlayer session.
type RealTracker struct {
	*common
	player *rdt.Player
}

// StartRealTracker builds and starts an instrumented RealPlayer session.
func StartRealTracker(host *netsim.Host, server *rdt.Server, clipRef string, ctlPort, dataPort uint16, onDone func(*Report)) *RealTracker {
	c := newCommon(host, "RealTracker", clipRef, onDone)
	t := &RealTracker{common: c}
	ev := rdt.PlayerEvents{
		OSPacket: func(now eventsim.Time, seq uint32, _ int) {
			c.report.OSPackets = append(c.report.OSPackets, Arrival{At: c.rel(now), Seq: seq})
		},
		SecondPlayed: func(now eventsim.Time, second, played, expected int) {
			c.report.FPS.Add(c.rel(now), float64(played))
		},
		StateChange: func(now eventsim.Time, s rdt.State) {
			if s == rdt.Playing {
				c.report.PlayBeganAt = now
			}
		},
		Done: func(now eventsim.Time) { t.complete(now) },
	}
	t.player = rdt.NewPlayer(transport.NewSim(host), server.Host().Addr(), clipRef,
		toPort(ctlPort), toPort(dataPort), ev)
	t.player.Start()
	c.startPolling(func() int { return t.player.BytesReceived })
	return t
}

func (t *RealTracker) complete(now eventsim.Time) {
	r := t.report
	m := t.player.Meta()
	r.EncodedBps = m.EncodedBps
	r.FrameRate = m.FrameRate
	r.Duration = m.Duration
	r.TotalFrames = m.TotalFrames
	r.PacketsReceived = t.player.PacketsReceived
	r.PacketsLost = t.player.PacketsLost
	r.PacketsRecovered = t.player.PacketsRecovered
	r.FramesPlayed = t.player.FramesPlayed
	r.FramesExpected = t.player.FramesExpected
	t.finish(now, t.player.FramesExpected > 0)
}

// Report returns the (final after Done) report.
func (t *RealTracker) Report() *Report { return t.report }

// Player exposes the wrapped player.
func (t *RealTracker) Player() *rdt.Player { return t.player }

func toPort(p uint16) inet.Port { return inet.Port(p) }
