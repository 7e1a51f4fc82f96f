package experiments

import (
	"time"

	"turbulence/internal/capture"
	"turbulence/internal/media"
	"turbulence/internal/stats"
)

func init() {
	register("fig03", "Figure 3: average playback data rate vs encoding data rate", fig03)
	register("fig10", "Figure 10: bandwidth vs time for one clip set (data set 1)", fig10)
	register("fig11", "Figure 11: buffering rate / playing rate vs encoding rate (Real)", fig11)
}

// fig03 plots per-clip (encoding rate, average playback rate) for both
// players with second-order polynomial trend fits, as the paper does. The
// paper finds MediaPlayer tracking y=x while RealPlayer sits above it.
func fig03(ctx *Context) (*Result, error) {
	runs, err := ctx.All()
	if err != nil {
		return nil, err
	}
	var realPts, wmpPts []stats.Point
	for _, run := range runs {
		realPts = append(realPts, stats.Point{X: run.Real.EncodedKbps(), Y: run.Real.AvgPlaybackBps / 1000})
		wmpPts = append(wmpPts, stats.Point{X: run.WMP.EncodedKbps(), Y: run.WMP.AvgPlaybackBps / 1000})
	}
	res := &Result{
		ID:    "fig03",
		Title: "Average playback data rate vs encoding data rate (Kbps)",
		Series: []Series{
			{Name: "RealPlayer", Points: realPts},
			{Name: "MediaPlayer", Points: wmpPts},
		},
	}
	for _, s := range []struct {
		name string
		pts  []stats.Point
	}{{"Poly(RealPlayer)", realPts}, {"Poly(MediaPlayer)", wmpPts}} {
		poly, err := stats.PolyFit(s.pts, 2)
		if err != nil {
			continue
		}
		var curve []stats.Point
		for x := 0.0; x <= 800; x += 25 {
			curve = append(curve, stats.Point{X: x, Y: poly.Eval(x)})
		}
		res.Series = append(res.Series, Series{Name: s.name, Points: curve})
		res.AddNote("%s: %s", s.name, poly.String())
	}
	res.AddNote("mean playback/encoding ratio: Real=%.2f (paper: >1), WMP=%.2f (paper: ~1)",
		meanRatio(realPts), meanRatio(wmpPts))
	return res, nil
}

func meanRatio(pts []stats.Point) float64 {
	var rs []float64
	for _, p := range pts {
		if p.X > 0 {
			rs = append(rs, p.Y/p.X)
		}
	}
	return stats.Mean(rs)
}

// fig10 rebuilds the bandwidth-versus-time view of data set 1: four
// curves (Real high/low, WMP high/low) in one-second buckets, showing
// RealPlayer's startup burst against MediaPlayer's flat CBR.
func fig10(ctx *Context) (*Result, error) {
	res := &Result{ID: "fig10", Title: "Bandwidth vs time, data set 1 (Kbits/s)"}
	for _, class := range []media.Class{media.High, media.Low} {
		run, err := ctx.Pair(1, class)
		if err != nil {
			return nil, err
		}
		rc, wc := run.Clips()
		for _, f := range []struct {
			name string
			flow *capture.FlowTrace
		}{
			{seriesName("Real Player", rc), run.RealFlow},
			{seriesName("Windows Media Player", wc), run.WMPFlow},
		} {
			pts := f.flow.BandwidthSeries(time.Second)
			for i := range pts {
				pts[i].Y /= 1000
			}
			res.Series = append(res.Series, Series{Name: f.name, Points: pts})
		}
		// Streaming duration comparison (paper: Real finishes sending
		// sooner because the burst front-loads the clip).
		realSpan := flowSpan(run.RealFlow)
		wmpSpan := flowSpan(run.WMPFlow)
		res.AddNote("%v pair: Real stream lasted %.0fs, WMP %.0fs (paper: Real shorter)",
			class, realSpan.Seconds(), wmpSpan.Seconds())
	}
	return res, nil
}

func seriesName(player string, clip media.Clip) string {
	return player + " (" + fmtF(clip.EncodedKbps) + "K)"
}

func flowSpan(ft *capture.FlowTrace) time.Duration {
	if ft.Len() < 2 {
		return 0
	}
	return ft.At(ft.Len()-1).At - ft.At(0).At
}

// BufferPlayRatio is the Figure 11 metric for one Real flow: throughput
// over the first buffering seconds divided by the clip's encoding rate
// (the playout rate). Exported for the ablation benches.
func BufferPlayRatio(ft *capture.FlowTrace, encodedBps float64) float64 {
	if ft.Len() == 0 || encodedBps <= 0 {
		return 0
	}
	const window = 8 * time.Second
	start := ft.At(0).At
	var bits float64
	for i, n := 0, ft.Len(); i < n; i++ {
		if r := ft.At(i); r.At-start <= window {
			bits += float64(r.WireLen * 8)
		}
	}
	return bits / window.Seconds() / encodedBps
}

// fig11 plots Real's buffering-to-playing rate ratio against encoding
// rate across all data sets (paper: ~3 at low rates declining toward 1 at
// 637 Kbps; MediaPlayer's ratio is 1 by construction).
func fig11(ctx *Context) (*Result, error) {
	runs, err := ctx.All()
	if err != nil {
		return nil, err
	}
	var pts []stats.Point
	for _, run := range runs {
		rc, _ := run.Clips()
		ratio := BufferPlayRatio(run.RealFlow, rc.EncodedBps())
		pts = append(pts, stats.Point{X: rc.EncodedKbps, Y: ratio})
	}
	res := &Result{
		ID:     "fig11",
		Title:  "Buffering rate / playing rate vs encoding rate (RealPlayer)",
		Series: []Series{{Name: "Real", Points: pts}},
	}
	var lowRatios, vhRatios []float64
	for _, p := range pts {
		if p.X < 56 {
			lowRatios = append(lowRatios, p.Y)
		}
		if p.X > 500 {
			vhRatios = append(vhRatios, p.Y)
		}
	}
	res.AddNote("low-rate (<56K) mean ratio = %.2f (paper: ~3)", stats.Mean(lowRatios))
	res.AddNote("very-high (637K) ratio = %.2f (paper: close to 1)", stats.Mean(vhRatios))
	res.AddNote("MediaPlayer buffering/playing ratio is 1 for all clips (paper §3.F)")
	return res, nil
}
