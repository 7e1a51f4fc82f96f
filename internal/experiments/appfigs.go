package experiments

import (
	"time"

	"turbulence/internal/media"
	"turbulence/internal/stats"
	"turbulence/internal/tracker"
)

func init() {
	register("fig12", "Figure 12: packets received by network vs application layer (MediaPlayer)", fig12)
	register("fig13", "Figure 13: frame rate vs time (data set 5)", fig13)
	register("fig14", "Figure 14: frame rate vs average encoding rate (all data sets)", fig14)
	register("fig15", "Figure 15: frame rate vs average bandwidth (all data sets)", fig15)
}

// fig12 contrasts OS-layer and application-layer packet receipt for one
// MediaPlayer clip over a four-second window: steady per-tick arrivals
// against once-per-second interleave batches.
func fig12(ctx *Context) (*Result, error) {
	run, err := ctx.Pair(5, media.High)
	if err != nil {
		return nil, err
	}
	from, to := 32*time.Second, 36*time.Second
	osSeries := arrivalsInWindow(run.WMP.OSPackets, from, to)
	appSeries := arrivalsInWindow(run.WMP.AppPackets, from, to)
	res := &Result{
		ID:    "fig12",
		Title: "Packets received by network vs application layer (MediaPlayer)",
		Series: []Series{
			{Name: "Transport Layer Packets", Points: osSeries},
			{Name: "Application Layer Packets", Points: appSeries},
		},
	}
	osInstants := distinctInstants(run.WMP.OSPackets, from, to)
	appInstants := distinctInstants(run.WMP.AppPackets, from, to)
	res.AddNote("OS delivery instants in window: %d; app delivery instants: %d (paper: 100 ms vs 1 s cadence)",
		osInstants, appInstants)
	if appInstants > 0 {
		res.AddNote("mean app batch size: %.1f units (paper: groups of 10)",
			float64(len(appSeries))/float64(appInstants))
	}
	return res, nil
}

func arrivalsInWindow(arr []tracker.Arrival, from, to time.Duration) []stats.Point {
	var out []stats.Point
	for _, a := range arr {
		if a.At >= from && a.At < to {
			out = append(out, stats.Point{X: a.At.Seconds(), Y: float64(a.Seq)})
		}
	}
	return out
}

func distinctInstants(arr []tracker.Arrival, from, to time.Duration) int {
	seen := make(map[time.Duration]bool)
	for _, a := range arr {
		if a.At >= from && a.At < to {
			seen[a.At] = true
		}
	}
	return len(seen)
}

// fig13 plots the per-second frame rate of all four data set 5 flows
// (paper: both high-rate clips at 25 fps; the low WMP clip at 13 fps; the
// low Real clip well above it).
func fig13(ctx *Context) (*Result, error) {
	res := &Result{ID: "fig13", Title: "Frame rate vs time, data set 5 (frames/s)"}
	type row struct {
		name string
		fps  float64
	}
	var notes []row
	for _, class := range []media.Class{media.High, media.Low} {
		run, err := ctx.Pair(5, class)
		if err != nil {
			return nil, err
		}
		rc, wc := run.Clips()
		res.Series = append(res.Series,
			Series{Name: seriesName("Real Player", rc), Points: run.Real.FPS.MeanSeries(time.Second)},
			Series{Name: seriesName("Windows Media Player", wc), Points: run.WMP.FPS.MeanSeries(time.Second)},
		)
		notes = append(notes,
			row{seriesName("Real", rc), run.Real.AvgFPS},
			row{seriesName("WMP", wc), run.WMP.AvgFPS},
		)
	}
	for _, n := range notes {
		res.AddNote("%s: %.1f fps", n.name, n.fps)
	}
	return res, nil
}

// classStats aggregates per-class frame rate statistics for figures 14-15.
type classStats struct {
	xs, ys []float64
}

// fig14 plots per-clip frame rate against encoding rate, plus class means
// with standard error bars (paper: at low rates Real beats WMP; at high
// rates both reach ~25 fps).
func fig14(ctx *Context) (*Result, error) {
	return frameRateFigure(ctx, "fig14",
		"Frame rate vs average encoding rate (all data sets)",
		func(r *tracker.Report) float64 { return r.EncodedKbps() })
}

// fig15 plots frame rate against measured playout bandwidth (paper: for
// the same bandwidth Real achieves the higher frame rate).
func fig15(ctx *Context) (*Result, error) {
	return frameRateFigure(ctx, "fig15",
		"Frame rate vs average bandwidth (all data sets)",
		func(r *tracker.Report) float64 { return r.AvgPlaybackBps / 1000 })
}

func frameRateFigure(ctx *Context, id, title string, x func(*tracker.Report) float64) (*Result, error) {
	runs, err := ctx.All()
	if err != nil {
		return nil, err
	}
	var realPts, wmpPts []stats.Point
	classAgg := map[string]*classStats{}
	agg := func(player string, class media.Class, xv, fps float64) {
		key := player + "/" + class.String()
		cs := classAgg[key]
		if cs == nil {
			cs = &classStats{}
			classAgg[key] = cs
		}
		cs.xs = append(cs.xs, xv)
		cs.ys = append(cs.ys, fps)
	}
	for _, run := range runs {
		rx, wx := x(run.Real), x(run.WMP)
		realPts = append(realPts, stats.Point{X: rx, Y: run.Real.AvgFPS})
		wmpPts = append(wmpPts, stats.Point{X: wx, Y: run.WMP.AvgFPS})
		agg("Real", run.Class, rx, run.Real.AvgFPS)
		agg("WMP", run.Class, wx, run.WMP.AvgFPS)
	}
	res := &Result{
		ID:    id,
		Title: title,
		Series: []Series{
			{Name: "Real Media", Points: realPts},
			{Name: "Windows Media", Points: wmpPts},
		},
		Columns: []string{"player/class", "mean x", "mean fps", "stderr fps", "n"},
	}
	for _, player := range []string{"Real", "WMP"} {
		for _, class := range []media.Class{media.Low, media.High, media.VeryHigh} {
			cs := classAgg[player+"/"+class.String()]
			if cs == nil {
				continue
			}
			ySum := stats.Summarize(cs.ys)
			res.Rows = append(res.Rows, []string{
				player + "/" + class.String(),
				fmtF(stats.Mean(cs.xs)),
				fmtF(ySum.Mean),
				fmtF(ySum.StdErr),
				fmtInt(ySum.N),
			})
		}
	}
	lowReal := stats.Mean(classAgg["Real/low"].ys)
	lowWMP := stats.Mean(classAgg["WMP/low"].ys)
	res.AddNote("low-rate mean fps: Real=%.1f vs WMP=%.1f (paper: Real higher)", lowReal, lowWMP)
	highReal := stats.Mean(classAgg["Real/high"].ys)
	highWMP := stats.Mean(classAgg["WMP/high"].ys)
	res.AddNote("high-rate mean fps: Real=%.1f vs WMP=%.1f (paper: both ~25)", highReal, highWMP)
	return res, nil
}

func fmtInt(n int) string {
	return fmtF(float64(n))
}
