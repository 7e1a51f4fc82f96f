package experiments

import (
	"turbulence/internal/probe"
	"turbulence/internal/stats"
)

func init() {
	register("fig01", "Figure 1: CDF of round-trip time", fig01)
	register("fig02", "Figure 2: CDF of number of hops", fig02)
}

// fig01 rebuilds the RTT CDF from the ping runs around every experiment
// (paper: median ~40 ms, maximum ~160 ms).
func fig01(ctx *Context) (*Result, error) {
	runs, err := ctx.All()
	if err != nil {
		return nil, err
	}
	var reports []*probe.PingReport
	var all []float64
	for _, run := range runs {
		for _, r := range []*probe.PingReport{run.PingBefore, run.PingAfter} {
			if r != nil {
				reports = append(reports, r)
				all = append(all, r.RTTMillis()...)
			}
		}
	}
	cdf := probe.RTTCDF(reports)
	res := &Result{
		ID:     "fig01",
		Title:  "CDF of RTT (ms)",
		Series: []Series{{Name: "RTT", Points: cdf}},
	}
	res.AddNote("median RTT = %.0f ms (paper: ~40 ms)", stats.Median(all))
	res.AddNote("max RTT = %.0f ms (paper: ~160 ms)", stats.Summarize(all).Max)
	res.AddNote("mean ping loss = %s (paper: near 0%%)", fmtPct(meanLoss(reports)))
	return res, nil
}

func meanLoss(reports []*probe.PingReport) float64 {
	if len(reports) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range reports {
		sum += r.LossRate()
	}
	return sum / float64(len(reports))
}

// fig02 rebuilds the hop-count CDF from the traceroutes (paper: most
// servers 15-20 hops away).
func fig02(ctx *Context) (*Result, error) {
	runs, err := ctx.All()
	if err != nil {
		return nil, err
	}
	var reports []*probe.TraceReport
	var hops []float64
	for _, run := range runs {
		if run.Route != nil {
			reports = append(reports, run.Route)
			hops = append(hops, float64(run.Route.HopCount()))
		}
	}
	cdf := probe.HopsCDF(reports)
	res := &Result{
		ID:     "fig02",
		Title:  "CDF of number of hops",
		Series: []Series{{Name: "hops", Points: cdf}},
	}
	in1520 := 0
	for _, h := range hops {
		if h >= 15 && h <= 20 {
			in1520++
		}
	}
	res.AddNote("median hops = %.0f; %d/%d paths within 15-20 hops (paper: most)", stats.Median(hops), in1520, len(hops))
	return res, nil
}
