package experiments

import (
	"fmt"
	"time"

	"turbulence/internal/core"
	"turbulence/internal/media"
	"turbulence/internal/netem"
)

func init() {
	register("ext-netem-loss", "Extension (netem): turbulence vs loss burstiness at equal average loss", extNetemLoss)
	register("ext-netem-bandwidth", "Extension (netem): turbulence vs bottleneck bandwidth profile", extNetemBandwidth)
	register("ext-netem-scenarios", "Extension (netem): the scenario matrix — every pair under every named scenario", extNetemScenarios)
}

// bottleneckScenario builds an unregistered one-off scenario impairing
// only the server-side bottleneck hop.
func bottleneckScenario(name string, im netem.Impairment) *netem.Scenario {
	return &netem.Scenario{
		Name: name,
		Hop: func(role netem.HopRole, _, _ int) netem.Impairment {
			if role != netem.RoleBottleneck {
				return netem.Impairment{}
			}
			return im
		},
		HorizonSlack: time.Minute,
	}
}

// extNetemLoss streams the set 1 high pair under three loss processes of
// identical 2% long-run average rate — independent drops, short fade
// bursts, long fade bursts — plus the faithful baseline. The shape of
// loss, not just its rate, is what the netem layer makes measurable: the
// two players wear the same link weather very differently (RealPlayer
// repairs it with NAK retransmissions; MediaPlayer has no recovery and
// additionally loses whole packets to single lost fragments), and long
// fades concentrate a session's drops into few episodes, so a single
// realization scatters widely around the stationary rate.
func extNetemLoss(ctx *Context) (*Result, error) {
	variants := []struct {
		name string
		sc   *netem.Scenario
	}{
		{"faithful (~0%)", nil},
		{"bernoulli 2%", bottleneckScenario("bernoulli-2", netem.Impairment{
			Loss: func() netem.LossModel { return netem.Bernoulli(0.02) },
		})},
		{"bursty 2% (8-pkt)", bottleneckScenario("ge-2-8", netem.Impairment{
			Loss: func() netem.LossModel { return netem.GEFromBurst(0.02, 8, 0.3) },
		})},
		{"bursty 2% (25-pkt)", bottleneckScenario("ge-2-25", netem.Impairment{
			Loss: func() netem.LossModel { return netem.GEFromBurst(0.02, 25, 0.5) },
		})},
	}
	res := &Result{
		ID:      "ext-netem-loss",
		Title:   "Loss burstiness at equal average rate (set 1 high pair, 2% bottleneck loss)",
		Columns: []string{"loss process", "link drops", "Real loss %", "Real recovered", "Real fps", "WMP loss %", "WMP fps", "longest gap (ms)"},
	}
	type outcome struct {
		realLoss, wmpLoss float64
		recovered         int
		linkDrops         uint64
	}
	var outcomes []outcome
	for _, v := range variants {
		run, err := ctx.RunOne(ctx.Seed+801, 1, media.High, core.Options{Scenario: v.sc})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			v.name,
			fmtInt(int(run.Downlink.DroppedLoss)),
			fmtF(run.Real.LossRate() * 100),
			fmtInt(run.Real.PacketsRecovered),
			fmtF(run.Real.AvgFPS),
			fmtF(run.WMP.LossRate() * 100),
			fmtF(run.WMP.AvgFPS),
			fmtF(longestGap(run.RealFlow).Seconds() * 1000),
		})
		outcomes = append(outcomes, outcome{run.Real.LossRate(), run.WMP.LossRate(),
			run.Real.PacketsRecovered, run.Downlink.DroppedLoss})
	}
	res.AddNote("RealPlayer's NAK recovery repairs the 2%% link (unrecovered %.1f%%/%.1f%%/%.1f%% across shapes) at the cost of %d/%d/%d retransmissions",
		outcomes[1].realLoss*100, outcomes[2].realLoss*100, outcomes[3].realLoss*100,
		outcomes[1].recovered, outcomes[2].recovered, outcomes[3].recovered)
	res.AddNote("WMP has no recovery: its application loss (%.1f%% vs %.1f%%) tracks the realized link drops, amplified by fragmentation (one lost fragment discards the whole packet)",
		outcomes[1].wmpLoss*100, outcomes[3].wmpLoss*100)
	res.AddNote("long fades concentrate drops into few episodes: the 25-pkt realization saw %d link drops vs bernoulli's %d at the same stationary rate",
		outcomes[3].linkDrops, outcomes[1].linkDrops)
	return res, nil
}

// extNetemBandwidth streams the set 1 high pair under four bottleneck
// rate profiles — the constant faithful link, a sinusoidal oscillation, a
// mid-session brownout step, and a replayed wireless trace — and compares
// delivery smoothness. This is the paper's "network turbulence" question
// inverted: how much turbulence does the *network's own* variability
// inject into each player's delivery?
func extNetemBandwidth(ctx *Context) (*Result, error) {
	variants := []struct {
		name string
		sc   *netem.Scenario
	}{
		{"constant (faithful)", nil},
		{"sinusoid ±35%", bottleneckScenario("bw-sin", netem.Impairment{
			Bandwidth: netem.ScaledSinusoid(0.9, 0.35, 50*time.Second),
		})},
		{"brownout 45% @60-90s", bottleneckScenario("bw-brown", netem.Impairment{
			Bandwidth: func(base float64) netem.BandwidthProfile {
				return netem.NewStepSchedule(base,
					netem.Step{At: 60 * time.Second, Bps: base * 0.45},
					netem.Step{At: 90 * time.Second, Bps: base})
			},
		})},
		{"wireless trace", bottleneckScenario("bw-trace", netem.Impairment{
			Bandwidth: func(float64) netem.BandwidthProfile {
				return &netem.TraceProfile{Interval: 5 * time.Second, Loop: true, Samples: []float64{
					1.8e6, 1.2e6, 0.9e6, 1.5e6, 0.7e6, 1.9e6, 1.1e6, 0.8e6,
				}}
			},
		})},
	}
	res := &Result{
		ID:      "ext-netem-bandwidth",
		Title:   "Bottleneck bandwidth profile vs delivery turbulence (set 1 high pair)",
		Columns: []string{"profile", "queue drops", "Real rate CV", "WMP rate CV", "Real fps", "WMP fps", "longest gap (ms)"},
	}
	var cvs []float64
	for _, v := range variants {
		run, err := ctx.RunOne(ctx.Seed+802, 1, media.High, core.Options{Scenario: v.sc})
		if err != nil {
			return nil, err
		}
		queueDrops := run.Downlink.DroppedFull + run.Downlink.DroppedAQM
		wmpCV := rateCV(run.WMPFlow)
		res.Rows = append(res.Rows, []string{
			v.name,
			fmtInt(int(queueDrops)),
			fmt.Sprintf("%.2f", rateCV(run.RealFlow)),
			fmt.Sprintf("%.2f", wmpCV),
			fmtF(run.Real.AvgFPS),
			fmtF(run.WMP.AvgFPS),
			fmtF(longestGap(run.WMPFlow).Seconds() * 1000),
		})
		cvs = append(cvs, wmpCV)
	}
	worst := cvs[1]
	for _, cv := range cvs[1:] {
		if cv > worst {
			worst = cv
		}
	}
	res.AddNote("a varying bottleneck turns CBR delivery bursty: WMP 1s-rate CV rises from %.2f (constant) to as high as %.2f",
		cvs[0], worst)
	res.AddNote("rate dips surface as queue-overflow drops at the bottleneck FIFO, not as link loss — the breakdown separates the two causes")
	return res, nil
}

// extNetemScenarios is the scenario-matrix runner as a report: every high
// class Table 1 pair streamed under every registered scenario, one row per
// scenario, sharing the context's seed (common random numbers) and worker
// pool. The deterministic what-if laboratory the ROADMAP's scenario
// diversity goal asks for.
func extNetemScenarios(ctx *Context) (*Result, error) {
	var keys []core.PairKey
	for _, k := range core.AllPairs() {
		if k.Class == media.High {
			keys = append(keys, k)
		}
	}
	var scenarios []*netem.Scenario
	for _, sc := range netem.All() {
		if sc.Hop != nil { // skip test-registered stubs
			scenarios = append(scenarios, sc)
		}
	}
	rows, err := scenarioRows(ctx, core.NewPlan(ctx.Seed+803).ForPairs(keys...).UnderScenarios(scenarios...))
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:      "ext-netem-scenarios",
		Title:   "Scenario matrix: all high-rate pairs under every named scenario",
		Columns: []string{"scenario", "Real loss %", "WMP loss %", "Real fps", "WMP fps", "model drops", "queue drops", "aqm drops"},
	}
	for si, runs := range rows {
		var realLoss, wmpLoss, realFPS, wmpFPS float64
		var modelDrops, queueDrops, aqmDrops uint64
		for _, run := range runs {
			realLoss += run.Real.LossRate()
			wmpLoss += run.WMP.LossRate()
			realFPS += run.Real.AvgFPS
			wmpFPS += run.WMP.AvgFPS
			modelDrops += run.Downlink.DroppedLoss
			queueDrops += run.Downlink.DroppedFull
			aqmDrops += run.Downlink.DroppedAQM
		}
		n := float64(len(runs))
		res.Rows = append(res.Rows, []string{
			scenarios[si].Name,
			fmtF(realLoss / n * 100),
			fmtF(wmpLoss / n * 100),
			fmtF(realFPS / n),
			fmtF(wmpFPS / n),
			fmtInt(int(modelDrops)),
			fmtInt(int(queueDrops)),
			fmtInt(int(aqmDrops)),
		})
	}
	res.AddNote("%d scenarios x %d pairs, common random numbers: row differences are the impairments, not sampling noise", len(scenarios), len(keys))
	res.AddNote("identical seed reproduces this table byte for byte at any -parallel setting")
	return res, nil
}

// scenarioRows runs a plan whose scenario axis lists named scenarios on
// the context's streaming Runner and groups the runs by Key.ScenarioIndex:
// one row per scenario, in axis order, each in the plan's pair order. The
// runs carry no Trace, WMPFlow or RealFlow. A failed cell's error (the
// first in canonical order) names its scenario.
func scenarioRows(ctx *Context, plan *core.Plan) ([][]*core.PairRun, error) {
	results, err := ctx.streamRunner().Run(plan)
	if err != nil {
		for _, res := range results {
			if res.Err != nil {
				return nil, fmt.Errorf("scenario %s: %w", res.Key.Scenario.Name, res.Err)
			}
		}
		return nil, err
	}
	rows := make([][]*core.PairRun, len(plan.Scenarios))
	for _, res := range results {
		rows[res.Key.ScenarioIndex] = append(rows[res.Key.ScenarioIndex], res.Run)
	}
	return rows, nil
}
