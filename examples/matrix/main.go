// Matrix demonstrates the Plan/Runner API on a (scenario × pair) sweep:
// declare the run space, run it with bounded memory and live progress,
// cancel cooperatively on ctrl-C, and — the distributed recipe — shard
// the same plan across workers and merge the outputs back into the
// canonical order.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"text/tabwriter"

	"turbulence"
)

func main() {
	// The run space: every Table 1 pair under three network scenarios,
	// with common random numbers across scenarios so differences between
	// rows are the impairments, not sampling noise.
	var scenarios []*turbulence.Scenario
	for _, name := range []string{"paper-baseline", "dsl", "lossy-wifi"} {
		sc, err := turbulence.FindScenario(name)
		if err != nil {
			log.Fatal(err)
		}
		scenarios = append(scenarios, sc)
	}
	plan := turbulence.NewPlan(2002).UnderScenarios(scenarios...)
	fmt.Printf("plan: %d cells\n", plan.Size())

	// Run the sweep: all cores, ctrl-C cancels mid-run, and packets feed
	// online analyzers instead of a stored capture, so memory stays bounded
	// however large the matrix grows. Progress reports each cell as it
	// completes; Run returns them all in canonical order.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	runner := turbulence.NewRunner(
		turbulence.WithWorkers(0),
		turbulence.WithContext(ctx),
		turbulence.WithTraceRetention(turbulence.StreamProfiles),
		turbulence.WithProgress(func(p turbulence.Progress) {
			fmt.Fprintf(os.Stderr, "  [%2d/%2d] %s\n", p.Done, p.Total, p.Key)
		}),
	)

	results, err := runner.Run(plan)
	if err != nil {
		log.Fatal(err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scenario\tpair\tWMP Kbps\tReal Kbps\tWMP frag%\tdownlink drops")
	for _, res := range results {
		k := res.Key
		c := res.Comparison // no trace was stored; the profiles survive
		d := res.Run.Downlink
		fmt.Fprintf(w, "%s\t set%d/%v\t%.0f\t%.0f\t%.0f\t%d\n",
			k.Scenario.Name, k.Pair.Set, k.Pair.Class,
			c.WMP.AvgRateBps/1000, c.Real.AvgRateBps/1000, c.WMP.FragShare*100,
			d.DroppedLoss+d.DroppedFull+d.DroppedAQM)
	}
	w.Flush()

	// The distributed recipe, in miniature: each shard of the same plan
	// could run in a separate process or on a separate machine — only the
	// (seed, i, n) triple needs to travel — and MergeRuns reassembles the
	// canonical matrix exactly.
	const shards = 3
	var parts [][]turbulence.RunResult
	for i := 0; i < shards; i++ {
		part, err := turbulence.NewRunner(turbulence.WithWorkers(0)).
			Run(plan.Shard(i, shards))
		if err != nil {
			log.Fatal(err)
		}
		parts = append(parts, part)
	}
	merged := turbulence.MergeRuns(parts...)
	identical := len(merged) == plan.Size()
	for _, res := range merged {
		want := results[res.Key.Index]
		if res.Run.Trace.Len() == 0 || res.Key != want.Key || res.Seed != want.Seed ||
			*res.Comparison != *want.Comparison {
			identical = false
		}
	}
	fmt.Printf("sharded %d ways and merged: %d cells, canonical order restored: %t\n",
		shards, len(merged), identical)
}
