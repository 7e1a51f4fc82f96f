package turbulence_test

import (
	"fmt"
	"time"

	"turbulence"
)

// ExampleRunPair runs the paper's unit experiment and prints the headline
// contrast between the two players.
func ExampleRunPair() {
	run, err := turbulence.RunPair(2002, 1, turbulence.High, turbulence.Options{})
	if err != nil {
		panic(err)
	}
	cmp := turbulence.Compare(run)
	fmt.Printf("WMP CBR: %t, fragments: %t\n", cmp.WMP.CBR, cmp.WMP.FragShare > 0)
	fmt.Printf("Real CBR: %t, fragments: %t\n", cmp.Real.CBR, cmp.Real.FragShare > 0)
	// Output:
	// WMP CBR: true, fragments: true
	// Real CBR: false, fragments: false
}

// ExampleCompileFilter shows the Ethereal-style display-filter language.
func ExampleCompileFilter() {
	run, err := turbulence.RunPair(2002, 1, turbulence.High, turbulence.Options{})
	if err != nil {
		panic(err)
	}
	fullFragments, err := turbulence.CompileFilter("ip.contfrag && size == 1514")
	if err != nil {
		panic(err)
	}
	sub := fullFragments.Apply(run.Trace)
	fmt.Printf("matched MTU-sized continuation fragments: %t\n", sub.Len() > 0)
	for i := 0; i < sub.Len(); i++ {
		if !sub.At(i).IsContinuationFragment() || sub.At(i).WireLen != 1514 {
			fmt.Println("filter leaked a non-matching record")
		}
	}
	// Output:
	// matched MTU-sized continuation fragments: true
}

// ExampleFitModel demonstrates the Section IV recipe: fit a flow model
// from a measurement, then generate synthetic traffic with the same
// turbulence.
func ExampleFitModel() {
	run, err := turbulence.RunPair(2002, 1, turbulence.High, turbulence.Options{})
	if err != nil {
		panic(err)
	}
	model := turbulence.FitModel(run.WMPFlow)
	synthetic := turbulence.GenerateFlow(model, turbulence.NewRNG(1), 30*time.Second, run.WMPFlow.Flow)
	prof := turbulence.ProfileFlow(synthetic.SplitFlows()[0])
	fmt.Printf("synthetic flow is CBR: %t, fragmented: %t\n", prof.CBR, prof.FragShare > 0.5)
	// Output:
	// synthetic flow is CBR: true, fragmented: true
}

// ExampleLibrary lists the Table 1 data sets.
func ExampleLibrary() {
	for _, set := range turbulence.Library() {
		fmt.Printf("set %d: %s, %d clips\n", set.Set, set.Content, len(set.Clips()))
	}
	// Output:
	// set 1: Sports, 4 clips
	// set 2: Commercial, 4 clips
	// set 3: Sports, 4 clips
	// set 4: Music TV, 4 clips
	// set 5: News, 4 clips
	// set 6: Movie clip, 6 clips
}

// ExampleNewPlan declares a (scenario × pair × variant) run space and
// shards it — all pure description, no simulation runs.
func ExampleNewPlan() {
	dsl, err := turbulence.FindScenario("dsl")
	if err != nil {
		panic(err)
	}
	// All 13 Table 1 pairs, faithful and DSL paths, two ablation points.
	plan := turbulence.NewPlan(2002).
		UnderScenarios(nil, dsl).
		WithVariants(
			turbulence.Variant{Name: "faithful"},
			turbulence.Variant{Name: "nofrag", Opts: turbulence.Options{WMSUnitCap: 1400}},
		)
	fmt.Printf("cells: %d\n", plan.Size())
	shard := plan.Shard(1, 4)
	fmt.Printf("shard 1/4: %d cells, first %s\n", shard.Size(), shard.Keys()[0])
	// A Runner would execute it:
	//   results, err := turbulence.NewRunner(turbulence.WithWorkers(0)).Run(plan)
	// and MergeRuns over every shard's results reassembles the matrix.

	// Output:
	// cells: 52
	// shard 1/4: 13 cells, first faithful/set1/high
}
