package core

import (
	"testing"

	"turbulence/internal/media"
	"turbulence/internal/netem"
)

// mustScenario resolves a built-in scenario.
func mustScenario(t *testing.T, name string) *netem.Scenario {
	t.Helper()
	sc, err := netem.Find(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// tracesEqual compares two runs' captures byte for byte.
func tracesEqual(t *testing.T, a, b *PairRun) {
	t.Helper()
	if a.Trace.Len() != b.Trace.Len() {
		t.Fatalf("trace lengths differ: %d vs %d", a.Trace.Len(), b.Trace.Len())
	}
	for j := 0; j < a.Trace.Len(); j++ {
		if !recordsEqual(a.Trace.At(j), b.Trace.At(j)) {
			t.Fatalf("record %d differs:\n%v\n%v", j, a.Trace.At(j), b.Trace.At(j))
		}
	}
}

// TestPaperBaselineScenarioIsFaithful pins the scenario layer's zero-cost
// guarantee: streaming under "paper-baseline" is byte-identical to
// streaming with no scenario at all — same packets, same draws, same
// counters.
func TestPaperBaselineScenarioIsFaithful(t *testing.T) {
	plain, err := NewRunner().RunPair(2002, 2, media.High, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewRunner().RunPair(2002, 2, media.High, Options{Scenario: mustScenario(t, "paper-baseline")})
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, plain, base)
	if plain.Downlink != base.Downlink || plain.Uplink != base.Uplink {
		t.Fatalf("path stats differ: %+v vs %+v", plain.Downlink, base.Downlink)
	}
	if base.Scenario != "paper-baseline" || plain.Scenario != "" {
		t.Fatalf("scenario labels: %q, %q", base.Scenario, plain.Scenario)
	}
}

// TestScenarioDeterminismAcrossWorkers is the acceptance guarantee for
// the scenario engine: identical seed+scenario produces byte-identical
// PairRun output whether runs execute sequentially or on a worker pool,
// and across repeated invocations.
func TestScenarioDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full pair runs in -short mode")
	}
	keys := []PairKey{{Set: 1, Class: media.High}, {Set: 6, Class: media.VeryHigh}}
	opts := Options{Scenario: mustScenario(t, "lossy-wifi")}
	plan := NewPlan(77).ForPairs(keys...).WithOptions(opts)
	results, err := NewRunner(WithWorkers(1)).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	seq := PairRuns(results)
	for name, workers := range map[string]int{"parallel": 4, "repeat-sequential": 1} {
		results, err := NewRunner(WithWorkers(workers)).Run(plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again := PairRuns(results)
		for i := range seq {
			tracesEqual(t, seq[i], again[i])
			if seq[i].Downlink != again[i].Downlink || seq[i].Uplink != again[i].Uplink {
				t.Fatalf("%s run %d: path stats differ", name, i)
			}
			if pa, pb := ProfileFlow(seq[i].WMPFlow), ProfileFlow(again[i].WMPFlow); pa != pb {
				t.Fatalf("%s run %d: WMP profiles differ", name, i)
			}
		}
	}
}

// TestScenarioChangesTheNetwork guards against a scenario that silently
// fails to wire in: bursty wifi loss must show up in the downlink drop
// breakdown as model loss, not queue drops.
func TestScenarioChangesTheNetwork(t *testing.T) {
	base, err := NewRunner().RunPair(11, 1, media.High, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wifi, err := NewRunner().RunPair(11, 1, media.High, Options{Scenario: mustScenario(t, "lossy-wifi")})
	if err != nil {
		t.Fatal(err)
	}
	if wifi.Downlink.DroppedLoss <= base.Downlink.DroppedLoss*2 {
		t.Fatalf("lossy-wifi downlink loss %d not clearly above baseline %d",
			wifi.Downlink.DroppedLoss, base.Downlink.DroppedLoss)
	}
	if base.Downlink.Forwarded == 0 || wifi.Downlink.Forwarded == 0 {
		t.Fatal("no forwarded packets recorded")
	}
}

// TestScenarioMatrixCompletes streams every Table 1 pair under every
// registered scenario: the whole library must keep every session
// completing within its horizon, the calibration contract of
// scenarios.go.
func TestScenarioMatrixCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario matrix in -short mode")
	}
	var scenarios []*netem.Scenario
	for _, sc := range netem.All() {
		if sc.Hop != nil { // skip test-registered stubs
			scenarios = append(scenarios, sc)
		}
	}
	pairs := AllPairs()
	results, err := NewRunner(WithWorkers(0)).Run(NewPlan(2002).ForPairs(pairs...).UnderScenarios(scenarios...))
	if err != nil {
		t.Fatal(err)
	}
	runs := PairRuns(results)
	if len(runs) != len(scenarios)*len(pairs) {
		t.Fatalf("%d runs, want %d scenarios x %d pairs", len(runs), len(scenarios), len(pairs))
	}
	for i, sc := range scenarios {
		row := runs[i*len(pairs) : (i+1)*len(pairs)]
		for _, run := range row {
			if run.Scenario != sc.Name {
				t.Fatalf("run labelled %q under %q", run.Scenario, sc.Name)
			}
			if !run.WMP.Completed || !run.Real.Completed {
				t.Fatalf("%s %d/%v: incomplete playback", sc.Name, run.Set, run.Class)
			}
			if run.Downlink.Forwarded == 0 {
				t.Fatalf("%s %d/%v: empty downlink stats", sc.Name, run.Set, run.Class)
			}
		}
	}
}
