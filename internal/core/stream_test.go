package core

import (
	"testing"

	"turbulence/internal/media"
	"turbulence/internal/netem"
)

// streamParityPlanCheck runs one plan in both worlds — traces retained and
// profiled by Compare (the reference), then StreamProfiles at several
// worker counts — and requires the online profiles to be *exactly* equal
// to the trace-derived ones, cell by cell.
func streamParityPlanCheck(t *testing.T, plan *Plan, workerSet []int) {
	t.Helper()
	ref, err := NewRunner(WithWorkers(0), WithTraceRetention(RetainTraces)).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]Comparison, len(ref))
	for _, res := range ref {
		if res.Run == nil || res.Run.Trace == nil {
			t.Fatalf("reference cell %v missing its trace", res.Key)
		}
		want[res.Key.Index] = Compare(res.Run)
	}
	for _, workers := range workerSet {
		results, err := NewRunner(WithWorkers(workers), WithTraceRetention(StreamProfiles)).Run(plan)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != len(ref) {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(results), len(ref))
		}
		for _, res := range results {
			if res.Err != nil {
				t.Fatalf("workers=%d cell %v: %v", workers, res.Key, res.Err)
			}
			if res.Run.Trace != nil || res.Run.WMPFlow != nil || res.Run.RealFlow != nil {
				t.Fatalf("workers=%d cell %v: StreamProfiles retained a trace", workers, res.Key)
			}
			if res.Comparison == nil {
				t.Fatalf("workers=%d cell %v: no online profiles", workers, res.Key)
			}
			if *res.Comparison != want[res.Key.Index] {
				t.Fatalf("workers=%d cell %v: online profiles differ from trace-derived:\nonline WMP:  %v\ntrace  WMP:  %v\nonline Real: %v\ntrace  Real: %v",
					workers, res.Key,
					res.Comparison.WMP, want[res.Key.Index].WMP,
					res.Comparison.Real, want[res.Key.Index].Real)
			}
			// Everything that isn't the trace survives streaming.
			if res.Run.WMP == nil || res.Run.Real == nil || res.Run.Downlink.Forwarded == 0 {
				t.Fatalf("workers=%d cell %v: non-trace results missing", workers, res.Key)
			}
		}
	}
}

// TestStreamProfilesMatchTraceProfilesQuick is the always-on parity
// sample: two pairs under the faithful testbed and one impaired scenario.
func TestStreamProfilesMatchTraceProfilesQuick(t *testing.T) {
	plan := NewPlan(2002).
		ForPairs(PairKey{2, media.High}, PairKey{4, media.Low}).
		UnderScenarios(nil, mustScenario(t, "lossy-wifi"))
	streamParityPlanCheck(t, plan, []int{2})
}

// TestStreamProfilesMatchTraceProfiles is the acceptance pin for online
// analysis: across all 13 Table 1 pairs, the faithful testbed and every
// named netem scenario, at workers ∈ {1, 4, all}, StreamProfiles produces
// profiles exactly equal to profiling retained traces — while never
// materialising a trace.
func TestStreamProfilesMatchTraceProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweeps in -short mode")
	}
	scenarios := append([]*netem.Scenario{nil}, netem.All()...)
	plan := NewPlan(2002).UnderScenarios(scenarios...)
	streamParityPlanCheck(t, plan, []int{1, 4, 0})
}
