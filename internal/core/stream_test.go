package core

import (
	"reflect"
	"testing"
	"time"

	"turbulence/internal/capture"
	"turbulence/internal/inet"
	"turbulence/internal/media"
	"turbulence/internal/netem"
)

// streamParityPlanCheck runs one plan in both worlds — traces retained and
// profiled by Compare (the reference), then StreamProfiles at several
// worker counts — and requires the online profiles to be *exactly* equal
// to the trace-derived ones, cell by cell, the reference cells' own
// online Comparisons included.
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
		if res.Comparison == nil || *res.Comparison != want[res.Key.Index] {
			t.Fatalf("reference cell %v: its own online Comparison %v differs from Compare on its trace", res.Key, res.Comparison)
		}
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

// flowParityCheck runs plan under RetainTraces (the reference) and
// RetainFlows, and requires each RetainFlows cell's flows to equal the
// reference capture's FlowTo views record for record — every exported
// Record field; only the payload (Wire) is dropped — and Compare on the
// flows to equal the cell's online Comparison.
func flowParityCheck(t *testing.T, plan *Plan) {
	t.Helper()
	ref, err := NewRunner(WithWorkers(0), WithTraceRetention(RetainTraces)).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewRunner(WithWorkers(0), WithTraceRetention(RetainFlows)).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("%d cells, want %d", len(got), len(ref))
	}
	for i, res := range got {
		run := res.Run
		if run.Trace != nil || run.WMPFlow == nil || run.RealFlow == nil {
			t.Fatalf("cell %v: RetainFlows kept trace=%t wmp=%t real=%t, want only the flows",
				res.Key, run.Trace != nil, run.WMPFlow != nil, run.RealFlow != nil)
		}
		if res.Comparison == nil {
			t.Fatalf("cell %v: no online profiles", res.Key)
		}
		if c := Compare(run); c != *res.Comparison {
			t.Fatalf("cell %v: Compare(flows) differs from the online Comparison:\n%+v\n%+v", res.Key, c, *res.Comparison)
		}
		want := ref[i].Run.Trace
		for _, fl := range []struct {
			port inet.Port
			got  *capture.FlowTrace
		}{{WMPDataPort, run.WMPFlow}, {RDTDataPort, run.RealFlow}} {
			w := want.FlowTo(fl.port)
			if fl.got.Flow != w.Flow || fl.got.Len() != w.Len() {
				t.Fatalf("cell %v port %d: flow %v with %d records, want %v with %d",
					res.Key, fl.port, fl.got.Flow, fl.got.Len(), w.Flow, w.Len())
			}
			for j := 0; j < w.Len(); j++ {
				a, b := fl.got.At(j), w.At(j)
				if a.Wire() != nil {
					t.Fatalf("cell %v port %d record %d: payload retained", res.Key, fl.port, j)
				}
				if f, ok := exportedFieldsDiffer(a, b); ok {
					t.Fatalf("cell %v port %d record %d: field %s differs:\n%v\n%v", res.Key, fl.port, j, f, a, b)
				}
			}
		}
	}
}

// exportedFieldsDiffer names the first exported Record field on which a
// and b differ.
func exportedFieldsDiffer(a, b capture.Record) (string, bool) {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		f := va.Type().Field(i)
		if f.IsExported() && va.Field(i).Interface() != vb.Field(i).Interface() {
			return f.Name, true
		}
	}
	return "", false
}

// TestRetainFlowsMatchTraceFlows pins flow retention to the whole-capture
// views it replaces: all 13 Table 1 pairs at seed 2002, 5/high under
// lossy-wifi, where loss breaks fragment trains, and the option shapes of
// the experiments' one-off runs. Sequential matters most there: the two
// players use their ports back to back, so the recorder's first flow per
// port must be the one Trace.FlowTo picks.
func TestRetainFlowsMatchTraceFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("13-pair sweeps in -short mode")
	}
	flowParityCheck(t, NewPlan(2002))
	flowParityCheck(t, NewPlan(2002).ForPairs(PairKey{5, media.High}).UnderScenarios(mustScenario(t, "lossy-wifi")))
	burstyLoss := &netem.Scenario{
		Name: "bottleneck-ge-2-25",
		Hop: func(role netem.HopRole, _, _ int) netem.Impairment {
			if role != netem.RoleBottleneck {
				return netem.Impairment{}
			}
			return netem.Impairment{Loss: func() netem.LossModel { return netem.GEFromBurst(0.02, 25, 0.5) }}
		},
		HorizonSlack: time.Minute,
	}
	for _, c := range []struct {
		pair PairKey
		opts Options
	}{
		{PairKey{1, media.High}, Options{WMSUnitCap: 1400}},
		{PairKey{6, media.VeryHigh}, Options{UncappedBurst: true}},
		{PairKey{5, media.High}, Options{DisableInterleave: true}},
		{PairKey{2, media.High}, Options{Sequential: true}},
		{PairKey{1, media.High}, Options{BottleneckBps: 500e3, EnableScaling: true}},
		{PairKey{1, media.High}, Options{Scenario: burstyLoss}},
	} {
		flowParityCheck(t, NewPlan(2002).ForPairs(c.pair).WithOptions(c.opts))
	}
}
