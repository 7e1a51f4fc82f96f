package core

import (
	"bytes"
	"slices"
	"testing"

	"turbulence/internal/capture"
	"turbulence/internal/media"
)

// recordsEqual compares two captured records field by field, including the
// wire bytes rebuilt from the columnar store.
func recordsEqual(a, b capture.Record) bool {
	if a.At != b.At || a.Dir != b.Dir || a.WireLen != b.WireLen ||
		a.Src != b.Src || a.Dst != b.Dst || a.Proto != b.Proto ||
		a.IPID != b.IPID || a.FragOff != b.FragOff || a.MoreFrag != b.MoreFrag ||
		a.IPLen != b.IPLen || a.HasPorts != b.HasPorts ||
		a.SrcPort != b.SrcPort || a.DstPort != b.DstPort || a.PayloadLen != b.PayloadLen {
		return false
	}
	return bytes.Equal(a.Raw(), b.Raw())
}

// TestRunPairsParallelDeterminism is the determinism-under-parallelism
// guarantee: a Runner fanning pair runs out across a worker pool must yield
// byte-identical traces and identical per-flow profiles to the sequential
// path, in the same order. The parallel run also starts its cells in a
// different order from the sequential one — longest first starts 1/high
// before 1/low (TestParallelStartOrder) — so this pins that start order
// never reaches output. Keep the plan reordered if it changes.
func TestRunPairsParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full pair runs in -short mode")
	}
	plan := NewPlan(77).ForPairs(AllPairs()[:4]...)
	if cells := plan.cells(); longestFirst(cells)[0] == 0 {
		t.Fatal("the parallel run starts in canonical order, so it no longer tests a reordered sweep")
	}
	seqResults, err := NewRunner(WithWorkers(1)).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	parResults, err := NewRunner(WithWorkers(4)).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	seq, par := PairRuns(seqResults), PairRuns(parResults)
	if len(seq) != len(par) {
		t.Fatalf("result lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a, b := seq[i], par[i]
		if a.Set != b.Set || a.Class != b.Class {
			t.Fatalf("run %d ordering differs: %d/%v vs %d/%v", i, a.Set, a.Class, b.Set, b.Class)
		}
		if a.Trace.Len() != b.Trace.Len() {
			t.Fatalf("run %d trace lengths differ: %d vs %d", i, a.Trace.Len(), b.Trace.Len())
		}
		for j := 0; j < a.Trace.Len(); j++ {
			if !recordsEqual(a.Trace.At(j), b.Trace.At(j)) {
				t.Fatalf("run %d record %d differs:\n%v\n%v", i, j, a.Trace.At(j), b.Trace.At(j))
			}
		}
		for _, flows := range [][2]*capture.FlowTrace{{a.WMPFlow, b.WMPFlow}, {a.RealFlow, b.RealFlow}} {
			pa, pb := ProfileFlow(flows[0]), ProfileFlow(flows[1])
			if pa != pb {
				t.Fatalf("run %d flow profiles differ:\n%v\n%v", i, pa, pb)
			}
		}
		if a.WMP.AvgFPS != b.WMP.AvgFPS || a.WMP.PacketsReceived != b.WMP.PacketsReceived ||
			a.Real.AvgPlaybackBps != b.Real.AvgPlaybackBps || a.Real.PacketsReceived != b.Real.PacketsReceived {
			t.Fatalf("run %d tracker reports differ", i)
		}
	}
}

// TestRunPairsErrorPropagates asserts the Runner's worker pool surfaces
// failures, including a pair outside Table 1, whose predicted cost is 0 so
// it starts last.
func TestRunPairsErrorPropagates(t *testing.T) {
	unknown := PairKey{Set: 99, Class: media.Low}
	if c := pairCost(unknown); c != 0 {
		t.Fatalf("set 99 predicts cost %v, want 0", c)
	}
	plan := NewPlan(7).ForPairs(PairKey{Set: 1, Class: media.Low}, unknown)
	if _, err := NewRunner(WithWorkers(2)).Run(plan); err == nil {
		t.Fatal("unknown set did not error through the worker pool")
	}
}

// TestParallelStartOrder pins the order a parallel sweep starts its cells
// in: descending streamed kilobits, ties in canonical order.
func TestParallelStartOrder(t *testing.T) {
	cells := NewPlan(2002).cells()
	want := []PairKey{
		{6, media.VeryHigh}, {4, media.High}, {6, media.High}, {1, media.High}, {5, media.High},
		{3, media.High}, {2, media.High}, {6, media.Low}, {4, media.Low}, {1, media.Low},
		{2, media.Low}, {5, media.Low}, {3, media.Low},
	}
	order := longestFirst(cells)
	if len(order) != len(want) {
		t.Fatalf("order has %d cells, want %d", len(order), len(want))
	}
	for i, ci := range order {
		if got := cells[ci].key.Pair; got != want[i] {
			t.Fatalf("start %d is %d/%v, want %d/%v", i, got.Set, got.Class, want[i].Set, want[i].Class)
		}
	}

	// One pair under several scenarios is a tie: its cells start in
	// canonical (scenario-major) order, all before the cheaper pair's.
	plan := NewPlan(2002).ForPairs(PairKey{3, media.Low}, PairKey{1, media.High}).
		UnderScenarios(nil, mustScenario(t, "lossy-wifi"), mustScenario(t, "dsl"))
	cells = plan.cells()
	var got []int
	for _, ci := range longestFirst(cells) {
		got = append(got, cells[ci].key.Index)
	}
	if want := []int{1, 3, 5, 0, 2, 4}; !slices.Equal(got, want) {
		t.Fatalf("2 pairs x 3 scenarios start in Index order %v, want %v", got, want)
	}
}

// TestSequentialProgressInCanonicalOrder pins that one worker runs cells
// in canonical order, not longest first: the cheaper 3/low, first in the
// plan, is reported first.
func TestSequentialProgressInCanonicalOrder(t *testing.T) {
	plan := NewPlan(2002).ForPairs(PairKey{3, media.Low}, PairKey{5, media.Low})
	var got []int
	_, err := NewRunner(WithWorkers(1), WithTraceRetention(StreamProfiles),
		WithProgress(func(p Progress) { got = append(got, p.Key.Index) })).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("sequential progress in Index order %v, want [0 1]", got)
	}
}
