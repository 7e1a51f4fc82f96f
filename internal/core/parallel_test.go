package core

import (
	"bytes"
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
// path, in the same order.
func TestRunPairsParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full pair runs in -short mode")
	}
	plan := NewPlan(77).ForPairs(AllPairs()[:4]...)
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
// failures.
func TestRunPairsErrorPropagates(t *testing.T) {
	plan := NewPlan(7).ForPairs(PairKey{Set: 1, Class: media.Low}, PairKey{Set: 99, Class: media.Low})
	if _, err := NewRunner(WithWorkers(2)).Run(plan); err == nil {
		t.Fatal("unknown set did not error through the worker pool")
	}
}
