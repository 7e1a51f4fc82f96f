package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"turbulence/internal/media"
	"turbulence/internal/obs"
)

// TestProgressTimingAndMetricsSink pins the runner's observability seams:
// each Progress report carries the cell's start time and wall-clock
// elapsed, and an installed obs.Sink sees the sweep — cell completions
// with their timing histogram, the simulator's event and timer counters,
// and the captured packet volume — without changing any result.
func TestProgressTimingAndMetricsSink(t *testing.T) {
	plan := NewPlan(2002).ForPairs(PairKey{1, media.Low}, PairKey{3, media.Low})
	reg := obs.NewRegistry()
	sink := obs.NewSink(reg)
	before := time.Now()
	var reports []Progress
	results, err := NewRunner(
		WithWorkers(1),
		WithProgress(func(p Progress) { reports = append(reports, p) }),
		WithMetrics(sink),
	).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != plan.Size() || len(reports) != plan.Size() {
		t.Fatalf("%d results, %d reports, want %d of each", len(results), len(reports), plan.Size())
	}
	for _, p := range reports {
		if p.Start.Before(before) || p.Start.After(time.Now()) {
			t.Fatalf("progress start %v outside the sweep window", p.Start)
		}
		if p.Elapsed <= 0 {
			t.Fatalf("progress for %s carries no elapsed time: %+v", p.Key, p)
		}
	}
	if got := sink.CellsDone.Value(); got != uint64(plan.Size()) {
		t.Fatalf("sink counted %d cells, want %d", got, plan.Size())
	}
	if got := sink.CellErrors.Value(); got != 0 {
		t.Fatalf("sink counted %d cell errors on a clean sweep", got)
	}
	if sink.EventsFired.Value() == 0 || sink.TimersScheduled.Value() == 0 {
		t.Fatalf("sink saw no simulator activity: fired=%d scheduled=%d",
			sink.EventsFired.Value(), sink.TimersScheduled.Value())
	}
	if sink.HeapDepthPeak.Value() <= 0 {
		t.Fatalf("sink heap high-water = %d", sink.HeapDepthPeak.Value())
	}
	if sink.Packets.Value() == 0 || sink.Bytes.Value() == 0 {
		t.Fatalf("sink saw no captured traffic: packets=%d bytes=%d",
			sink.Packets.Value(), sink.Bytes.Value())
	}

	// The sweep above reused its testbed: one shape on one worker means one
	// build, and every further cell served by Reset.
	if got := sink.TestbedsBuilt.Value(); got != 1 {
		t.Fatalf("sink counted %d testbeds built, want 1 (one shape, one worker)", got)
	}
	if got, want := sink.TestbedsReused.Value(), uint64(plan.Size()-1); got != want {
		t.Fatalf("sink counted %d testbed reuses, want %d", got, want)
	}

	// The new series render under their exposition names with the sweep's
	// values.
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"turbulence_testbeds_built_total 1\n",
		fmt.Sprintf("turbulence_testbeds_reused_total %d\n", plan.Size()-1),
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("rendered exposition lacks %q:\n%s", want, text.String())
		}
	}

	// The meter observes; it must not steer. Same plan without a sink is
	// profile-identical.
	bare, err := NewRunner(WithWorkers(1)).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bare {
		a, b := Compare(results[i].Run), Compare(bare[i].Run)
		if a.Real != b.Real {
			t.Fatalf("cell %d: metered profile differs from bare run", i)
		}
	}
}
