package wire

import (
	"bytes"
	"testing"

	"turbulence/internal/core"
	"turbulence/internal/media"
	"turbulence/internal/netem"
)

// streamedResults runs a small sharded plan in the streaming retention —
// the intended producer of wire batches.
func streamedResults(t *testing.T, shard, shards int) []core.RunResult {
	t.Helper()
	sc, err := netem.Find("dsl")
	if err != nil {
		t.Fatal(err)
	}
	plan := core.NewPlan(7).
		ForPairs(core.PairKey{Set: 1, Class: media.Low}, core.PairKey{Set: 3, Class: media.Low}).
		UnderScenarios(nil, sc)
	if shards > 1 {
		plan = plan.Shard(shard, shards)
	}
	results, err := core.NewRunner(
		core.WithWorkers(0),
		core.WithTraceRetention(core.StreamProfiles),
	).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestRoundTripBothEncodings pins that gob and JSON both reproduce a batch
// exactly, profiles included.
func TestRoundTripBothEncodings(t *testing.T) {
	runs := FromResults(streamedResults(t, 0, 1))
	if len(runs) != 4 {
		t.Fatalf("%d runs, want 4", len(runs))
	}
	for _, r := range runs {
		if r.Comparison == nil || r.Err != "" {
			t.Fatalf("run %+v missing profiles", r)
		}
		if r.Comparison.WMP.Packets == 0 || r.Comparison.Real.Packets == 0 {
			t.Fatalf("run %d: empty profiles", r.Index)
		}
	}
	if runs[2].Scenario != "dsl" || runs[0].Scenario != "" {
		t.Fatalf("scenario labels: %q / %q", runs[0].Scenario, runs[2].Scenario)
	}

	var gobBuf, jsonBuf bytes.Buffer
	if err := WriteGob(&gobBuf, runs); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&jsonBuf, runs); err != nil {
		t.Fatal(err)
	}
	fromGob, err := ReadGob(&gobBuf)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ReadJSON(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if *fromGob[i].Comparison != *runs[i].Comparison || fromGob[i].Index != runs[i].Index {
			t.Fatalf("gob round trip diverged at %d", i)
		}
		if *fromJSON[i].Comparison != *runs[i].Comparison || fromJSON[i].Class != runs[i].Class {
			t.Fatalf("json round trip diverged at %d", i)
		}
	}
}

// TestShardShipMerge is the distributed loop end to end: every shard runs
// its slice, encodes, ships (a buffer here), and the collector's Merge
// reproduces the unsharded batch exactly.
func TestShardShipMerge(t *testing.T) {
	whole := FromResults(streamedResults(t, 0, 1))
	const shards = 3
	var batches [][]Run
	for i := 0; i < shards; i++ {
		var buf bytes.Buffer
		if err := WriteGob(&buf, FromResults(streamedResults(t, i, shards))); err != nil {
			t.Fatal(err)
		}
		got, err := ReadGob(&buf)
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, got)
	}
	merged := Merge(batches...)
	if len(merged) != len(whole) {
		t.Fatalf("merged %d runs, want %d", len(merged), len(whole))
	}
	for i := range whole {
		a, b := merged[i], whole[i]
		if a.Index != b.Index || a.Set != b.Set || a.Class != b.Class ||
			a.Scenario != b.Scenario || a.Seed != b.Seed || *a.Comparison != *b.Comparison {
			t.Fatalf("cell %d: merged shard output differs from unsharded run\n%+v\n%+v", i, a, b)
		}
	}
}

// TestFromResultRetained pins that a retained-trace result ships the
// Comparison it carries, as a copy, and that errors carry their text.
func TestFromResultRetained(t *testing.T) {
	results, err := core.NewRunner().Run(core.NewPlan(7).ForPairs(core.PairKey{Set: 1, Class: media.Low}))
	if err != nil {
		t.Fatal(err)
	}
	r := FromResult(results[0])
	if r.Comparison == nil || results[0].Comparison == nil {
		t.Fatal("retained run produced no profiles")
	}
	if r.Comparison == results[0].Comparison || *r.Comparison != *results[0].Comparison {
		t.Fatal("wire profiles are not a copy of the run's Comparison")
	}
	bad, _ := core.NewRunner().Run(core.NewPlan(7).ForPairs(core.PairKey{Set: 99, Class: media.Low}))
	if len(bad) != 1 {
		t.Fatalf("expected the failed cell, got %d", len(bad))
	}
	if r := FromResult(bad[0]); r.Err == "" || r.Comparison != nil {
		t.Fatalf("failed cell encodes as %+v", r)
	}
}

// TestRetainTracesWireMatchesStream pins that a sweep's wire output does
// not depend on its retention: the JSON batch of a two-pair RetainTraces
// sweep is byte-identical to the StreamProfiles sweep of the same plan.
func TestRetainTracesWireMatchesStream(t *testing.T) {
	plan := core.NewPlan(7).ForPairs(core.PairKey{Set: 1, Class: media.Low}, core.PairKey{Set: 3, Class: media.Low})
	encode := func(retention core.TraceRetention) []byte {
		results, err := core.NewRunner(core.WithWorkers(0), core.WithTraceRetention(retention)).Run(plan)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, FromResults(results)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	traces, stream := encode(core.RetainTraces), encode(core.StreamProfiles)
	if !bytes.Equal(traces, stream) {
		t.Fatalf("RetainTraces wire batch differs from StreamProfiles:\n%s\n%s", traces, stream)
	}
}
