package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"turbulence/internal/media"
	"turbulence/internal/netem"
)

// TestPlanShape pins the pure-description side of the Plan API: canonical
// ordering, sizes, default axes and seed policies, all with zero
// simulation cost.
func TestPlanShape(t *testing.T) {
	if n := NewPlan(1).Size(); n != len(AllPairs()) {
		t.Fatalf("default plan size %d, want %d", n, len(AllPairs()))
	}
	sc := mustScenario(t, "lossy-wifi")
	plan := NewPlan(1).
		ForPairs(PairKey{1, media.High}, PairKey{6, media.VeryHigh}).
		UnderScenarios(nil, sc).
		WithVariants(Variant{Name: "faithful"}, Variant{Name: "nofrag", Opts: Options{WMSUnitCap: 1400}})
	if plan.Size() != 2*2*2 {
		t.Fatalf("size %d, want 8", plan.Size())
	}
	keys := plan.Keys()
	if len(keys) != 8 {
		t.Fatalf("keys %d, want 8", len(keys))
	}
	// Canonical order is scenario-major, then variant, then pair.
	if keys[0].Scenario != nil || keys[0].Variant.Name != "faithful" || keys[0].Pair.Set != 1 {
		t.Fatalf("first key %v", keys[0])
	}
	if keys[7].Scenario != sc || keys[7].Variant.Name != "nofrag" || keys[7].Pair.Set != 6 {
		t.Fatalf("last key %v", keys[7])
	}
	for i, k := range keys {
		if k.Index != i {
			t.Fatalf("key %d has index %d", i, k.Index)
		}
	}
	if got := keys[7].String(); got != "lossy-wifi/nofrag/set6/very-high" {
		t.Fatalf("key label %q", got)
	}
	// SeedCommon: same pair ⇒ same seed across scenario/variant cells.
	if plan.Seed(keys[0]) != plan.Seed(keys[6]) || plan.Seed(keys[0]) != SeedFor(1, keys[0].Pair) {
		t.Fatal("SeedCommon seeds diverge across treatment axes")
	}
	// SeedPerCell: every cell an independent draw.
	per := plan.WithSeedPolicy(SeedPerCell)
	seen := map[int64]bool{}
	for _, k := range per.Keys() {
		s := per.Seed(k)
		if seen[s] {
			t.Fatalf("SeedPerCell repeats seed %d", s)
		}
		seen[s] = true
	}
}

// TestPlanShardPartitions pins that shards partition the cell space: every
// cell lands in exactly one shard, sizes match Size(), and re-sharding
// panics.
func TestPlanShardPartitions(t *testing.T) {
	plan := NewPlan(3).UnderScenarios(nil, mustScenario(t, "dsl"))
	total := plan.Size()
	seen := make(map[int]int)
	for i := 0; i < 4; i++ {
		sh := plan.Shard(i, 4)
		keys := sh.Keys()
		if len(keys) != sh.Size() {
			t.Fatalf("shard %d: %d keys, Size says %d", i, len(keys), sh.Size())
		}
		for _, k := range keys {
			seen[k.Index]++
			if k.Index%4 != i {
				t.Fatalf("cell %d in shard %d", k.Index, i)
			}
		}
	}
	if len(seen) != total {
		t.Fatalf("shards cover %d cells, want %d", len(seen), total)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("cell %d appears %d times", idx, n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-sharding did not panic")
		}
	}()
	plan.Shard(0, 2).Shard(0, 2)
}

// TestPlanShardSizes pins the lease-aware iteration: ShardSizes agrees
// with materialised shard keys for every shard, reports zero-size shards
// (the ones a dispatcher must never lease), and refuses sharded plans.
func TestPlanShardSizes(t *testing.T) {
	plan := NewPlan(3).UnderScenarios(nil, mustScenario(t, "dsl"))
	for _, n := range []int{1, 3, 4, 7, 100} {
		sizes := plan.ShardSizes(n)
		if len(sizes) != n {
			t.Fatalf("ShardSizes(%d) has %d entries", n, len(sizes))
		}
		sum := 0
		for i, sz := range sizes {
			if got := plan.Shard(i, n).Size(); got != sz {
				t.Fatalf("shard %d/%d: ShardSizes says %d, Shard.Size says %d", i, n, sz, got)
			}
			sum += sz
		}
		if sum != plan.Size() {
			t.Fatalf("ShardSizes(%d) sums to %d, want %d", n, sum, plan.Size())
		}
	}
	if sizes := plan.ShardSizes(100); sizes[len(sizes)-1] != 0 {
		t.Fatal("oversharded plan should have empty tail shards")
	}
	if plan.IsSharded() {
		t.Fatal("unsharded plan reports IsSharded")
	}
	sh := plan.Shard(0, 2)
	if !sh.IsSharded() {
		t.Fatal("Shard(0,2) does not report IsSharded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ShardSizes of a sharded plan did not panic")
		}
	}()
	sh.ShardSizes(2)
}

// runsIdentical compares two pair runs byte for byte: capture, path
// counters, tracker reports, profiles.
func runsIdentical(t *testing.T, label string, a, b *PairRun) {
	t.Helper()
	if a.Set != b.Set || a.Class != b.Class || a.Scenario != b.Scenario {
		t.Fatalf("%s: identity differs: %d/%v/%q vs %d/%v/%q", label, a.Set, a.Class, a.Scenario, b.Set, b.Class, b.Scenario)
	}
	tracesEqual(t, a, b)
	if a.Downlink != b.Downlink || a.Uplink != b.Uplink {
		t.Fatalf("%s: path stats differ", label)
	}
	if a.WMP.PacketsReceived != b.WMP.PacketsReceived || a.Real.PacketsReceived != b.Real.PacketsReceived {
		t.Fatalf("%s: tracker reports differ", label)
	}
	if pa, pb := ProfileFlow(a.WMPFlow), ProfileFlow(b.WMPFlow); pa != pb {
		t.Fatalf("%s: WMP profiles differ", label)
	}
	if pa, pb := ProfileFlow(a.RealFlow), ProfileFlow(b.RealFlow); pa != pb {
		t.Fatalf("%s: Real profiles differ", label)
	}
}

// oneOffRuns is the reference every Runner sweep must reproduce: each
// cell of plan run on its own via a new Runner's RunPair at plan.Seed(k)
// and plan.OptionsFor(k), on a testbed built for that run alone.
func oneOffRuns(t *testing.T, plan *Plan) []*PairRun {
	t.Helper()
	var out []*PairRun
	for _, k := range plan.Keys() {
		run, err := NewRunner().RunPair(plan.Seed(k), k.Pair.Set, k.Pair.Class, plan.OptionsFor(k))
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		out = append(out, run)
	}
	return out
}

// TestRunnerMatchesLegacyEntryPoints is the acceptance pin for the Plan
// API: a Runner executing the default Plan reproduces the one-off RunPair
// of every cell byte for byte at workers ∈ {1, 4, all}, and a scenario
// Plan's cells, projected by PairRuns, land in scenario-major rows the
// same way.
func TestRunnerMatchesLegacyEntryPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweeps in -short mode")
	}
	plan := NewPlan(2002)
	ref := oneOffRuns(t, plan)
	for _, workers := range []int{1, 4, 0} {
		results, err := NewRunner(WithWorkers(workers)).Run(plan)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != len(ref) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(results), len(ref))
		}
		for i, res := range results {
			if res.Err != nil || res.Seed != SeedFor(2002, res.Key.Pair) {
				t.Fatalf("workers=%d cell %d: err=%v seed=%d", workers, i, res.Err, res.Seed)
			}
			runsIdentical(t, res.Key.String(), ref[i], res.Run)
		}
	}

	keys := []PairKey{{1, media.High}, {4, media.Low}}
	scenarios := []*netem.Scenario{mustScenario(t, "dsl"), mustScenario(t, "lossy-wifi")}
	matrix := NewPlan(7).ForPairs(keys...).UnderScenarios(scenarios...)
	matrixRef := oneOffRuns(t, matrix)
	for _, workers := range []int{1, 4, 0} {
		results, err := NewRunner(WithWorkers(workers)).Run(matrix)
		if err != nil {
			t.Fatalf("matrix workers=%d: %v", workers, err)
		}
		if len(results) != len(scenarios)*len(keys) {
			t.Fatalf("matrix workers=%d: %d cells, want %d", workers, len(results), len(scenarios)*len(keys))
		}
		runs := PairRuns(results)
		for i, sc := range scenarios {
			for j := range keys {
				c := i*len(keys) + j
				if k := results[c].Key; k.Scenario != sc || k.ScenarioIndex != i || k.Pair != keys[j] {
					t.Fatalf("matrix workers=%d cell %d: key %v", workers, c, k)
				}
				runsIdentical(t, fmt.Sprintf("%s/%v", sc.Name, keys[j]), matrixRef[c], runs[c])
			}
		}
	}
}

// TestShardMergeReproducesUnsharded is the distributed-matrix guarantee:
// running every shard independently (as separate processes would) and
// recombining with MergeRuns yields exactly the unsharded matrix.
func TestShardMergeReproducesUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweeps in -short mode")
	}
	plan := NewPlan(11).
		ForPairs(PairKey{1, media.Low}, PairKey{2, media.High}, PairKey{5, media.Low}).
		UnderScenarios(mustScenario(t, "paper-baseline"), mustScenario(t, "dsl"))
	whole, err := NewRunner(WithWorkers(0)).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	parts := make([][]RunResult, shards)
	for i := 0; i < shards; i++ {
		part, err := NewRunner(WithWorkers(2)).Run(plan.Shard(i, shards))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		parts[i] = part
	}
	merged := MergeRuns(parts...)
	if len(merged) != len(whole) {
		t.Fatalf("merged %d cells, want %d", len(merged), len(whole))
	}
	for i := range whole {
		if merged[i].Key != whole[i].Key || merged[i].Seed != whole[i].Seed {
			t.Fatalf("cell %d: key %v vs %v", i, merged[i].Key, whole[i].Key)
		}
		runsIdentical(t, merged[i].Key.String(), whole[i].Run, merged[i].Run)
	}
}

// TestRunnerCancellation pins the cancellation contract: cancelling the
// context mid-sweep returns promptly with only the already-completed runs
// and the context's error.
func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const stopAfter = 2
	runner := NewRunner(
		WithWorkers(1),
		WithContext(ctx),
		WithProgress(func(p Progress) {
			if p.Done == stopAfter {
				cancel()
			}
		}),
	)
	start := time.Now()
	results, err := runner.Run(NewPlan(2002))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != stopAfter {
		t.Fatalf("%d results after cancel, want %d completed", len(results), stopAfter)
	}
	for _, res := range results {
		if res.Err != nil || res.Run == nil || res.Run.Trace.Len() == 0 {
			t.Fatalf("cancelled sweep returned an incomplete run: %+v", res)
		}
	}
	// "Promptly": the sweep must not have run to its 13-cell end. Allow
	// generous wall-clock slack for slow CI, but far below a full sweep.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestRunnerCancelMidSimulation pins the between-events interrupt: a
// context cancelled from outside while a single long run is in flight
// aborts that run without waiting for its horizon.
func TestRunnerCancelMidSimulation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	results, err := NewRunner(WithContext(ctx)).Run(NewPlan(2002))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Whatever completed before the cancel landed must be whole runs.
	for _, res := range results {
		if res.Run == nil || res.Err != nil {
			t.Fatalf("partial run leaked out: %+v", res)
		}
	}
	// A cancelled-before-start sweep delivers nothing at all.
	results, err = NewRunner(WithContext(ctx)).Run(NewPlan(2002))
	if err != context.Canceled || len(results) != 0 {
		t.Fatalf("pre-cancelled sweep: %d results, err %v", len(results), err)
	}
}

// TestRunPairCancelMidSimulation pins the one-off path's interrupt: a
// context cancelled 5 ms into a Runner.RunPair aborts the run between
// events and returns context.Canceled, long before the same run would
// reach its end.
func TestRunPairCancelMidSimulation(t *testing.T) {
	start := time.Now()
	if _, err := NewRunner().RunPair(2002, 6, media.VeryHigh, Options{}); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(5*time.Millisecond, cancel)
	start = time.Now()
	run, err := NewRunner(WithContext(ctx)).RunPair(2002, 6, media.VeryHigh, Options{})
	elapsed := time.Since(start)
	if err != context.Canceled || run != nil {
		t.Fatalf("cancelled RunPair returned run %v, err %v; want nil, context.Canceled", run != nil, err)
	}
	if elapsed > full/2 {
		t.Fatalf("cancelled run took %v, the whole run %v: the interrupt did not land mid-simulation", elapsed, full)
	}
}

// TestRunnerStreamAndRetention pins the streaming surface: Seq delivers
// every cell exactly once in completion order, StreamProfiles replaces raw
// captures with profiles identical to what Compare computes on a retained
// run, and an early break terminates the sweep.
func TestRunnerStreamAndRetention(t *testing.T) {
	keys := []PairKey{{1, media.Low}, {3, media.Low}, {4, media.Low}}
	plan := NewPlan(5).ForPairs(keys...)
	full, err := NewRunner(WithWorkers(0)).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for res := range NewRunner(WithWorkers(2), WithTraceRetention(StreamProfiles)).Seq(plan) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if seen[res.Key.Index] {
			t.Fatalf("cell %d delivered twice", res.Key.Index)
		}
		seen[res.Key.Index] = true
		if res.Run.Trace != nil || res.Run.WMPFlow != nil || res.Run.RealFlow != nil {
			t.Fatal("raw traces retained under StreamProfiles")
		}
		if res.Comparison == nil {
			t.Fatal("no Comparison under StreamProfiles")
		}
		if want := Compare(full[res.Key.Index].Run); *res.Comparison != want {
			t.Fatalf("cell %d: streamed profile differs from retained run", res.Key.Index)
		}
		if res.Run.WMP == nil || res.Run.Downlink.Forwarded == 0 {
			t.Fatal("non-trace results should survive streaming")
		}
	}
	if len(seen) != plan.Size() {
		t.Fatalf("stream delivered %d cells, want %d", len(seen), plan.Size())
	}
	// Early break cancels the remainder without deadlocking.
	delivered := 0
	for res := range NewRunner(WithWorkers(2), WithTraceRetention(StreamProfiles)).Seq(plan) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		delivered++
		break
	}
	if delivered != 1 {
		t.Fatalf("broke after %d deliveries", delivered)
	}
}

// countingStore is a ResultStore that counts calls and would serve every
// lookup as a hit, so any lookup reaching it would replace a run.
type countingStore struct {
	mu               sync.Mutex
	lookups, inserts int
}

func (s *countingStore) LookupResult(PairKey, Options, int64) (*Comparison, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups++
	return &Comparison{}, true
}

func (s *countingStore) InsertResult(_ PairKey, _ Options, _ int64, cmp *Comparison) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cmp != nil {
		s.inserts++
	}
}

// TestRetainFlowsWritesThroughStore pins the store rule under flow
// retention: every cell, sweep or one-off, inserts its Comparison, and
// none is looked up, so every run keeps its flows. The one-off reports
// progress as a 1-of-1 sweep.
func TestRetainFlowsWritesThroughStore(t *testing.T) {
	plan := NewPlan(5).ForPairs(PairKey{1, media.Low}, PairKey{3, media.Low})
	st := &countingStore{}
	var reports []Progress
	r := NewRunner(WithWorkers(0), WithTraceRetention(RetainFlows), WithResultStore(st),
		WithProgress(func(p Progress) { reports = append(reports, p) }))
	results, err := r.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Run == nil || res.Run.WMPFlow == nil || res.Run.RealFlow == nil {
			t.Fatalf("cell %v: flows missing", res.Key)
		}
	}
	reports = nil
	run, err := r.RunPair(5, 4, media.Low, Options{})
	if err != nil || run == nil || run.WMPFlow == nil {
		t.Fatalf("one-off: run %v, err %v", run != nil, err)
	}
	if len(reports) != 1 || reports[0].Done != 1 || reports[0].Total != 1 || reports[0].Key.Pair != (PairKey{4, media.Low}) {
		t.Fatalf("one-off progress %+v, want one 1-of-1 report for 4/low", reports)
	}
	if want := plan.Size() + 1; st.inserts != want || st.lookups != 0 {
		t.Fatalf("store saw %d inserts and %d lookups, want %d and 0", st.inserts, st.lookups, want)
	}
}

// TestRunnerFailFast pins that a cell error stops later cells from
// starting (the sequential early exit): with the failing cell
// first in canonical order and one worker, nothing after it runs.
func TestRunnerFailFast(t *testing.T) {
	plan := NewPlan(7).ForPairs(PairKey{99, media.Low}, PairKey{1, media.Low})
	results, err := NewRunner().Run(plan)
	if err == nil {
		t.Fatal("unknown set did not error")
	}
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("fail-fast sweep delivered %d cells, want just the failure", len(results))
	}
}

// traceDigest folds a run's full capture — wire bytes included — into one
// FNV-64a value.
func traceDigest(run *PairRun) uint64 {
	h := fnv.New64a()
	for i := 0; i < run.Trace.Len(); i++ {
		rec := run.Trace.At(i)
		fmt.Fprintf(h, "%d|%d|%v|", rec.At, rec.WireLen, rec.Dir)
		h.Write(rec.Raw())
	}
	return h.Sum64()
}

// TestPairRunGoldenDigest anchors the engine to committed constants, so
// "byte-identical" is checked against history rather than only against
// another path through the same code. The digests were recorded
// from this tree after diffing six experiment families byte-for-byte
// against a pre-Plan/Runner build (PR 2 HEAD); any change to the
// simulation's draws, packetisation or capture breaks them loudly.
func TestPairRunGoldenDigest(t *testing.T) {
	golden := []struct {
		scenario string
		packets  int
		digest   uint64
	}{
		{"", 3132, 0x5cd19e7859a15b04},
		{"lossy-wifi", 3123, 0x8c1e7a6510f82158},
	}
	for _, g := range golden {
		opts := Options{}
		if g.scenario != "" {
			opts.Scenario = mustScenario(t, g.scenario)
		}
		run, err := NewRunner().RunPair(SeedFor(2002, PairKey{2, media.High}), 2, media.High, opts)
		if err != nil {
			t.Fatal(err)
		}
		if run.Trace.Len() != g.packets || traceDigest(run) != g.digest {
			t.Errorf("scenario %q: %d packets digest %#016x, want %d / %#016x — the engine's byte-level output drifted from the committed golden",
				g.scenario, run.Trace.Len(), traceDigest(run), g.packets, g.digest)
		}
	}
}

// TestScenarioAxisWinsOverVariantScenario pins the axis-composition rule:
// with a scenario axis declared, a variant's stray Options.Scenario is
// replaced for every cell — the nil (faithful) entry included — so labels
// never lie; without an axis, the variant's scenario stands.
func TestScenarioAxisWinsOverVariantScenario(t *testing.T) {
	dsl, cable := mustScenario(t, "dsl"), mustScenario(t, "cable")
	plan := NewPlan(1).ForPairs(PairKey{1, media.Low}).
		UnderScenarios(nil, dsl).
		WithOptions(Options{Scenario: cable})
	keys := plan.Keys()
	if got := plan.OptionsFor(keys[0]).Scenario; got != nil {
		t.Fatalf("faithful axis cell runs under %q", got.Name)
	}
	if got := plan.OptionsFor(keys[1]).Scenario; got != dsl {
		t.Fatalf("dsl axis cell runs under %v", got)
	}
	noAxis := NewPlan(1).ForPairs(PairKey{1, media.Low}).WithOptions(Options{Scenario: cable})
	if got := noAxis.OptionsFor(noAxis.Keys()[0]).Scenario; got != cable {
		t.Fatalf("axis-less plan dropped the variant scenario: %v", got)
	}
}
