package dispatch

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"turbulence/internal/core"
	"turbulence/internal/media"
	"turbulence/internal/netem"
	"turbulence/internal/resultstore"
	"turbulence/internal/wire"
)

func openStore(t *testing.T, dir string) *resultstore.Store {
	t.Helper()
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// runDispatched drives a full coordinator + n loopback workers sweep and
// returns the merged wire bytes.
func runDispatched(t *testing.T, c *Coordinator, n int) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := NewWorker(Loopback(c),
				WithName(fmt.Sprintf("w%d", i)),
				WithRunWorkers(1),
				WithRetry(10*time.Millisecond),
			)
			_, errs[i] = w.Run(ctx)
		}()
	}
	merged, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	var buf bytes.Buffer
	if err := wire.WriteGob(&buf, merged); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDispatchWarmRerunServesFromStore is the dispatcher half of the
// incremental-sweep pin: a cold dispatched sweep populates the result
// store; a second coordinator on the identical plan finds every shard
// fully cached at carve time, grants zero leases, and its merge is
// byte-identical to the cold run — which is itself byte-identical to the
// unsharded single-process sweep.
func TestDispatchWarmRerunServesFromStore(t *testing.T) {
	plan := testPlan(t)
	want := unshardedGob(t, plan)
	st := openStore(t, t.TempDir())

	cold, err := New(plan, WithShards(4), WithRetry(10*time.Millisecond), WithResultStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if got := runDispatched(t, cold, 2); !bytes.Equal(got, want) {
		t.Fatal("cold dispatched sweep differs from unsharded run")
	}
	if s := st.Stats(); s.Entries != plan.Size() {
		t.Fatalf("store holds %d entries after the cold sweep, want %d", s.Entries, plan.Size())
	}

	warm, err := New(plan, WithShards(4), WithResultStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Done() {
		t.Fatal("warm coordinator not done at carve time despite a fully-cached plan")
	}
	if g, _ := warm.Lease("w"); !g.Done {
		t.Fatalf("warm coordinator leased work: %+v", g)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	merged, err := warm.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wire.WriteGob(&buf, merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("warm store-served sweep differs from unsharded run")
	}
}

// TestDispatchPartialCacheShipsCachedCells pins the superset-rerun path: a
// smaller sweep populates the store, then a superset plan's grants carry
// the overlapping cells as CachedCells, workers omit them, and the merge
// is still byte-identical to the unsharded superset run.
func TestDispatchPartialCacheShipsCachedCells(t *testing.T) {
	dsl, err := netem.Find("dsl")
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t, t.TempDir())

	// Seed the store from an in-process run of a strict subset (one pair
	// under both scenarios — 2 of the 6 superset cells).
	subset := core.NewPlan(7).
		ForPairs(core.PairKey{Set: 1, Class: media.Low}).
		UnderScenarios(nil, dsl)
	if _, err := core.NewRunner(
		core.WithWorkers(1),
		core.WithTraceRetention(core.StreamProfiles),
		core.WithResultStore(st),
	).Run(subset); err != nil {
		t.Fatal(err)
	}
	seeded := st.Stats().Entries
	if seeded != subset.Size() {
		t.Fatalf("store holds %d entries after the subset run, want %d", seeded, subset.Size())
	}

	plan := testPlan(t)
	want := unshardedGob(t, plan)
	c, err := New(plan, WithShards(1), WithRetry(10*time.Millisecond), WithResultStore(st))
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Lease("probe")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.CachedCells) != seeded {
		t.Fatalf("grant ships %d cached cells, want %d: %+v", len(g.CachedCells), seeded, g.CachedCells)
	}
	// The worker executes the grant exactly as Worker.runShard would:
	// reconstruct, omit the cached cells, run, ship.
	gp, err := g.Plan.Plan()
	if err != nil {
		t.Fatal(err)
	}
	shard := gp.Shard(g.Shard, g.Shards).Omitting(g.CachedCells...)
	if shard.Size() != plan.Size()-seeded {
		t.Fatalf("omitted shard has %d cells, want %d", shard.Size(), plan.Size()-seeded)
	}
	results, err := core.NewRunner(
		core.WithWorkers(1),
		core.WithTraceRetention(core.StreamProfiles),
	).Run(shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(g.LeaseID, wire.FromResults(results)); err != nil {
		t.Fatal(err)
	}
	if !c.Done() {
		t.Fatal("coordinator not done after the only shard completed")
	}
	var buf bytes.Buffer
	if err := wire.WriteGob(&buf, c.Collected()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("partially-cached sweep differs from unsharded run")
	}
	// The fresh cells were inserted on completion: the store now covers
	// the whole superset.
	if s := st.Stats(); s.Entries != plan.Size() {
		t.Fatalf("store holds %d entries after the superset sweep, want %d", s.Entries, plan.Size())
	}
}

// TestDispatchPartialCacheToleratesWholeShard pins the validator's
// tolerance for a worker that ignores CachedCells and ships its whole
// partially cached shard: the batch is accepted, the store's copies of
// the cached cells win over the shipped ones, and the merge is still
// byte-identical to the unsharded run. A batch that repeats a cell Index
// or ships a cell from outside the shard is still a protocol violation,
// rejected with a strike.
func TestDispatchPartialCacheToleratesWholeShard(t *testing.T) {
	dsl, err := netem.Find("dsl")
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t, t.TempDir())
	subset := core.NewPlan(7).
		ForPairs(core.PairKey{Set: 1, Class: media.Low}).
		UnderScenarios(nil, dsl)
	if _, err := core.NewRunner(
		core.WithWorkers(1),
		core.WithTraceRetention(core.StreamProfiles),
		core.WithResultStore(st),
	).Run(subset); err != nil {
		t.Fatal(err)
	}

	plan := testPlan(t)
	want := unshardedGob(t, plan)
	c, err := New(plan, WithShards(1), WithResultStore(st))
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Lease("stale")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.CachedCells) != subset.Size() {
		t.Fatalf("grant ships %d cached cells, want %d", len(g.CachedCells), subset.Size())
	}
	gp, err := g.Plan.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// The stale worker runs the whole stride, cached cells included.
	results, err := core.NewRunner(
		core.WithWorkers(1),
		core.WithTraceRetention(core.StreamProfiles),
	).Run(gp.Shard(g.Shard, g.Shards))
	if err != nil {
		t.Fatal(err)
	}
	runs := wire.FromResults(results)
	if len(runs) != plan.Size() {
		t.Fatalf("whole shard ran %d cells, want %d", len(runs), plan.Size())
	}
	// Corrupt the shipped copies of the cached cells: if the merge still
	// matches, the store's copies won.
	cached := make(map[int]bool)
	for _, idx := range g.CachedCells {
		cached[idx] = true
	}
	for i := range runs {
		if cached[runs[i].Index] {
			cmp := *runs[i].Comparison
			cmp.ClassName = "shipped-copy"
			runs[i].Comparison = &cmp
		}
	}

	strikes := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.strikes[0]
	}
	dupCached := append(append([]wire.Run(nil), runs...), runs[0])
	if err := c.Complete(g.LeaseID, dupCached); err == nil {
		t.Fatal("batch repeating a cell Index accepted")
	}
	if n := strikes(); n != 1 {
		t.Fatalf("duplicate-Index batch charged %d strikes, want 1", n)
	}
	outside := append(append([]wire.Run(nil), runs[:len(runs)-1]...), wire.Run{Index: plan.Size()})
	if err := c.Complete(g.LeaseID, outside); err == nil {
		t.Fatal("batch shipping a cell outside the shard accepted")
	}
	if n := strikes(); n != 2 {
		t.Fatalf("outside-shard batch charged %d strikes in all, want 2", n)
	}

	if err := c.Complete(g.LeaseID, runs); err != nil {
		t.Fatalf("whole partially cached shard rejected: %v", err)
	}
	if !c.Done() {
		t.Fatal("coordinator not done after the only shard completed")
	}
	var buf bytes.Buffer
	if err := wire.WriteGob(&buf, c.Collected()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("merge of a whole shipped shard differs from the unsharded run: shipped copies of cached cells leaked in")
	}
}
