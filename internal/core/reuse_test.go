package core

import (
	"context"
	"runtime"
	"testing"

	"turbulence/internal/media"
	"turbulence/internal/racecheck"
)

// TestReusedMatchesFresh is the reuse identity pin: reset-reused testbeds
// must produce byte-identical traces to fresh construction, at every
// worker count. The reference runs each cell one-off via RunPair, on a
// testbed built for that run alone; each worker count is compared against
// it cell by cell via the full trace digest.
func TestReusedMatchesFresh(t *testing.T) {
	plan := NewPlan(2002).
		ForPairs(PairKey{2, media.High}, PairKey{4, media.Low}).
		UnderScenarios(nil, mustScenario(t, "lossy-wifi"))
	keys := plan.Keys()
	ref := oneOffRuns(t, plan)
	refDigest := make([]uint64, len(ref))
	for i, run := range ref {
		refDigest[i] = traceDigest(run)
	}

	for _, workers := range []int{1, 4, 0} {
		var sw SweepStats
		got, err := NewRunner(WithWorkers(workers), WithSweepStats(func(s SweepStats) { sw = s })).Run(plan)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(got), len(ref))
		}
		for i := range got {
			if got[i].Key != keys[i] || got[i].Seed != plan.Seed(keys[i]) {
				t.Fatalf("workers=%d: cell %d is %v seed %d, want %v seed %d",
					workers, i, got[i].Key, got[i].Seed, keys[i], plan.Seed(keys[i]))
			}
			if d := traceDigest(got[i].Run); d != refDigest[i] {
				t.Fatalf("workers=%d: cell %v trace digest %#x diverges from fresh run %#x",
					workers, got[i].Key.Pair, d, refDigest[i])
			}
		}
		// Testbed economy: every cell was served, by build or reuse.
		if sw.TestbedsBuilt+sw.TestbedsReused != plan.Size() {
			t.Fatalf("workers=%d: built %d + reused %d != %d cells",
				workers, sw.TestbedsBuilt, sw.TestbedsReused, plan.Size())
		}
		if workers == 1 {
			// Sequential: one worker, two shapes (faithful, lossy-wifi),
			// four cells — exactly two builds and two reuses.
			if sw.TestbedsBuilt != 2 || sw.TestbedsReused != 2 {
				t.Fatalf("sequential sweep built %d, reused %d, want 2 and 2",
					sw.TestbedsBuilt, sw.TestbedsReused)
			}
		}
	}
}

// TestResetAllocFree pins the steady-state cost of Testbed.Reset: rewinding
// the whole apparatus — network, hosts, hops, both stacks at six sites —
// must cost at most the small constant replay budget (the six per-site RDT
// stream splits), not a rebuild.
func TestResetAllocFree(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation pin: race instrumentation inflates counts")
	}
	tb := NewTestbed(1)
	tb.Reset(2) // warm any lazily grown internals
	allocs := testing.AllocsPerRun(10, func() { tb.Reset(3) })
	if allocs > 30 {
		t.Fatalf("Testbed.Reset allocates %.0f objects per call, want the constant replay budget (≤30)", allocs)
	}
}

// TestReusedRunAllocatesFarLess pins the payoff the cache exists for: a
// cell served by resetting a warm testbed must allocate at least 5× less
// than the same cell building its apparatus from scratch.
func TestReusedRunAllocatesFarLess(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation pin: race instrumentation dominates both measurements")
	}
	seed := SeedFor(2002, PairKey{Set: 2, Class: media.High})
	ctx := context.Background()
	measure := func(cache *TestbedCache) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, _, err := runPair(ctx, seed, 2, media.High, Options{}, true, nil, cache); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	cache := NewTestbedCache()
	if _, _, err := runPair(ctx, seed, 2, media.High, Options{}, true, nil, cache); err != nil {
		t.Fatal(err) // warm: builds the testbed and the pooled demux
	}
	reused := measure(cache)
	fresh := measure(NewTestbedCache())
	if fresh < 5*reused {
		t.Fatalf("fresh run allocates %d bytes, reused run %d bytes — want ≥5× reduction, got %.1f×",
			fresh, reused, float64(fresh)/float64(reused))
	}
}

// BenchmarkReusedPairRun measures one streamed cell served from a warm
// cache — the steady-state unit of a reused sweep.
func BenchmarkReusedPairRun(b *testing.B) {
	seed := SeedFor(2002, PairKey{Set: 2, Class: media.High})
	ctx := context.Background()
	cache := NewTestbedCache()
	if _, _, err := runPair(ctx, seed, 2, media.High, Options{}, true, nil, cache); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := runPair(ctx, seed, 2, media.High, Options{}, true, nil, cache); err != nil {
			b.Fatal(err)
		}
	}
}
