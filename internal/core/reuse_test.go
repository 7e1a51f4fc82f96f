package core

import (
	"context"
	"runtime"
	"testing"

	"turbulence/internal/media"
	"turbulence/internal/netem"
	"turbulence/internal/racecheck"
	"turbulence/internal/rdt"
)

// TestReusedMatchesFresh is the reuse identity pin: reset-reused testbeds
// must produce byte-identical traces to fresh construction, at every
// worker count. The reference runs each cell one-off via Runner.RunPair,
// on a testbed built for that run alone; each worker count is compared against
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
		if _, _, err := runPair(ctx, seed, 2, media.High, Options{}, StreamProfiles, nil, cache); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	cache := NewTestbedCache()
	if _, _, err := runPair(ctx, seed, 2, media.High, Options{}, StreamProfiles, nil, cache); err != nil {
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
	if _, _, err := runPair(ctx, seed, 2, media.High, Options{}, StreamProfiles, nil, cache); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := runPair(ctx, seed, 2, media.High, Options{}, StreamProfiles, nil, cache); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNewShapeStreamsFromSharedPackets pins the cache's shared RealServer
// packet pool: on a warm single-worker cache, a cell of a new testbed
// shape — a testbed whose servers never streamed — allocates less than
// one resend window of packet buffers in all, because its sessions draw
// the buffers the previous cells returned.
func TestNewShapeStreamsFromSharedPackets(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation pin: race instrumentation dominates the measurement")
	}
	ctx := context.Background()
	cache := NewTestbedCache()
	if _, _, err := runPair(ctx, 2002, 2, media.High, Options{}, StreamProfiles, nil, cache); err != nil {
		t.Fatal(err) // warm: the faithful shape fills one window
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	opts := Options{Scenario: mustScenario(t, "paper-baseline")}
	if _, _, err := runPair(ctx, 2002, 2, media.High, opts, StreamProfiles, nil, cache); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if cache.Built() != 2 {
		t.Fatalf("cache built %d testbeds, want 2 (the second cell is a new shape)", cache.Built())
	}
	// A window of fresh buffers costs 512 × the buffer capacity; the bound
	// is the smaller 512 × MaxPayload, the window's largest payloads.
	window := uint64(rdt.ResendWindow * rdt.MaxPayload)
	if got := after.TotalAlloc - before.TotalAlloc; got >= window {
		t.Fatalf("new-shape cell allocated %d bytes, want < one resend window (%d)", got, window)
	}
}

// TestSharedPacketPoolBounded pins that the shared pool does not grow per
// shape: after cells over the faithful testbed and every named scenario,
// for every data set, it holds about one resend window — every session's
// buffers came back, and no shape added a window of its own.
func TestSharedPacketPoolBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("60 cells in -short mode")
	}
	ctx := context.Background()
	cache := NewTestbedCache()
	scenarios := append([]*netem.Scenario{nil}, netem.All()...)
	for _, sc := range scenarios {
		for _, set := range media.Library() {
			class := set.Classes()[0]
			seed := SeedFor(2002, PairKey{Set: set.Set, Class: class})
			if _, _, err := runPair(ctx, seed, set.Set, class, Options{Scenario: sc}, StreamProfiles, nil, cache); err != nil {
				t.Fatalf("%d/%v under %v: %v", set.Set, class, sc, err)
			}
		}
	}
	if cache.Built() != len(scenarios) {
		t.Fatalf("cache built %d testbeds, want one per shape (%d)", cache.Built(), len(scenarios))
	}
	if n, bound := cache.pkts.Len(), rdt.ResendWindow+32; n < rdt.ResendWindow || n > bound {
		t.Fatalf("shared pool holds %d buffers after %d shapes, want one window (%d) to %d", n, len(scenarios), rdt.ResendWindow, bound)
	}
}

// TestWireBuffersConserved pins that a worker's wire-buffer pool gets
// every buffer back: after each cell, one per named scenario on one
// cache, every WireBuf and Datagram struct the pool ever made is on its
// free lists — fragment trains a lost fragment left half-built, and
// trains the reassembly timeout abandoned mid-cell, included. A leak
// leaves the free count short of the made count; a double put overshoots
// it.
func TestWireBuffersConserved(t *testing.T) {
	ctx := context.Background()
	cache := NewTestbedCache()
	key := PairKey{Set: 2, Class: media.High}
	var timeouts uint64
	for _, sc := range netem.All() {
		opts := Options{Scenario: sc}
		if _, _, err := runPair(ctx, SeedFor(2002, key), key.Set, key.Class, opts, StreamProfiles, nil, cache); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		timeouts += cache.tbs[shapeFor(key.Set, opts)].Client.ReassemblyTimeouts
		c := cache.bufs.Census()
		if c.Bufs == 0 || c.Datagrams == 0 || c.Trains == 0 {
			t.Fatalf("%s: the cell drew nothing from the worker's pool (%+v)", sc.Name, c)
		}
		if !c.Balanced() {
			t.Fatalf("%s: pool census %+v after the cell, want every buffer, datagram and reassembly buffer free", sc.Name, c)
		}
	}
	if timeouts == 0 {
		t.Fatal("no cell abandoned a train by timeout; the test no longer covers that path")
	}
}

// TestSharedBufPoolBounded pins that the worker's wire-buffer pool does
// not grow per shape: after the costliest cell of every data set over the
// faithful testbed and every named scenario, the pool has made about one
// cell's working set, because no testbed keeps half-built trains between
// its cells and no train outlives the reassembly timeout within one. The
// census is deterministic: 346 buffers, 884 datagram structs and 202
// reassembly buffers, all back on the free lists. Without the end-of-cell
// release the first two read 472 and 1,774; without the timeout, 708 and
// 2,913; with neither, 2,633 and 10,410, nearly all pinned.
func TestSharedBufPoolBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("60 cells in -short mode")
	}
	ctx := context.Background()
	cache := NewTestbedCache()
	scenarios := append([]*netem.Scenario{nil}, netem.All()...)
	for _, sc := range scenarios {
		for _, set := range media.Library() {
			classes := set.Classes()
			class := classes[len(classes)-1]
			seed := SeedFor(2002, PairKey{Set: set.Set, Class: class})
			if _, _, err := runPair(ctx, seed, set.Set, class, Options{Scenario: sc}, StreamProfiles, nil, cache); err != nil {
				t.Fatalf("%d/%v under %v: %v", set.Set, class, sc, err)
			}
		}
	}
	if cache.Built() != len(scenarios) {
		t.Fatalf("cache built %d testbeds, want one per shape (%d)", cache.Built(), len(scenarios))
	}
	c := cache.bufs.Census()
	if c.Bufs > 384 || c.Datagrams > 960 || c.Trains > 224 {
		t.Fatalf("shared pool made %d buffers, %d datagrams and %d reassembly buffers over %d shapes, want at most 384, 960 and 224",
			c.Bufs, c.Datagrams, c.Trains, len(scenarios))
	}
	if !c.Balanced() {
		t.Fatalf("pool census %+v after the sweep, want every buffer, datagram and reassembly buffer free", c)
	}
}
