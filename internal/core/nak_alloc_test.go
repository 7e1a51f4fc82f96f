package core

import (
	"runtime"
	"slices"
	"testing"

	"turbulence/internal/racecheck"
)

// TestNAKRecoveryAllocBounded is the seed scan that keeps a sweep's
// allocation flat across seeds. RealPlayer NAK recovery is the one
// per-cell cost that grows with loss, and loss is what the seed draws, so
// a NAK path that allocates per listed sequence number or per
// retransmitted packet shows up here as one seed allocating a multiple of
// the others. The scan runs the 13-pair plan at seeds 2000–2015 on one
// single-worker StreamProfiles Runner and requires every seed's bytes
// allocated per cell to lie within 1.5× of the median. Each measured
// sweep follows a warm-up sweep at the same seed: a seed that first
// drives more packets into flight than any before it grows the wire
// buffer pools once, and that one-time growth is not a per-sweep cost.
func TestNAKRecoveryAllocBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("seed scan runs 32 sweeps")
	}
	if racecheck.Enabled {
		t.Skip("allocation scan: race instrumentation dominates the measurement")
	}
	const firstSeed, seeds = 2000, 16
	runner := NewRunner(WithWorkers(1), WithTraceRetention(StreamProfiles))
	sweep := func(seed int64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		results, err := runner.Run(NewPlan(seed))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(results) != len(AllPairs()) {
			t.Fatalf("seed %d: %d cells, want %d", seed, len(results), len(AllPairs()))
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	cells := float64(len(AllPairs()))
	kib := make([]float64, seeds)
	for i := range kib {
		seed := firstSeed + int64(i)
		sweep(seed)
		kib[i] = float64(sweep(seed)) / 1024 / cells
	}
	sorted := slices.Clone(kib)
	slices.Sort(sorted)
	median := (sorted[seeds/2-1] + sorted[seeds/2]) / 2
	for i, v := range kib {
		t.Logf("seed %d: %.0f KiB/cell (%.2f× median)", firstSeed+i, v, v/median)
		if v > 1.5*median {
			t.Errorf("seed %d allocates %.0f KiB per cell, %.2f× the median %.0f KiB (want ≤ 1.5×)",
				firstSeed+i, v, v/median, median)
		}
	}
}
