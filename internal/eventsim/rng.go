package eventsim

import (
	"math"
	"math/rand"
)

// RNG wraps a deterministic math/rand source with the distribution helpers
// the traffic models need. Each simulation run owns one root RNG; components
// derive independent child streams with Split so adding a new consumer does
// not perturb the draws seen by existing ones.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Reseed rewinds the generator to the deterministic stream for seed, as if
// freshly constructed by NewRNG(seed), without allocating. This is the RNG
// half of testbed reuse: every Reset(seed) reseeds the root and re-splits
// the child streams in the same order, so they come out identical run
// after run.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Split derives an independent child stream labelled by name. The child's
// seed is a hash of the parent seed position and the label, so two children
// with different labels never share a stream.
func (g *RNG) Split(name string) *RNG {
	return NewRNG(g.splitSeed(name))
}

// SplitInto is Split reusing an existing child generator: the parent
// advances by the same single draw, and child is rewound to exactly the
// stream Split(name) would have returned — without allocating a source
// (math/rand sources are ~5 KB each, which matters on the testbed Reset
// paths that re-split every run). A nil child falls back to Split.
func (g *RNG) SplitInto(name string, child *RNG) *RNG {
	seed := g.splitSeed(name)
	if child == nil {
		return NewRNG(seed)
	}
	child.Reseed(seed)
	return child
}

// splitSeed derives (and consumes) the child seed for a labelled split.
func (g *RNG) splitSeed(name string) int64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= g.r.Uint64()
	return int64(h)
}

// Float64 returns a uniform draw in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uniform returns a uniform draw in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + (hi-lo)*g.r.Float64()
}

// Normal returns a Gaussian draw with the given mean and standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// TruncNormal returns a Gaussian draw clamped to [lo,hi] by resampling, with
// a clamping fallback so pathological bounds cannot loop forever.
func (g *RNG) TruncNormal(mean, stddev, lo, hi float64) float64 {
	for i := 0; i < 32; i++ {
		v := g.Normal(mean, stddev)
		if v >= lo && v <= hi {
			return v
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

// Exp returns an exponential draw with the given mean (not rate).
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Pareto returns a bounded Pareto draw with shape alpha on [lo,hi]; used for
// heavy-tailed jitter spikes.
func (g *RNG) Pareto(alpha, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo || alpha <= 0 {
		return lo
	}
	u := g.r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Bernoulli reports true with probability p.
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Jitter returns base scaled by a uniform factor in [1-frac, 1+frac].
func (g *RNG) Jitter(base float64, frac float64) float64 {
	return base * g.Uniform(1-frac, 1+frac)
}
