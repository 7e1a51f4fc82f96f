package core

import (
	"fmt"
	"sort"

	"turbulence/internal/netem"
)

// Variant is one named point on a Plan's ablation axis: a set of Options
// applied to every (scenario, pair) cell it crosses. When the plan also
// declares a scenario axis, that axis replaces the variant's
// Options.Scenario for every cell — nil axis entries included — so cells
// labelled faithful always run faithful.
type Variant struct {
	Name string
	Opts Options
}

// SeedPolicy selects how a Plan derives each cell's seed from BaseSeed.
type SeedPolicy int

const (
	// SeedCommon derives every cell's seed from the clip pair alone, so
	// all scenarios and variants stream that pair under common random
	// numbers: differences between cells reflect the treatment, not
	// sampling noise. SeedFor implements it.
	SeedCommon SeedPolicy = iota
	// SeedPerCell additionally mixes the scenario and variant indices
	// into the seed, making every cell an independent draw — for
	// replication studies where cells must not share randomness.
	SeedPerCell
)

// Plan declares an experiment run space without executing anything: the
// clip pairs to stream, the netem scenarios to stream them under, the
// ablation variants to cross with both, and the seed policy tying cells to
// random streams. The zero axes default to the paper's evaluation — all 13
// Table 1 pairs, the faithful testbed, faithful options — so
// NewPlan(seed) alone declares the paper's full sweep.
//
// Cells are totally ordered scenario-major (scenario, then variant, then
// pair); Keys enumerates them in that canonical order and Shard carves a
// deterministic 1/n slice of it for cross-process fan-out. A Plan is a
// pure description: it can be built, sharded, sized and enumerated with no
// simulation cost, and any Runner can execute it.
type Plan struct {
	BaseSeed int64

	// Pairs lists the clip pairs to stream (nil = AllPairs()).
	Pairs []PairKey
	// Scenarios lists the netem scenarios to stream under; a nil entry is
	// the faithful testbed (nil slice = just the faithful testbed).
	Scenarios []*netem.Scenario
	// Variants lists the ablation-option points to cross with every
	// (scenario, pair) (nil = the single faithful zero Variant).
	Variants []Variant
	// Seeds is the seed policy (default SeedCommon).
	Seeds SeedPolicy

	// shard/shards carve the strided slice {cell : Index%shards == shard};
	// zero values mean unsharded. Set only via Shard.
	shard, shards int

	// omit drops individual cells by canonical Index on top of the shard
	// carve; nil means none. Set only via Omitting. Omitted cells keep
	// their Index: the remaining cells still merge into canonical order.
	omit map[int]bool
}

// NewPlan declares the paper's full evaluation sweep for a base seed: all
// 13 Table 1 pairs on the faithful testbed with faithful options. Adjust
// the axes with ForPairs, UnderScenarios, WithVariants and WithOptions.
func NewPlan(baseSeed int64) *Plan {
	return &Plan{BaseSeed: baseSeed}
}

// ForPairs restricts the plan to the listed clip pairs (no arguments
// restores the default, all Table 1 pairs). Returns p for chaining.
func (p *Plan) ForPairs(keys ...PairKey) *Plan {
	p.Pairs = keys
	return p
}

// UnderScenarios sets the scenario axis (no arguments restores the
// default, the faithful testbed only). Returns p for chaining.
func (p *Plan) UnderScenarios(scs ...*netem.Scenario) *Plan {
	p.Scenarios = scs
	return p
}

// WithVariants sets the ablation axis (no arguments restores the default,
// the single faithful variant). Returns p for chaining.
func (p *Plan) WithVariants(vs ...Variant) *Plan {
	p.Variants = vs
	return p
}

// WithOptions sets the ablation axis to one unnamed variant carrying opts
// — the common case of a sweep under fixed options. Returns p for
// chaining.
func (p *Plan) WithOptions(opts Options) *Plan {
	p.Variants = []Variant{{Opts: opts}}
	return p
}

// WithSeedPolicy sets the seed policy. Returns p for chaining.
func (p *Plan) WithSeedPolicy(sp SeedPolicy) *Plan {
	p.Seeds = sp
	return p
}

// pairs, scenarios and variants resolve the axes with their defaults.
func (p *Plan) pairs() []PairKey {
	if p.Pairs == nil {
		return AllPairs()
	}
	return p.Pairs
}

func (p *Plan) scenarios() []*netem.Scenario {
	if len(p.Scenarios) == 0 {
		return []*netem.Scenario{nil}
	}
	return p.Scenarios
}

func (p *Plan) variants() []Variant {
	if len(p.Variants) == 0 {
		return []Variant{{}}
	}
	return p.Variants
}

// Shard returns a copy of the plan covering the i-th of n deterministic
// slices of the cell space: the cells whose canonical Index ≡ i (mod n), a
// stride that balances load across shards even when the pair axis is
// sorted by clip length. Every shard of the same Plan agrees on Index and
// seed per cell, so n processes can each run one shard and MergeRuns
// recombines their outputs into exactly the unsharded result. Sharding an
// already-sharded plan panics.
func (p *Plan) Shard(i, n int) *Plan {
	if n <= 0 || i < 0 || i >= n {
		panic(fmt.Sprintf("core: Plan.Shard(%d, %d) out of range", i, n))
	}
	if p.shards != 0 {
		panic("core: Plan.Shard of an already-sharded plan")
	}
	q := *p
	q.shard, q.shards = i, n
	return &q
}

// Sharded reports the plan's shard coordinates (0, 1 when unsharded).
func (p *Plan) Sharded() (shard, shards int) {
	if p.shards == 0 {
		return 0, 1
	}
	return p.shard, p.shards
}

// IsSharded reports whether the plan is a Shard slice of a larger plan.
// Sharded() alone cannot tell Shard(0, 1) from the unsharded plan, and a
// dispatcher must refuse to serve a slice as if it were the whole space.
func (p *Plan) IsSharded() bool { return p.shards != 0 }

// ShardSizes reports the cell count of each of the n strided shards of the
// plan, with no key materialisation — the lease-aware iteration a
// dispatcher needs: shards whose size is zero carry no work and need never
// be issued as leases. Panics on a sharded plan (slicing a slice is not
// meaningful) or n <= 0, mirroring Shard's contract.
func (p *Plan) ShardSizes(n int) []int {
	if n <= 0 {
		panic(fmt.Sprintf("core: Plan.ShardSizes(%d) out of range", n))
	}
	if p.shards != 0 {
		panic("core: Plan.ShardSizes of an already-sharded plan")
	}
	out := make([]int, n)
	for i := range out {
		out[i] = p.Shard(i, n).Size()
	}
	return out
}

// Omitting returns a copy of the plan that skips the cells with the listed
// canonical Indexes — how a worker honours a lease grant's CachedCells: the
// coordinator already holds those results, so the worker runs the shard's
// remaining cells and the batch merges around the cached ones. Indexes
// outside the plan (or outside its shard slice) are ignored. The copy's
// cells keep their global Index.
func (p *Plan) Omitting(indexes ...int) *Plan {
	if len(indexes) == 0 {
		return p
	}
	q := *p
	q.omit = make(map[int]bool, len(indexes)+len(p.omit))
	for i := range p.omit {
		q.omit[i] = true
	}
	for _, i := range indexes {
		q.omit[i] = true
	}
	return &q
}

// Size reports how many cells this plan executes (after sharding and
// omissions), with no simulation cost.
func (p *Plan) Size() int {
	total := len(p.pairs()) * len(p.scenarios()) * len(p.variants())
	n := total
	if p.shards != 0 {
		n = total / p.shards
		if p.shard < total%p.shards {
			n++
		}
	}
	for idx := range p.omit {
		if idx >= 0 && idx < total && (p.shards == 0 || idx%p.shards == p.shard) {
			n--
		}
	}
	return n
}

// RunKey identifies one cell of a Plan's run space.
type RunKey struct {
	// Index is the cell's position in the unsharded plan's canonical
	// (scenario-major, then variant, then pair) order. It is global across
	// shards: MergeRuns sorts by it to recombine shard outputs.
	Index int

	Pair PairKey

	// Scenario is the cell's netem scenario (nil = faithful testbed);
	// ScenarioIndex its position on the plan's scenario axis.
	Scenario      *netem.Scenario
	ScenarioIndex int

	// Variant is the cell's ablation point; VariantIndex its position on
	// the plan's variant axis.
	Variant      Variant
	VariantIndex int
}

// String labels the cell compactly for progress lines and errors.
func (k RunKey) String() string {
	s := fmt.Sprintf("set%d/%v", k.Pair.Set, k.Pair.Class)
	if k.Variant.Name != "" {
		s = k.Variant.Name + "/" + s
	}
	if k.Scenario != nil {
		s = k.Scenario.Name + "/" + s
	}
	return s
}

// OptionsFor composes a cell's effective run Options: the variant's
// options, with the scenario axis — when the plan declares one —
// replacing the Scenario field outright. A nil axis entry then really
// means the faithful testbed, so a variant's stray Options.Scenario can
// never run impaired under a faithful label. The effective options are
// part of a cell's identity: content addressing (wire.CellSpecFrom) must
// digest these, not the raw variant options.
func (p *Plan) OptionsFor(k RunKey) Options {
	o := k.Variant.Opts
	if len(p.Scenarios) > 0 {
		o.Scenario = k.Scenario
	}
	return o
}

// Keys enumerates the plan's cells in canonical order (after sharding),
// with no simulation cost. Tooling can use it to preview, label or
// partition a sweep.
func (p *Plan) Keys() []RunKey {
	pairs, scs, vars := p.pairs(), p.scenarios(), p.variants()
	out := make([]RunKey, 0, p.Size())
	idx := 0
	for si, sc := range scs {
		for vi, v := range vars {
			for _, pk := range pairs {
				if (p.shards == 0 || idx%p.shards == p.shard) && !p.omit[idx] {
					out = append(out, RunKey{
						Index:    idx,
						Pair:     pk,
						Scenario: sc, ScenarioIndex: si,
						Variant: v, VariantIndex: vi,
					})
				}
				idx++
			}
		}
	}
	return out
}

// Seed derives the cell's seed under the plan's policy. Under SeedCommon
// it equals SeedFor(BaseSeed, k.Pair), so a cell run one-off via RunPair
// at Seed(k) and OptionsFor(k) is byte-identical to the Runner's.
func (p *Plan) Seed(k RunKey) int64 {
	s := SeedFor(p.BaseSeed, k.Pair)
	if p.Seeds == SeedPerCell {
		s += int64(k.ScenarioIndex)*1_000_033 + int64(k.VariantIndex)*7_919
	}
	return s
}

// MergeRuns recombines result batches from shards of one Plan (or any
// partition of its cells) into the canonical plan order, so
//
//	MergeRuns(run(plan.Shard(0,n)), ..., run(plan.Shard(n-1,n)))
//
// reproduces the unsharded run exactly. Inputs may arrive in any order;
// the merge is a stable sort on each cell's global Index.
func MergeRuns(shards ...[]RunResult) []RunResult {
	var out []RunResult
	for _, s := range shards {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key.Index < out[j].Key.Index })
	return out
}

// PairRuns projects results onto their PairRun payloads, preserving order
// — the bridge from the Runner API to the []*PairRun the analysis
// consumes.
func PairRuns(results []RunResult) []*PairRun {
	out := make([]*PairRun, len(results))
	for i, r := range results {
		out[i] = r.Run
	}
	return out
}
