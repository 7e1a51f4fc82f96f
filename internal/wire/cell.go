package wire

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"turbulence/internal/core"
)

// EngineVersion names the simulation engine's output generation. It is part
// of every cell digest, so bumping it invalidates the whole result store at
// once: do so whenever a change makes an identical CellSpec produce
// different profiles (the golden digests and identity pins are the tripwire
// — if TestDispatchSmokeGoldenDigest needs a new golden, this needs a
// bump). It is deliberately separate from the wire Version: protocol shape
// changes do not stale simulation results, and vice versa.
const EngineVersion = 1

// CellSpec is the content address of one executed Plan cell: everything
// that determines the cell's Comparison and nothing that does not. Pair,
// effective options (the variant's options after the scenario-axis
// override, scenario by name), seed and engine generation are in; the
// cell's plan Index, variant name and axis positions are out — they are
// labels, so an overlapping superset plan hits on the cells it shares with
// an earlier run even though their Indexes differ.
type CellSpec struct {
	Engine int
	Set    int
	Class  string
	Seed   int64
	Opts   OptionsSpec
}

// optionsSpecOf flattens effective run options to their wire shape,
// scenario by name.
func optionsSpecOf(o core.Options) OptionsSpec {
	os := OptionsSpec{
		WMSUnitCap:        o.WMSUnitCap,
		UncappedBurst:     o.UncappedBurst,
		DisableInterleave: o.DisableInterleave,
		Sequential:        o.Sequential,
		BottleneckBps:     o.BottleneckBps,
		EnableScaling:     o.EnableScaling,
	}
	if o.Scenario != nil {
		os.Scenario = o.Scenario.Name
	}
	return os
}

// CellSpecFrom builds the content address of the cell that streams pair
// under opts with seed. opts must be the cell's *effective* options —
// Plan.OptionsFor(k), not the raw variant options — or two cells that run
// identically under a scenario axis would digest differently.
func CellSpecFrom(pair core.PairKey, opts core.Options, seed int64) CellSpec {
	return CellSpec{
		Engine: EngineVersion,
		Set:    pair.Set,
		Class:  pair.Class.String(),
		Seed:   seed,
		Opts:   optionsSpecOf(opts),
	}
}

// Digest is the cell's content address: the hex sha256 of the spec's JSON
// encoding, the same construction as PlanSpec.Digest (JSON keeps it
// independent of gob's stream-level type bookkeeping).
func (s CellSpec) Digest() string {
	b, err := json.Marshal(s)
	if err != nil {
		// CellSpec is plain data; Marshal cannot fail on it. Guard anyway
		// so a future field keeps the invariant.
		panic("wire: CellSpec not marshalable: " + err.Error())
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// CellSpecs enumerates an unsharded plan's cell addresses in canonical
// order, index-aligned with Plan.Keys() — the lookup table a coordinator
// walks when it consults a result store at carve time. Panics on a sharded
// plan, mirroring PlanSpecOf.
func CellSpecs(p *core.Plan) []CellSpec {
	if p.IsSharded() {
		panic("wire: CellSpecs of a sharded plan")
	}
	keys := p.Keys()
	out := make([]CellSpec, len(keys))
	for i, k := range keys {
		out[i] = CellSpecFrom(k.Pair, p.OptionsFor(k), p.Seed(k))
	}
	return out
}

// RunFromCached builds the wire shape of a cell served from a result store:
// the requesting plan's labels (Index, names, seed) around the stored
// Comparison. FromResult builds every executed cell's Run through it, so
// a cached Run is byte-identical to the Run a fresh execution of the same
// cell would ship.
func RunFromCached(k core.RunKey, seed int64, cmp *core.Comparison) Run {
	r := Run{
		Index: k.Index,
		Set:   k.Pair.Set,
		Class: k.Pair.Class.String(),
		Seed:  seed,
	}
	if k.Scenario != nil {
		r.Scenario = k.Scenario.Name
	}
	r.Variant = k.Variant.Name
	if cmp != nil {
		c := *cmp
		r.Comparison = &c
	}
	return r
}
