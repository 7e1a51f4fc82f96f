package wire

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"turbulence/internal/core"
	"turbulence/internal/media"
	"turbulence/internal/netem"
)

// Version is the wire-protocol version stamped on every dispatcher
// envelope. A coordinator and its workers must agree exactly: the protocol
// ships gob-encoded profile structs, so a silent field mismatch would
// corrupt merged results rather than fail loudly. Bump it whenever
// PlanSpec, LeaseGrant, Run or the profile shapes change incompatibly.
//
// Version 2 added the lease-renewal verb (POST /renew, RenewRequest) and
// the coordinator checkpoint journal keyed by PlanSpec.Digest.
//
// Version 3 added CachedCells to LeaseGrant: a coordinator with a result
// store tells the worker which of the shard's cells are already served
// from cache, and the worker must omit exactly those from its batch. An
// old worker would simulate and ship them anyway, tripping the batch
// validator — hence the bump.
const Version = 3

// PairSpec is the wire shape of one clip-pair key. Class travels as the
// Table 1 name ("low", "high", "very-high") so JSON stays readable.
type PairSpec struct {
	Set   int
	Class string
}

// OptionsSpec is the wire shape of core.Options: every ablation field as
// is, plus the netem scenario by name (scenarios carry model factories and
// cannot cross a wire; both ends hold the same library).
type OptionsSpec struct {
	WMSUnitCap        int     `json:",omitempty"`
	UncappedBurst     bool    `json:",omitempty"`
	DisableInterleave bool    `json:",omitempty"`
	Sequential        bool    `json:",omitempty"`
	BottleneckBps     float64 `json:",omitempty"`
	EnableScaling     bool    `json:",omitempty"`
	Scenario          string  `json:",omitempty"` // "" = faithful testbed
}

// VariantSpec is the wire shape of one ablation-axis point.
type VariantSpec struct {
	Name string `json:",omitempty"`
	Opts OptionsSpec
}

// PlanSpec is the wire shape of an unsharded core.Plan: the run-space axes
// with scenarios by name, resolved to their defaults so the spec survives
// encoders that collapse empty and nil slices (gob does). A worker
// reconstructs the plan with Plan and shards it locally from its lease
// grant, so PlanSpec never carries shard coordinates.
type PlanSpec struct {
	BaseSeed int64
	// Pairs is the resolved pair axis (never empty).
	Pairs []PairSpec
	// ScenarioAxis records whether the plan declared a scenario axis: an
	// axis containing only the faithful testbed is not the same plan as no
	// axis at all (a declared axis overrides each variant's own scenario).
	ScenarioAxis bool
	// Scenarios is the scenario axis by name, "" = faithful testbed.
	// Meaningful only when ScenarioAxis is set.
	Scenarios []string `json:",omitempty"`
	// Variants is the resolved ablation axis (never empty).
	Variants []VariantSpec
	// SeedPolicy is the plan's core.SeedPolicy.
	SeedPolicy int
}

// PlanSpecOf flattens an unsharded plan to its wire shape. Panics on a
// sharded plan — shard coordinates travel in the lease grant, not the
// spec — mirroring Plan.Shard's own contract.
func PlanSpecOf(p *core.Plan) PlanSpec {
	if p.IsSharded() {
		panic("wire: PlanSpecOf of a sharded plan")
	}
	spec := PlanSpec{BaseSeed: p.BaseSeed, SeedPolicy: int(p.Seeds)}
	pairs := p.Pairs
	if pairs == nil {
		pairs = core.AllPairs()
	}
	for _, k := range pairs {
		spec.Pairs = append(spec.Pairs, PairSpec{Set: k.Set, Class: k.Class.String()})
	}
	if len(p.Scenarios) > 0 {
		spec.ScenarioAxis = true
		for _, sc := range p.Scenarios {
			name := ""
			if sc != nil {
				name = sc.Name
			}
			spec.Scenarios = append(spec.Scenarios, name)
		}
	}
	variants := p.Variants
	if len(variants) == 0 {
		variants = []core.Variant{{}}
	}
	for _, v := range variants {
		spec.Variants = append(spec.Variants, VariantSpec{Name: v.Name, Opts: optionsSpecOf(v.Opts)})
	}
	return spec
}

// Plan reconstructs the core.Plan a spec describes, resolving scenario
// names against the local library. The reconstruction is canonical-order
// faithful: Keys, Index and Seed of every cell equal the original plan's,
// which is what lets a worker execute a shard of a plan it never held.
func (s PlanSpec) Plan() (*core.Plan, error) {
	p := core.NewPlan(s.BaseSeed).WithSeedPolicy(core.SeedPolicy(s.SeedPolicy))
	if len(s.Pairs) == 0 {
		return nil, fmt.Errorf("wire: plan spec with no pairs")
	}
	var pairs []core.PairKey
	for _, ps := range s.Pairs {
		class, ok := media.ParseClass(ps.Class)
		if !ok {
			return nil, fmt.Errorf("wire: plan spec has unknown class %q", ps.Class)
		}
		pairs = append(pairs, core.PairKey{Set: ps.Set, Class: class})
	}
	p.ForPairs(pairs...)
	if s.ScenarioAxis {
		var scs []*netem.Scenario
		for _, name := range s.Scenarios {
			if name == "" {
				scs = append(scs, nil)
				continue
			}
			sc, err := netem.Find(name)
			if err != nil {
				return nil, fmt.Errorf("wire: plan spec: %w", err)
			}
			scs = append(scs, sc)
		}
		p.UnderScenarios(scs...)
	}
	if len(s.Variants) == 0 {
		return nil, fmt.Errorf("wire: plan spec with no variants")
	}
	var variants []core.Variant
	for _, vs := range s.Variants {
		v := core.Variant{Name: vs.Name, Opts: core.Options{
			WMSUnitCap:        vs.Opts.WMSUnitCap,
			UncappedBurst:     vs.Opts.UncappedBurst,
			DisableInterleave: vs.Opts.DisableInterleave,
			Sequential:        vs.Opts.Sequential,
			BottleneckBps:     vs.Opts.BottleneckBps,
			EnableScaling:     vs.Opts.EnableScaling,
		}}
		if vs.Opts.Scenario != "" {
			sc, err := netem.Find(vs.Opts.Scenario)
			if err != nil {
				return nil, fmt.Errorf("wire: plan spec: %w", err)
			}
			v.Opts.Scenario = sc
		}
		variants = append(variants, v)
	}
	p.WithVariants(variants...)
	return p, nil
}

// Digest is the plan spec's content address: the hex sha256 of its JSON
// encoding. The checkpoint journal stamps it in its header so a resumed
// coordinator refuses to replay completions that belong to a different
// sweep (different seed, pairs, scenarios or variants) instead of
// silently mixing them. JSON rather than gob keeps the digest independent
// of gob's stream-level type bookkeeping.
func (s PlanSpec) Digest() string {
	b, err := json.Marshal(s)
	if err != nil {
		// PlanSpec is plain data (ints, strings, slices); Marshal cannot
		// fail on it. Guard anyway so a future field keeps the invariant.
		panic("wire: PlanSpec not marshalable: " + err.Error())
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// LeaseRequest is a worker's pull: "give me a shard". Worker is a
// free-form identity used in coordinator status and logs.
type LeaseRequest struct {
	Version int
	Worker  string
}

// RenewRequest is a worker's heartbeat for a lease it is still executing:
// "extend my claim, the shard is slow but alive". The coordinator answers
// with an Ack — OK pushes the deadline out one TTL; a rejection means the
// lease is gone (expired and reissued, completed by someone else, or from
// a dead coordinator epoch) and the worker must abort the now-orphaned
// shard instead of shipping a late duplicate.
type RenewRequest struct {
	Version int
	LeaseID string
	Worker  string
}

// LeaseGrant is the coordinator's reply to a lease request. Exactly one of
// the three shapes applies: a work grant (LeaseID != ""), a wait hint
// (Wait set: nothing leasable right now, poll again after RetryMillis), or
// the drain signal (Done set: the sweep is complete or draining, exit).
type LeaseGrant struct {
	Version int

	// LeaseID names the lease for the matching Complete. "" when Wait or
	// Done is set.
	LeaseID string `json:",omitempty"`
	// Shard/Shards are the strided slice to run: Plan().Shard(Shard, Shards).
	Shard  int `json:",omitempty"`
	Shards int `json:",omitempty"`
	// Plan is the full unsharded run space the shard slices.
	Plan PlanSpec
	// TTLMillis is how long the coordinator holds the lease before
	// assuming the worker died and re-issuing the shard.
	TTLMillis int64 `json:",omitempty"`

	// CachedCells lists the global plan Indexes inside this lease's slice
	// that the coordinator already holds results for (from its result
	// store). The worker must skip them — Plan.Omitting — and ship a batch
	// covering only the remaining cells; the coordinator merges the cached
	// results back in canonical order.
	CachedCells []int `json:",omitempty"`

	Wait        bool  `json:",omitempty"`
	RetryMillis int64 `json:",omitempty"`

	Done bool `json:",omitempty"`
}

// Ack is the coordinator's reply to a Complete: accepted, or an error the
// worker should not retry (version mismatch, unknown lease).
type Ack struct {
	Version int
	OK      bool
	Err     string `json:",omitempty"`
}

// StatsVersion is the WorkerStats snapshot's own version, independent of
// the envelope Version: the snapshot rides an optional HTTP header that
// old coordinators never read and old workers never send, so evolving it
// must not force a protocol bump. A coordinator ignores snapshots whose
// version it does not know.
const StatsVersion = 1

// WorkerStats is a worker's self-measurement for one completed shard,
// shipped alongside the completion batch (as the X-Turbulence-Worker-Stats
// header, JSON-encoded — small, optional, and invisible to coordinators
// that predate it). It is what lets the coordinator report per-worker
// throughput as measured on the worker rather than inferred from
// completion timestamps, which lease retries and queue waits distort.
type WorkerStats struct {
	Version   int    // StatsVersion of the sender
	Worker    string `json:",omitempty"` // worker name, as in lease requests
	Shard     int    // shard the batch completes
	Cells     int    // cells executed (len of the shipped batch)
	RunMillis int64  // wall-clock spent executing the shard's cells
	Renewals  int    `json:",omitempty"` // successful lease renewals while running
	Retries   uint64 `json:",omitempty"` // HTTP transport retries observed while running

	// Testbed-economy measurements for the shard (see core.SweepStats).
	// Added fields, not a version bump: JSON decoding ignores them on old
	// coordinators and zeroes them from old workers.
	TestbedsBuilt  int `json:",omitempty"` // testbeds constructed from scratch
	TestbedsReused int `json:",omitempty"` // cells served by resetting a cached testbed
}
