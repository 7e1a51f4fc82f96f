package wire

import (
	"bytes"
	"encoding/gob"
	"testing"

	"turbulence/internal/core"
	"turbulence/internal/media"
	"turbulence/internal/netem"
)

// gobRoundTrip checks that a decoded value survives re-encoding: v encodes,
// the encoding decodes into a fresh value, and that value encodes to the
// same bytes. Comparing encodings rather than values makes equality gob's
// own: a NaN profile field equals itself, and an empty slice equals nil,
// which gob does not tell apart on the wire.
func gobRoundTrip[T any](t *testing.T, v T) {
	t.Helper()
	var first bytes.Buffer
	if err := gob.NewEncoder(&first).Encode(v); err != nil {
		t.Fatalf("accepted %T does not re-encode: %v", v, err)
	}
	var again T
	if err := gob.NewDecoder(bytes.NewReader(first.Bytes())).Decode(&again); err != nil {
		t.Fatalf("re-encoded %T does not decode: %v", v, err)
	}
	var second bytes.Buffer
	if err := gob.NewEncoder(&second).Encode(again); err != nil {
		t.Fatalf("round-tripped %T does not encode: %v", v, err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("%T changed across a gob round trip:\n%+v\n%+v", v, v, again)
	}
}

// decodeGob decodes data as one gob value of type T, reporting whether
// the decoder accepted it.
func decodeGob[T any](data []byte) (T, bool) {
	var v T
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v)
	return v, err == nil
}

// FuzzWireEnvelopes feeds arbitrary bytes to every gob decoder the
// coordinator runs on network input — the /lease and /renew request
// bodies, the worker's view of a LeaseGrant (and the plan it
// reconstructs), and a /complete run batch. No decoder may panic, and
// every value a decoder accepts must survive a re-encode unchanged.
func FuzzWireEnvelopes(f *testing.F) {
	dsl, err := netem.Find("dsl")
	if err != nil {
		f.Fatal(err)
	}
	plan := core.NewPlan(2002).
		ForPairs(core.PairKey{Set: 1, Class: media.Low}, core.PairKey{Set: 6, Class: media.VeryHigh}).
		UnderScenarios(nil, dsl).
		WithVariants(core.Variant{Name: "faithful"}, core.Variant{Name: "nofrag", Opts: core.Options{WMSUnitCap: 1400}})
	cmp := &core.Comparison{Set: 1, ClassName: "low",
		Real: core.FlowProfile{Packets: 310, MeanSize: 702.5, AvgRateBps: 41e3},
		WMP:  core.FlowProfile{Packets: 180, FragShare: 0.5, CBR: true}}
	seeds := []any{
		LeaseRequest{Version: Version, Worker: "w0"},
		RenewRequest{Version: Version, LeaseID: "lease-0a1b2c3d-4-shard-3", Worker: "w0"},
		LeaseGrant{Version: Version, LeaseID: "lease-0a1b2c3d-4-shard-3", Shard: 3, Shards: 8,
			Plan: PlanSpecOf(plan), TTLMillis: 120000, CachedCells: []int{3, 11}},
		LeaseGrant{Version: Version, Wait: true, RetryMillis: 200},
		LeaseGrant{Version: Version, Done: true},
		[]Run{
			{Index: 3, Set: 1, Class: "low", Scenario: "dsl", Variant: "nofrag", Seed: 2005, Comparison: cmp},
			{Index: 11, Set: 6, Class: "very-high", Seed: 2013, Err: "cell failed"},
		},
	}
	for _, s := range seeds {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if v, ok := decodeGob[LeaseRequest](data); ok {
			gobRoundTrip(t, v)
		}
		if v, ok := decodeGob[RenewRequest](data); ok {
			gobRoundTrip(t, v)
		}
		if g, ok := decodeGob[LeaseGrant](data); ok {
			gobRoundTrip(t, g)
			if p, err := g.Plan.Plan(); err == nil {
				p.Size()
			}
		}
		if runs, err := ReadGob(bytes.NewReader(data)); err == nil {
			gobRoundTrip(t, runs)
		}
	})
}
