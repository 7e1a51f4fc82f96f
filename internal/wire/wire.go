// Package wire gives Plan/Runner results a transport encoding, closing the
// distributed-matrix loop: a shard process runs its slice of a Plan under
// StreamProfiles, encodes the per-cell profiles (gob for Go collectors,
// JSON for everything else), ships them home, and the collector merges the
// batches back into canonical plan order. Traces never ride along — the
// wire shape is the cell's identity, seed and turbulence profiles, which
// is exactly what the streaming retention produces.
package wire

import (
	"encoding/gob"
	"encoding/json"
	"io"
	"sort"

	"turbulence/internal/core"
)

// Run is the wire shape of one executed Plan cell.
type Run struct {
	// Index is the cell's position in the unsharded plan's canonical
	// order; Merge sorts on it, exactly as core.MergeRuns does for
	// in-process results.
	Index int

	Set      int
	Class    string
	Scenario string `json:",omitempty"` // "" = faithful testbed
	Variant  string `json:",omitempty"`
	Seed     int64

	// Comparison carries both flows' turbulence profiles. Nil only when
	// the cell failed.
	Comparison *core.Comparison `json:",omitempty"`

	// Err is the cell's error text ("" = success).
	Err string `json:",omitempty"`
}

// FromResult flattens one executed cell. Profiles come from the result's
// Comparison (StreamProfiles fills it); under RetainTraces they are
// computed here from the retained flows.
func FromResult(res core.RunResult) Run {
	r := Run{
		Index: res.Key.Index,
		Set:   res.Key.Pair.Set,
		Class: res.Key.Pair.Class.String(),
		Seed:  res.Seed,
	}
	if res.Key.Scenario != nil {
		r.Scenario = res.Key.Scenario.Name
	}
	r.Variant = res.Key.Variant.Name
	if res.Err != nil {
		r.Err = res.Err.Error()
		return r
	}
	if res.Comparison != nil {
		c := *res.Comparison
		r.Comparison = &c
	} else if res.Run != nil && res.Run.WMPFlow != nil && res.Run.RealFlow != nil {
		c := core.Compare(res.Run)
		r.Comparison = &c
	}
	return r
}

// FromResults flattens a batch, preserving order.
func FromResults(results []core.RunResult) []Run {
	out := make([]Run, len(results))
	for i, res := range results {
		out[i] = FromResult(res)
	}
	return out
}

// Merge recombines result batches from shards of one Plan into canonical
// plan order — the wire-side mirror of core.MergeRuns. Inputs may arrive
// in any order; the merge is a stable sort on each cell's global Index.
func Merge(batches ...[]Run) []Run {
	var out []Run
	for _, b := range batches {
		out = append(out, b...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// WriteJSON encodes a batch as one JSON array.
func WriteJSON(w io.Writer, runs []Run) error {
	enc := json.NewEncoder(w)
	return enc.Encode(runs)
}

// ReadJSON decodes one JSON batch.
func ReadJSON(r io.Reader) ([]Run, error) {
	var out []Run
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteGob encodes a batch in gob — the compact choice between Go
// processes.
func WriteGob(w io.Writer, runs []Run) error {
	return gob.NewEncoder(w).Encode(runs)
}

// ReadGob decodes one gob batch.
func ReadGob(r io.Reader) ([]Run, error) {
	var out []Run
	if err := gob.NewDecoder(r).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}
