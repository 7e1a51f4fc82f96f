package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("%s: no end-to-end metric it should move", d.Name)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables perfbench prints from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, perfbench %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, perfbench %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, perfbench %+v", i, m, d)
		}
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, perfbench %+v", i, m, d)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.95); err == nil {
		t.Error("p95 of 199 samples accepted; fewer than 10 lie beyond it")
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples accepted")
	}
	xs = append(xs, 199)
	v, err := percentile(xs, 0.95)
	if err != nil {
		t.Fatalf("p95 of 200 samples refused: %v", err)
	}
	if v != 189 {
		t.Errorf("p95 of 0..199 = %v, want 189", v)
	}
}

// TestTimeMetricsAreSweepMedians checks that one slow sweep, as a burst of
// contention on a shared host makes, does not move the time metrics.
func TestTimeMetricsAreSweepMedians(t *testing.T) {
	var w window
	at := time.Unix(0, 0)
	for _, d := range []time.Duration{time.Second, time.Second, 5 * time.Second} {
		a := counters{wall: at, cpu: 0}
		at = at.Add(d)
		w.add(a, counters{wall: at, cpu: 2 * d}, sweepOut{cells: 100})
	}
	// A sweep that waited on fsync, or lost CPU time to other guests,
	// counts without the wait.
	w.add(counters{wall: at}, counters{wall: at.Add(3 * time.Second), cpu: 2 * time.Second}, sweepOut{cells: 100, fsyncWait: 2 * time.Second})
	w.add(counters{wall: at, steal: time.Second}, counters{wall: at.Add(3 * time.Second), cpu: 2 * time.Second, steal: 3 * time.Second}, sweepOut{cells: 100})
	if got := w.cellsPerS(); got != 100 {
		t.Errorf("cellsPerS = %v, want 100", got)
	}
	if got := w.cpuMsPerCell(); got != 20 {
		t.Errorf("cpuMsPerCell = %v, want 20", got)
	}
	if w.cells != 500 || w.sweeps != 5 {
		t.Errorf("window holds %d cells in %d sweeps, want 500 in 5", w.cells, w.sweeps)
	}
	if got := w.stealFrac(); got != 2.0/11 {
		t.Errorf("stealFrac = %v, want 2/11", got)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 40}, {Start: 30, End: 50}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
}

func TestCorruptDigestCountsAsFailure(t *testing.T) {
	want := sweepOut{cells: 3, items: []string{"a", "b", "c"}, perCell: true}
	got := want
	got.items = []string{"a", "x", "c"}
	if n := mismatched(want, got); n != 1 {
		t.Errorf("one corrupted cell digest: %d failures, want 1", n)
	}
	fig := sweepOut{cells: 70, items: []string{"t", "f"}}
	bad := fig
	bad.items = []string{"t", "g"}
	if n := mismatched(fig, bad); n != 70 {
		t.Errorf("one corrupted figure digest: %d failures, want the iteration's 70 cells", n)
	}
}

func TestPickUncachedSpreadsOverShardKinds(t *testing.T) {
	cells := dispatchPlan(goldenSeed, sizing{}).Size()
	shards := shardCount(cells)
	out := pickUncached(cells, shards)
	if len(out) < cells/20 || len(out) > cells/20+2 {
		t.Fatalf("%d uncached cells, want about one in twenty of %d", len(out), cells)
	}
	perShard := make(map[int]int)
	for _, idx := range out {
		perShard[idx%shards]++
	}
	var whole, partial, single int
	for s, n := range perShard {
		size := (cells - s + shards - 1) / shards
		switch {
		case size == 1:
			single++
		case n == size:
			whole++
		default:
			partial++
		}
	}
	if whole == 0 || partial == 0 || single == 0 {
		t.Errorf("uncached shards: %d whole, %d partial, %d single-cell; want some of each", whole, partial, single)
	}
}

// TestFailingSeedIsReplaced checks that a set-up failing because a plan
// cell did moves on to the next seed, that any other failure ends the run,
// and that the search gives up after maxReseeds more seeds.
func TestFailingSeedIsReplaced(t *testing.T) {
	cellFails := fmt.Errorf("warm-up sweep: %w", errCellFailed)
	var tried []int64
	err := reseed(14, io.Discard, func(seed int64) error {
		tried = append(tried, seed)
		if seed == 14 {
			return cellFails
		}
		return nil
	})
	if err != nil || len(tried) != 2 || tried[1] != 15 {
		t.Errorf("seed 14 fails a cell: tried %v, err %v; want 14 then 15, nil", tried, err)
	}
	tried = nil
	other := errors.New("disk full")
	if err := reseed(14, io.Discard, func(seed int64) error { tried = append(tried, seed); return other }); err != other || len(tried) != 1 {
		t.Errorf("a set-up failing for another reason: tried %v, err %v; want 14 alone, %v", tried, err, other)
	}
	tried = nil
	if err := reseed(14, io.Discard, func(seed int64) error { tried = append(tried, seed); return cellFails }); !errors.Is(err, errCellFailed) || len(tried) != maxReseeds+1 {
		t.Errorf("every seed fails a cell: tried %d seeds, err %v; want %d, the cell failure", len(tried), err, maxReseeds+1)
	}
}

// TestWorkloadsTiny runs every workload end to end at a tiny size, traced
// and untraced, and checks the result.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates cells")
	}
	tiny := sizing{pairs: 2, scenarios: 1, variants: 2, figures: []string{"sec4"}}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/trace"}[traced], func(t *testing.T) {
				o := options{
					workload: name, seed: 7, seconds: 200 * time.Millisecond, trace: traced,
					out: t.TempDir(), commit: "test", sz: tiny,
				}
				var log bytes.Buffer
				env, res, err := bench(o, &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, log.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					if _, ok := res.Metrics[d.Name]; !ok && !strings.Contains(log.String(), "left out "+d.Name) {
						t.Errorf("metric %s missing without a refusal logged", d.Name)
					}
				}
				if _, ok := env["dispatch_tmpfs"]; ok != (name == "dispatch-warm") {
					t.Errorf("dispatch_tmpfs stamped: %v", ok)
				}
			})
		}
	}
}
