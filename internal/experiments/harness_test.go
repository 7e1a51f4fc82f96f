package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"turbulence/internal/capture"
	"turbulence/internal/core"
	"turbulence/internal/media"
	"turbulence/internal/netem"
	"turbulence/internal/obs"
	"turbulence/internal/stats"
)

func TestContextCachesRuns(t *testing.T) {
	ctx := NewContext(55)
	a, err := ctx.Pair(3, media.Low)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Pair(3, media.Low)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("context re-ran a cached pair")
	}
}

func TestContextDistinctSeedsDistinctRuns(t *testing.T) {
	a, err := NewContext(1).Pair(3, media.Low)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewContext(2).Pair(3, media.Low)
	if err != nil {
		t.Fatal(err)
	}
	// The context keeps the media flows, not whole captures: compare
	// those, both of them.
	same := true
	for _, fs := range [][2]*capture.FlowTrace{{a.WMPFlow, b.WMPFlow}, {a.RealFlow, b.RealFlow}} {
		fa, fb := fs[0], fs[1]
		if fa.Len() != fb.Len() {
			same = false
			break
		}
		// Lengths can collide; compare timestamps too.
		for i := 0; i < fa.Len(); i++ {
			if fa.At(i).At != fb.At(i).At {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical flows")
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{
		ID:      "demo",
		Title:   "Demo result",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Series:  []Series{{Name: "curve", Points: []stats.Point{{X: 1, Y: 2}}}},
	}
	r.AddNote("observation %d", 42)
	out := r.String()
	for _, want := range []string{"demo", "Demo result", "long-column", "333", "curve", "observation 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestDownsampleCDF(t *testing.T) {
	var cdf []stats.Point
	for i := 0; i < 1000; i++ {
		cdf = append(cdf, stats.Point{X: float64(i), Y: float64(i+1) / 1000})
	}
	ds := downsampleCDF(cdf, 50)
	if len(ds) != 50 {
		t.Fatalf("len=%d", len(ds))
	}
	if ds[0] != cdf[0] || ds[len(ds)-1] != cdf[len(cdf)-1] {
		t.Fatal("endpoints not preserved")
	}
	for i := 1; i < len(ds); i++ {
		if ds[i].X <= ds[i-1].X {
			t.Fatal("downsample broke monotonicity")
		}
	}
	// Short series pass through untouched.
	short := cdf[:10]
	if got := downsampleCDF(short, 50); len(got) != 10 {
		t.Fatalf("short series resampled: %d", len(got))
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	register("table1", "dup", nil)
}

func TestFormattingHelpers(t *testing.T) {
	if fmtF(1.26) != "1.3" {
		t.Fatalf("fmtF=%q", fmtF(1.26))
	}
	if fmtPct(0.666) != "66.6%" {
		t.Fatalf("fmtPct=%q", fmtPct(0.666))
	}
	if fmtInt(7) != "7.0" {
		t.Fatalf("fmtInt=%q", fmtInt(7))
	}
}

// TestContextCancelKeepsCompletedRuns pins SetCancel's promise: a sweep
// cancelled partway reports the context error but keeps every completed
// pair run cached, so a later All on the same context resumes instead of
// re-simulating from scratch.
func TestContextCancelKeepsCompletedRuns(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	const stopAfter = 2
	ctx := NewContext(55).SetCancel(cctx).SetProgress(func(p core.Progress) {
		if p.Done == stopAfter {
			cancel()
		}
	})
	if _, err := ctx.All(); err != context.Canceled {
		t.Fatalf("cancelled All returned %v", err)
	}
	ctx.mu.Lock()
	cached := len(ctx.runs)
	ctx.mu.Unlock()
	if cached != stopAfter {
		t.Fatalf("%d runs cached after cancel, want %d", cached, stopAfter)
	}
	// The cached pair must come back without touching the (still
	// cancelled) runner.
	k := core.AllPairs()[0]
	run, err := ctx.Pair(k.Set, k.Class)
	if err != nil || run == nil {
		t.Fatalf("cached pair after cancel: %v, %v", run, err)
	}
}

// TestRunOneHonoursCancel pins that one-off runs obey SetCancel: under a
// cancelled context RunOne returns context.Canceled without simulating to
// the horizon, and reports no progress for the run it abandoned.
func TestRunOneHonoursCancel(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	progressed := 0
	ctx := NewContext(55).SetCancel(cctx).SetProgress(func(core.Progress) { progressed++ })
	run, err := ctx.RunOne(2002, 2, media.High, core.Options{})
	if err != context.Canceled || run != nil {
		t.Fatalf("RunOne under a cancelled context returned run %v, err %v; want nil, context.Canceled", run != nil, err)
	}
	if progressed != 0 {
		t.Fatalf("abandoned run emitted %d progress reports, want none", progressed)
	}
}

// TestSetMetricsCountsOneOffs pins SetMetrics' promise for one-off runs:
// ablation-nofrag runs the cached Table 1 cell 1/high plus one RunOne
// cell, and a metered context counts both.
func TestSetMetricsCountsOneOffs(t *testing.T) {
	sink := obs.NewSink(obs.NewRegistry())
	if _, err := Run(NewContext(2002).SetMetrics(sink), "ablation-nofrag"); err != nil {
		t.Fatal(err)
	}
	if got := sink.CellsDone.Value(); got != 2 {
		t.Fatalf("sink counted %d cells, want 2 (the Table 1 cell and the one-off)", got)
	}
}

// TestOneOffsReuseTestbeds pins that the Table 1 runs and the one-offs
// share one Runner, so a one-off whose testbed shape matches a run before
// it resets that testbed instead of building its own: ext-scaling's two
// cells share the 500 kbps bottleneck, and ablation-nofrag's one-off has
// the faithful shape of its cached 1/high run.
func TestOneOffsReuseTestbeds(t *testing.T) {
	for _, id := range []string{"ext-scaling", "ablation-nofrag"} {
		sink := obs.NewSink(obs.NewRegistry())
		if _, err := Run(NewContext(2002).SetMetrics(sink), id); err != nil {
			t.Fatal(err)
		}
		if built, reused := sink.TestbedsBuilt.Value(), sink.TestbedsReused.Value(); built != 1 || reused != 1 {
			t.Errorf("%s: %d testbeds built, %d reused; want 1 and 1", id, built, reused)
		}
	}
}

// TestSetterAfterRunTakesEffect pins that a setter drops the shared
// Runner: a sink installed after a one-off ran still meters the next one.
func TestSetterAfterRunTakesEffect(t *testing.T) {
	ctx := NewContext(2002)
	if _, err := ctx.RunOne(2002, 1, media.Low, core.Options{}); err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink(obs.NewRegistry())
	if _, err := ctx.SetMetrics(sink).RunOne(2002, 1, media.Low, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := sink.CellsDone.Value(); got != 1 {
		t.Fatalf("sink installed after a run counted %d cells, want 1", got)
	}
}

// matrixFixture is the small scenario plan the streaming contract test
// sweeps: two low-rate pairs under two named scenarios.
func matrixFixture(t *testing.T) *core.Plan {
	t.Helper()
	keys := []core.PairKey{{Set: 1, Class: media.Low}, {Set: 3, Class: media.Low}}
	var scs []*netem.Scenario
	for _, name := range []string{"paper-baseline", "lossy-wifi"} {
		sc, err := netem.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, sc)
	}
	return core.NewPlan(2002 + 803).ForPairs(keys...).UnderScenarios(scs...)
}

// TestScenarioRowsStreamProfiles pins ext-netem-scenarios' streaming
// contract: its cells stream through online profiles, so no run carries a
// packet capture, while the player reports and path stats every matrix
// consumer reduces equal a retaining Runner's on the same plan.
func TestScenarioRowsStreamProfiles(t *testing.T) {
	plan := matrixFixture(t)
	got, err := scenarioRows(NewContext(2002).SetParallel(0), plan)
	if err != nil {
		t.Fatal(err)
	}
	results, err := core.NewRunner(core.WithWorkers(1), core.WithTraceRetention(core.RetainTraces)).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	want := core.PairRuns(results)
	if len(got) != len(plan.Scenarios) {
		t.Fatalf("rows = %d, want %d", len(got), len(plan.Scenarios))
	}
	for i, row := range got {
		if len(row) != len(plan.Pairs) {
			t.Fatalf("row %d: %d runs, want %d", i, len(row), len(plan.Pairs))
		}
		for j, g := range row {
			w := want[i*len(plan.Pairs)+j]
			where := fmt.Sprintf("%s %d/%v", plan.Scenarios[i].Name, plan.Pairs[j].Set, plan.Pairs[j].Class)
			if g.Scenario != plan.Scenarios[i].Name || g.Set != plan.Pairs[j].Set || g.Class != plan.Pairs[j].Class {
				t.Fatalf("%s: row holds the run of %s %d/%v", where, g.Scenario, g.Set, g.Class)
			}
			if g.Trace != nil || g.WMPFlow != nil || g.RealFlow != nil {
				t.Errorf("%s: streamed run retains a capture", where)
			}
			if w.Trace == nil {
				t.Fatalf("%s: retaining reference run has no trace", where)
			}
			if !reflect.DeepEqual(g.Real, w.Real) || !reflect.DeepEqual(g.WMP, w.WMP) {
				t.Errorf("%s: player reports differ from the retaining run", where)
			}
			if g.Downlink != w.Downlink || g.Uplink != w.Uplink {
				t.Errorf("%s: path stats differ: down %+v vs %+v, up %+v vs %+v",
					where, g.Downlink, w.Downlink, g.Uplink, w.Uplink)
			}
		}
	}
}
