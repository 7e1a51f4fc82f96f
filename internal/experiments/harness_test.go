package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"turbulence/internal/capture"
	"turbulence/internal/core"
	"turbulence/internal/media"
	"turbulence/internal/netem"
	"turbulence/internal/obs"
	"turbulence/internal/resultstore"
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

// TestResultStoreWriteThroughOnly pins the harness's store discipline:
// experiments reduce full PairRuns (player reports, packet flows), which
// the store's Comparisons cannot reconstruct, so a default context must
// populate the store without ever serving its own sweeps from it — a warm
// rerun against a full store still regenerates every experiment, run
// data intact.
func TestResultStoreWriteThroughOnly(t *testing.T) {
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	cold := NewContext(55).SetResultStore(st)
	coldRes, err := Run(cold, "table1")
	if err != nil {
		t.Fatal(err)
	}
	entries := st.Stats().Entries
	if entries == 0 {
		t.Fatal("cold experiment sweep inserted nothing into the store")
	}

	// Warm context, same seed, same (now fully covering) store: the
	// lookup path must not be taken — every run needs its full reports.
	warm := NewContext(55).SetResultStore(st)
	warmRes, err := Run(warm, "table1")
	if err != nil {
		t.Fatalf("warm experiment sweep against a populated store: %v", err)
	}
	if len(warmRes.Rows) != len(coldRes.Rows) {
		t.Fatalf("warm run rendered %d rows, cold %d", len(warmRes.Rows), len(coldRes.Rows))
	}
	for i := range coldRes.Rows {
		if strings.Join(warmRes.Rows[i], "|") != strings.Join(coldRes.Rows[i], "|") {
			t.Fatalf("row %d differs warm vs cold:\n  %v\n  %v", i, warmRes.Rows[i], coldRes.Rows[i])
		}
	}
	runs, err := warm.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		if run == nil || run.WMP == nil || run.Real == nil {
			t.Fatal("warm run served from the store: missing player reports")
		}
	}
	// No double inserts, no hits, and crucially no store-level misses:
	// the harness short-circuits lookups locally.
	s := st.Stats()
	if s.Entries != entries {
		t.Fatalf("warm sweep changed the store: %d -> %d entries", entries, s.Entries)
	}
	if s.Hits != 0 {
		t.Fatalf("harness served %d cells from the store", s.Hits)
	}
}

// matrixFixture is the small matrix the Context.Matrix contract tests
// sweep: two low-rate pairs under two named scenarios.
func matrixFixture(t *testing.T) ([]core.PairKey, []*netem.Scenario) {
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
	return keys, scs
}

// TestContextMatrixStreamsProfiles pins the Matrix contract: cells stream
// through online profiles, so no run carries a packet capture, while the
// player reports and path stats every matrix consumer reduces equal a
// retaining Runner's at the same seed.
func TestContextMatrixStreamsProfiles(t *testing.T) {
	keys, scs := matrixFixture(t)
	const seed = 2002 + 803
	got, err := NewContext(2002).SetParallel(0).Matrix(seed, keys, scs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewRunner(core.WithWorkers(1)).RunMatrix(seed, keys, scs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Scenario != want[i].Scenario || len(got[i].Runs) != len(want[i].Runs) {
			t.Fatalf("row %d: scenario %v with %d runs, want %v with %d",
				i, got[i].Scenario.Name, len(got[i].Runs), want[i].Scenario.Name, len(want[i].Runs))
		}
		for j, g := range got[i].Runs {
			w := want[i].Runs[j]
			where := fmt.Sprintf("%s %d/%v", want[i].Scenario.Name, keys[j].Set, keys[j].Class)
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

// countingStore is a core.ResultStore that counts calls and would serve
// every lookup as a hit, so any lookup reaching it would replace a run.
type countingStore struct {
	mu               sync.Mutex
	lookups, inserts int
}

func (s *countingStore) LookupResult(core.PairKey, core.Options, int64) (*core.Comparison, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups++
	return &core.Comparison{}, true
}

func (s *countingStore) InsertResult(_ core.PairKey, _ core.Options, _ int64, cmp *core.Comparison) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cmp != nil {
		s.inserts++
	}
}

// TestContextMatrixWritesThroughStore pins the store side of streamed
// matrix cells: each cell carries a Comparison, so a context with a result
// store inserts exactly one per cell — under the default Table 1
// retention too — and never serves a cell from the store.
func TestContextMatrixWritesThroughStore(t *testing.T) {
	keys, scs := matrixFixture(t)
	st := &countingStore{}
	rows, err := NewContext(2002).SetParallel(0).SetResultStore(st).Matrix(2002+803, keys, scs)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(keys) * len(scs)
	if st.inserts != cells {
		t.Fatalf("store saw %d inserts, want one per cell (%d)", st.inserts, cells)
	}
	if st.lookups != 0 {
		t.Fatalf("store saw %d lookups, want 0 (insert-only)", st.lookups)
	}
	for _, row := range rows {
		for _, run := range row.Runs {
			if run == nil || run.Real == nil || run.WMP == nil {
				t.Fatalf("%s: cell served from the store: missing player reports", row.Scenario.Name)
			}
		}
	}
}
