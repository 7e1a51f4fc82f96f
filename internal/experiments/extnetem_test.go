package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"turbulence/internal/core"
	"turbulence/internal/media"
	"turbulence/internal/netem"
)

func TestExtNetemLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("full pair runs in -short mode")
	}
	res, err := Run(NewContext(2002), "ext-netem-loss")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	// The impaired variants must show materially more link drops than the
	// faithful baseline (column 1 holds the downlink model-drop count).
	if res.Rows[0][1] == res.Rows[2][1] {
		t.Fatalf("bursty variant shows baseline drop count: %v", res.Rows)
	}
	if len(res.Notes) == 0 {
		t.Fatal("no notes")
	}
}

func TestExtNetemBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("full pair runs in -short mode")
	}
	res, err := Run(NewContext(2002), "ext-netem-bandwidth")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || len(res.Notes) == 0 {
		t.Fatalf("rows=%d notes=%d", len(res.Rows), len(res.Notes))
	}
}

func TestExtNetemScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario matrix in -short mode")
	}
	res, err := Run(NewContext(2002).SetParallel(0), "ext-netem-scenarios")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, sc := range netem.All() {
		if sc.Hop != nil {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("rows = %d, want one per scenario (%d)", len(res.Rows), want)
	}
	seen := map[string]bool{}
	for _, row := range res.Rows {
		seen[row[0]] = true
	}
	for _, name := range []string{"paper-baseline", "lossy-wifi", "congested-peering"} {
		if !seen[name] {
			t.Fatalf("scenario %s missing from matrix: %v", name, res.Rows)
		}
	}
	// The whole report, byte for byte, as the retaining matrix rendered
	// it before Context.Matrix streamed its cells.
	const wantDigest = "3a45c3a1ae2b21a484627c4833e7b0b1e46dc96deb39458baa809f3999755cab"
	sum := sha256.Sum256([]byte(res.String()))
	if got := hex.EncodeToString(sum[:]); got != wantDigest {
		t.Fatalf("report digest %s, want %s:\n%s", got, wantDigest, res)
	}
}

// TestAllExperimentsDigest pins every report one `turbulence -experiment`
// regeneration renders — table1, fig01–fig15, sec4 and
// ext-netem-scenarios on one fresh context at the CLI's default seed — as
// one SHA-256 over the reports in that order. The digest was taken while
// the Table 1 cells still retained whole captures; flow retention must
// render the same bytes.
func TestAllExperimentsDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment in -short mode")
	}
	ids := []string{"table1"}
	for i := 1; i <= 15; i++ {
		ids = append(ids, fmt.Sprintf("fig%02d", i))
	}
	ids = append(ids, "sec4", "ext-netem-scenarios")
	ctx := NewContext(2002).SetParallel(0)
	h := sha256.New()
	for _, id := range ids {
		res, err := Run(ctx, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		h.Write([]byte(res.String()))
	}
	const wantDigest = "7a2938f3954d632e92cfd6f18d5b16e2830e5ac6295f2b54b0eae2c9b30acd7a"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Fatalf("all-experiments digest %s, want %s", got, wantDigest)
	}
}

// TestOneOffExperimentsDigest pins every report built from one-off
// literal-seed runs (Context.RunOne) — the four ablations,
// ext-netem-loss, ext-netem-bandwidth and ext-scaling — as one SHA-256
// over the reports in that order at seed 2002. The digest was taken while
// the one-off runs still retained whole captures; flow retention must
// render the same bytes.
func TestOneOffExperimentsDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("one-off pair runs in -short mode")
	}
	ids := []string{
		"ablation-nofrag", "ablation-uncapped", "ablation-nointerleave", "ablation-sequential",
		"ext-netem-loss", "ext-netem-bandwidth", "ext-scaling",
	}
	ctx := NewContext(2002).SetParallel(0)
	h := sha256.New()
	for _, id := range ids {
		res, err := Run(ctx, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		h.Write([]byte(res.String()))
	}
	const wantDigest = "9f09a6b4b2a4102d66e11a67ae394b9824f04cfa3f8e2839c275d4d5fc67a306"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Fatalf("one-off experiments digest %s, want %s", got, wantDigest)
	}
}

// TestScenarioContextDeterminism enforces the CLI acceptance guarantee at
// the experiments layer: the same seed and scenario regenerate identical
// reports across repeated invocations and across worker-pool sizes.
func TestScenarioContextDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full pair runs in -short mode")
	}
	sc, err := netem.Find("lossy-wifi")
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		ctx := NewContext(2002).SetParallel(workers).SetScenario(sc)
		var b strings.Builder
		for _, id := range []string{"fig01", "table1"} {
			res, err := Run(ctx, id)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, id, err)
			}
			b.WriteString(res.String())
		}
		return b.String()
	}
	seq := render(1)
	if par := render(4); par != seq {
		t.Fatal("parallel scenario regeneration differs from sequential")
	}
	if again := render(1); again != seq {
		t.Fatal("repeated scenario regeneration differs")
	}
	if !strings.Contains(seq, `under scenario "lossy-wifi"`) {
		t.Fatal("drop-breakdown note does not name the scenario")
	}
}

// TestDropNoteOnEveryReport checks the satellite requirement: any report
// built from cached pair runs carries the drop breakdown.
func TestDropNoteOnEveryReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full pair runs in -short mode")
	}
	ctx := NewContext(2002).SetParallel(0)
	for _, id := range []string{"fig01", "table1"} {
		res, err := Run(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, n := range res.Notes {
			if strings.Contains(n, "model-loss") && strings.Contains(n, "queue-overflow") {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: drop-breakdown note missing: %v", id, res.Notes)
		}
	}
}

func TestSetScenarioAfterRunsPanics(t *testing.T) {
	ctx := NewContext(2002)
	ctx.mu.Lock()
	ctx.runs[core.PairKey{Set: 1, Class: media.Low}] = nil
	ctx.mu.Unlock()
	defer func() {
		if recover() == nil {
			t.Fatal("SetScenario after cached runs did not panic")
		}
	}()
	ctx.SetScenario(nil)
}
