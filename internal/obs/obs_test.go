package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"turbulence/internal/racecheck"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return sb.String()
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	f := r.FloatGauge("f", "a float gauge")

	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
	g.SetMax(2)
	if g.Value() != 4 {
		t.Fatalf("SetMax lowered the gauge to %d", g.Value())
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatalf("SetMax(9) = %d", g.Value())
	}
	f.Set(1.5)
	if f.Value() != 1.5 {
		t.Fatalf("float gauge = %v, want 1.5", f.Value())
	}

	out := render(t, r)
	for _, want := range []string{
		"# HELP c_total a counter\n# TYPE c_total counter\nc_total 5\n",
		"# TYPE g gauge\ng 9\n",
		"# TYPE f gauge\nf 1.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramCumulative pins the exposition-format invariants: bucket
// counts are cumulative, the +Inf bucket equals _count, and _sum is the
// float sum of observations.
func TestHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.5, 1, 2})
	for _, v := range []float64{0.1, 0.5, 0.9, 1.5, 99} {
		h.Observe(v)
	}
	out := render(t, r)
	wantLines := []string{
		`lat_seconds_bucket{le="0.5"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="2"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 102`,
		`lat_seconds_count 5`,
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("histogram output missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 || math.Abs(h.Sum()-102) > 1e-9 {
		t.Fatalf("Count=%d Sum=%v, want 5, 102", h.Count(), h.Sum())
	}
}

// TestRenderEscaping covers the exposition format's escape rules: label
// values escape backslash, quote and newline; HELP text escapes
// backslash and newline.
func TestRenderEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "line one\nwith \\ slash", "who").With("a\"b\\c\nd").Inc()
	out := render(t, r)
	if !strings.Contains(out, `# HELP esc_total line one\nwith \\ slash`+"\n") {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_total{who="a\"b\\c\nd"} 1`+"\n") {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

// TestRenderLabelOrdering pins deterministic output: vec children render
// sorted by label value regardless of creation order.
func TestRenderLabelOrdering(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("jobs_total", "jobs", "worker")
	v.With("zeta").Add(3)
	v.With("alpha").Add(1)
	v.With("mike").Add(2)
	out := render(t, r)
	a := strings.Index(out, `jobs_total{worker="alpha"} 1`)
	m := strings.Index(out, `jobs_total{worker="mike"} 2`)
	z := strings.Index(out, `jobs_total{worker="zeta"} 3`)
	if a < 0 || m < 0 || z < 0 || !(a < m && m < z) {
		t.Fatalf("vec series not sorted by label value (indices %d, %d, %d):\n%s", a, m, z, out)
	}
	// With returns the same child for the same value.
	if v.With("alpha") != v.With("alpha") {
		t.Fatal("With(value) not stable")
	}
}

func TestGaugeFuncAndSnapshotLock(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	locked := false
	val := 0.0
	r.SetSnapshotLock(func() func() {
		mu.Lock()
		locked = true
		return func() { locked = false; mu.Unlock() }
	})
	r.GaugeFunc("depth", "queue depth", func() float64 {
		if !locked {
			t.Error("GaugeFunc ran without the snapshot lock held")
		}
		return val
	})
	val = 42
	if out := render(t, r); !strings.Contains(out, "depth 42\n") {
		t.Fatalf("GaugeFunc output wrong:\n%s", out)
	}
	if locked {
		t.Fatal("snapshot lock not released after render")
	}
}

func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	var hits uint64
	r.CounterFunc("cache_hits_total", "store hits", func() uint64 { return hits })
	hits = 17
	out := render(t, r)
	want := "# HELP cache_hits_total store hits\n# TYPE cache_hits_total counter\ncache_hits_total 17\n"
	if !strings.Contains(out, want) {
		t.Fatalf("CounterFunc output missing %q:\n%s", want, out)
	}
}

func TestRingWraparound(t *testing.T) {
	ring := NewRing(3)
	base := time.Unix(0, 0)
	for i := 0; i < 5; i++ {
		ring.Append(Event{At: base.Add(time.Duration(i) * time.Second), Kind: "lease", Shard: i})
	}
	if ring.Total() != 5 {
		t.Fatalf("Total = %d, want 5", ring.Total())
	}
	got := ring.Snapshot()
	if len(got) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(got))
	}
	for i, e := range got {
		if e.Shard != i+2 {
			t.Fatalf("Snapshot[%d].Shard = %d, want %d (oldest-first order)", i, e.Shard, i+2)
		}
	}
}

// TestHotPathAllocFree is the obs allocation pin: every update method a
// hot path can reach — counter/gauge bumps, histogram observation,
// cached vec children, and the sink's feed methods — must not allocate.
func TestHotPathAllocFree(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation pins are unreliable under -race")
	}
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	f := r.FloatGauge("f", "f")
	h := r.Histogram("h", "h", DurationBuckets)
	child := r.CounterVec("v_total", "v", "k").With("cached")
	sink := NewSink(NewRegistry())

	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		c.Inc()
		c.Add(2)
		g.Set(i)
		g.Add(-1)
		g.SetMax(i)
		f.Set(float64(i))
		h.Observe(float64(i % 7))
		child.Inc()
		sink.ObserveCell(1.25, i%2 == 0)
		sink.AddSim(10, 9, int(i%100))
		sink.AddDrops(1, 2, 3, 4)
		sink.AddTestbeds(1, 12)
	})
	if allocs > 0 {
		t.Fatalf("hot-path update allocates %.3f times per round, want 0", allocs)
	}
}
