// Package experiments regenerates every table and figure in the paper's
// evaluation from the simulated testbed. Each experiment is a registered
// generator producing a Result: tabular rows, plottable series, or both,
// in the same units and with the same reductions the paper used. The
// cmd/turbulence binary prints Results, and bench_test.go wraps the same
// generators. The paper's value for each reported quantity appears in
// the Result's notes.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"turbulence/internal/core"
	"turbulence/internal/media"
	"turbulence/internal/netem"
	"turbulence/internal/netsim"
	"turbulence/internal/obs"
	"turbulence/internal/stats"
)

// Series is one named curve of a figure.
type Series struct {
	Name   string
	Points []stats.Point
}

// Result is the regenerated artifact for one experiment.
type Result struct {
	ID    string
	Title string

	// Provenance metadata, so merged shard outputs are self-describing:
	// Scenario names the netem scenario the context streamed under ("" =
	// the faithful testbed), Seed is the base seed, and Shard is the
	// "i/n" slice a sharded CLI invocation ran (set by cmd/turbulence).
	Scenario string `json:",omitempty"`
	Seed     int64  `json:",omitempty"`
	Shard    string `json:",omitempty"`

	// Tabular part.
	Columns []string
	Rows    [][]string

	// Figure part.
	Series []Series

	// Headline observations, used for quick comparison against the paper.
	Notes []string
}

// AddNote appends a formatted observation.
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render prints the result as aligned text.
func (r *Result) Render(w *strings.Builder) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Columns) > 0 {
		widths := make([]int, len(r.Columns))
		for i, c := range r.Columns {
			widths[i] = len(c)
		}
		for _, row := range r.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		for i, c := range r.Columns {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		w.WriteString("\n")
		for _, row := range r.Rows {
			for i, cell := range row {
				fmt.Fprintf(w, "%-*s  ", widths[i], cell)
			}
			w.WriteString("\n")
		}
	}
	for _, s := range r.Series {
		fmt.Fprintf(w, "series %s (%d points)\n", s.Name, len(s.Points))
		for _, p := range s.Points {
			fmt.Fprintf(w, "  %g\t%g\n", p.X, p.Y)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// String renders the result.
func (r *Result) String() string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}

// Context is a thin cache over a core.Runner: it remembers each Table 1
// pair run so one invocation of several experiments executes each pair at
// most once, and delegates all execution — worker fan-out, cancellation,
// progress — to the Plan/Runner engine. Because every run is seeded via
// core.SeedFor regardless of execution shape, the cached results — and
// every figure derived from them — are byte-identical to a sequential
// regeneration. Every pair run the context executes — cached Table 1
// runs and one-offs alike — keeps the two media flows payload-free
// (core.RetainFlows) and no whole capture: the figures reduce arrival
// times, sizes and fragment fields, never a payload byte. Matrix sweeps
// stream (core.StreamProfiles).
type Context struct {
	Seed    int64
	workers int

	// cancel, when set, aborts in-flight pair runs when the context is
	// cancelled (checked between simulation events); progress, when set,
	// observes each completed pair run.
	cancel   context.Context
	progress func(core.Progress)
	sink     *obs.Sink
	store    core.ResultStore

	// scenario, when set, streams every cached Table 1 pair run under a
	// netem scenario, turning the whole regenerated evaluation into a
	// what-if under impaired network conditions. Experiments that build
	// their own testbeds (ablations, extensions) are unaffected.
	scenario *netem.Scenario

	// runMu serialises cache-miss execution so concurrent callers never
	// duplicate a multi-second pair simulation; mu guards only the map.
	runMu sync.Mutex
	mu    sync.Mutex
	runs  map[core.PairKey]*core.PairRun
}

// NewContext creates a run cache for the given base seed.
func NewContext(seed int64) *Context {
	return &Context{Seed: seed, workers: 1, runs: make(map[core.PairKey]*core.PairRun)}
}

// SetParallel sets the worker-pool size used when All must execute several
// uncached pair runs (1 = sequential, 0 = GOMAXPROCS). Results are
// unaffected; only wall-clock time changes.
func (c *Context) SetParallel(workers int) *Context {
	if workers < 0 {
		workers = 1
	}
	c.workers = workers
	return c
}

// SetCancel installs a cancellation context on the underlying Runner:
// cancelling it makes in-flight pair runs abort promptly (between
// simulation events) and cache-miss execution return its error. Completed
// runs stay cached.
func (c *Context) SetCancel(ctx context.Context) *Context {
	c.cancel = ctx
	return c
}

// SetProgress installs a completion callback on the underlying Runner,
// invoked serially after each uncached pair run finishes.
func (c *Context) SetProgress(fn func(core.Progress)) *Context {
	c.progress = fn
	return c
}

// SetMetrics installs an obs.Sink on the underlying Runner: every
// uncached pair run — Table 1 cells, one-offs (RunOne) and Matrix cells —
// feeds cell timing, simulator counters, capture volume, and netem drop
// causes into it. Results are unaffected — the
// sink observes the sweep, it does not steer it.
func (c *Context) SetMetrics(s *obs.Sink) *Context {
	c.sink = s
	return c
}

// SetResultStore installs a content-addressed result store on the
// underlying Runner, write-through only: every completed pair run — Table
// 1 cells, one-offs and Matrix cells — inserts its Comparison, so later
// Comparison-space sweeps (a dispatched rerun, a Runner with
// WithResultStore) hit on them, but the context's own runs never serve
// from the store — experiments reduce the full player reports and packet
// flows of a PairRun, which the store's Comparisons do not hold, so a
// cache hit here would leave the experiment nothing to regenerate from.
func (c *Context) SetResultStore(s core.ResultStore) *Context {
	c.store = s
	return c
}

// insertOnly adapts a ResultStore to the harness's write-through
// discipline: every lookup misses locally (without touching the store's
// hit/miss counters), every insert persists.
type insertOnly struct{ core.ResultStore }

func (insertOnly) LookupResult(core.PairKey, core.Options, int64) (*core.Comparison, bool) {
	return nil, false
}

// runner assembles the Runner the context delegates execution to; extra
// options (the use's retention) are appended last.
func (c *Context) runner(extra ...core.RunnerOption) *core.Runner {
	opts := []core.RunnerOption{core.WithWorkers(c.workers)}
	if c.cancel != nil {
		opts = append(opts, core.WithContext(c.cancel))
	}
	if c.progress != nil {
		opts = append(opts, core.WithProgress(c.progress))
	}
	if c.sink != nil {
		opts = append(opts, core.WithMetrics(c.sink))
	}
	if c.store != nil {
		opts = append(opts, core.WithResultStore(insertOnly{c.store}))
	}
	opts = append(opts, extra...)
	return core.NewRunner(opts...)
}

// execute runs the listed uncached pairs through the Runner and caches
// every run that completed — even when the sweep was cancelled partway,
// honouring SetCancel's promise that completed runs stay cached — before
// reporting the sweep's error.
func (c *Context) execute(keys []core.PairKey) error {
	// The scenario rides on the plan's scenario axis, not in variant
	// options, so Progress keys (and run labels) carry it. Seeding is
	// unaffected: SeedCommon derives from the pair alone either way.
	plan := core.NewPlan(c.Seed).ForPairs(keys...)
	if c.scenario != nil {
		plan.UnderScenarios(c.scenario)
	}
	results, err := c.runner(core.WithTraceRetention(core.RetainFlows)).Run(plan)
	c.mu.Lock()
	for _, res := range results {
		if res.Err == nil && res.Run != nil {
			c.runs[res.Key.Pair] = res.Run
		}
	}
	c.mu.Unlock()
	return err
}

// RunOne executes one uncached pair run with an explicit literal seed —
// how ablations and extensions keep their runs off the Table 1 cache —
// through the context's Runner (core.Runner.RunPair): it honours
// SetCancel (ctrl-C lands mid-simulation in every experiment, not just
// the cached sweep), SetProgress (a 1-of-1 sweep), SetMetrics and
// SetResultStore. The run keeps its media flows payload-free, as the
// Table 1 runs do, and no whole capture.
func (c *Context) RunOne(seed int64, set int, class media.Class, opts core.Options) (*core.PairRun, error) {
	return c.runner(core.WithTraceRetention(core.RetainFlows)).RunPair(seed, set, class, opts)
}

// Matrix executes a (pairs × scenarios) sweep through the context's
// Runner, honouring SetParallel, SetCancel, SetProgress, SetMetrics and
// SetResultStore. Its cells stream through online profiles
// (core.StreamProfiles): the rows' runs carry no Trace, WMPFlow or
// RealFlow, while their player reports and path stats equal those
// core.Runner.RunMatrix returns under RetainTraces at the same seed.
// Matrix consumers reduce reports and drop counters only, so a sweep
// holds O(workers) analyzer state instead of every cell's capture.
func (c *Context) Matrix(seed int64, keys []core.PairKey, scenarios []*netem.Scenario) ([]core.ScenarioRuns, error) {
	return c.runner(core.WithTraceRetention(core.StreamProfiles)).RunMatrix(seed, keys, scenarios)
}

// SetScenario streams the context's Table 1 pair runs under a netem
// scenario. Must be called before the first run executes; the cache is
// keyed by pair only, so mixing scenarios within one context is not
// supported. Results stay deterministic for any SetParallel value.
func (c *Context) SetScenario(sc *netem.Scenario) *Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.runs) > 0 {
		panic("experiments: SetScenario after runs are cached")
	}
	c.scenario = sc
	return c
}

// Scenario returns the context's installed scenario (nil = faithful).
func (c *Context) Scenario() *netem.Scenario { return c.scenario }

// Pair returns the (cached) run for one pair experiment.
func (c *Context) Pair(set int, class media.Class) (*core.PairRun, error) {
	k := core.PairKey{Set: set, Class: class}
	c.mu.Lock()
	r, ok := c.runs[k]
	c.mu.Unlock()
	if ok {
		return r, nil
	}
	c.runMu.Lock()
	defer c.runMu.Unlock()
	c.mu.Lock()
	r, ok = c.runs[k]
	c.mu.Unlock()
	if ok { // another caller filled it while we waited
		return r, nil
	}
	if err := c.execute([]core.PairKey{k}); err != nil {
		return nil, err
	}
	c.mu.Lock()
	r = c.runs[k]
	c.mu.Unlock()
	return r, nil
}

// All returns runs for every Table 1 pair, in Table 1 order. Uncached
// pairs execute on the context's worker pool.
func (c *Context) All() ([]*core.PairRun, error) {
	keys := core.AllPairs()
	c.runMu.Lock()
	defer c.runMu.Unlock()
	c.mu.Lock()
	var missing []core.PairKey
	for _, k := range keys {
		if _, ok := c.runs[k]; !ok {
			missing = append(missing, k)
		}
	}
	c.mu.Unlock()
	if len(missing) > 0 {
		if err := c.execute(missing); err != nil {
			return nil, err
		}
	}
	out := make([]*core.PairRun, len(keys))
	c.mu.Lock()
	for i, k := range keys {
		out[i] = c.runs[k]
	}
	c.mu.Unlock()
	return out, nil
}

// Generator produces one experiment's Result.
type Generator func(*Context) (*Result, error)

// Experiment is one registry entry.
type Experiment struct {
	ID       string
	Title    string
	Generate Generator
}

var registry = map[string]Experiment{}

func register(id, title string, g Generator) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = Experiment{ID: id, Title: title, Generate: g}
}

// Lookup returns a registered experiment.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs lists registered experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id. Every report gains a path-drop
// breakdown note covering the context's cached pair runs, so model loss
// (the links' loss processes) stays distinguishable from AQM early drops
// and queue overflow in whatever the experiment measured.
func Run(ctx *Context, id string) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	res, err := e.Generate(ctx)
	if err != nil {
		return nil, err
	}
	if sc := ctx.Scenario(); sc != nil {
		res.Scenario = sc.Name
	}
	res.Seed = ctx.Seed
	if note, ok := ctx.dropNote(); ok {
		res.AddNote("%s", note)
	}
	return res, nil
}

// dropNote summarises the drop breakdown across the context's cached pair
// runs. Summation over the cache map is order-independent, so the note is
// deterministic for a given set of executed runs.
func (c *Context) dropNote() (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.runs) == 0 {
		return "", false
	}
	var down, up netsim.PathStats
	for _, r := range c.runs {
		down.Add(r.Downlink)
		up.Add(r.Uplink)
	}
	label := ""
	if c.scenario != nil {
		label = fmt.Sprintf(" under scenario %q", c.scenario.Name)
	}
	return fmt.Sprintf(
		"path drops across %d pair runs%s — downlink: %d model-loss, %d queue-overflow, %d aqm-early, %d ttl (%d forwarded); uplink: %d model-loss, %d queue-overflow, %d aqm-early, %d ttl (%d forwarded)",
		len(c.runs), label,
		down.DroppedLoss, down.DroppedFull, down.DroppedAQM, down.TTLExpired, down.Forwarded,
		up.DroppedLoss, up.DroppedFull, up.DroppedAQM, up.TTLExpired, up.Forwarded), true
}

// fmtF renders a float compactly for table cells.
func fmtF(v float64) string { return fmt.Sprintf("%.1f", v) }

func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
