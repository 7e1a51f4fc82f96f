package core

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"turbulence/internal/media"
	"turbulence/internal/obs"
)

// TraceRetention selects what a Runner keeps of each completed run beyond
// its Comparison, which every retention computes online. There is one
// retention per use, fixed by the caller, never by a user option: whole
// captures for trace files and determinism pins (RetainTraces), the
// experiments harness's figure flows (RetainFlows) and sweep streaming
// (StreamProfiles).
type TraceRetention int

const (
	// RetainTraces keeps every run's full packet capture, payload bytes
	// included, and its flow views — the Runner default, and what
	// writing or filtering whole captures needs (cmd/ethereal, the
	// determinism pins). Its records also stream through the online
	// analyzers, like every retention's.
	RetainTraces TraceRetention = iota
	// StreamProfiles never stores records at all: each captured packet
	// streams through online per-flow analyzers (capture.FlowDemux) at the
	// client NIC and is gone, so a run's capture state is a few KB of
	// accumulators instead of a trace. Run keeps everything but
	// Trace/WMPFlow/RealFlow. The shape matrix-scale sweeps run in: memory
	// is O(workers × analyzer state), not O(workers × trace).
	StreamProfiles
	// RetainFlows stores no records either, but keeps the two media data
	// flows (WMPFlow, RealFlow) as payload-free capture.FlowTraces built
	// at capture time: arrival times, wire sizes and fragment fields,
	// which is everything the paper's figures reduce. Run.Trace is nil.
	// The flows equal RetainTraces' FlowTo views record for record,
	// payload aside. The experiments harness runs its Table 1 cells and
	// its one-off runs this way.
	RetainFlows
)

// Progress is one completion notification delivered to a WithProgress
// callback: cell Key finished (successfully or with Err) as the Done-th of
// Total cells. Callbacks are serialised; they may be invoked from worker
// goroutines but never concurrently.
type Progress struct {
	Done  int
	Total int
	Key   RunKey
	Err   error

	// Start and Elapsed are the cell's wall-clock execution window,
	// measured around the simulation itself — progress meters and metrics
	// sinks report per-cell durations without re-deriving them.
	Start   time.Time
	Elapsed time.Duration
}

// RunResult is one executed Plan cell.
type RunResult struct {
	Key  RunKey
	Seed int64

	// Run is the full pair-run result (nil when Err is set or the cell
	// came from the result store; without a Trace under StreamProfiles
	// and RetainFlows, and without flows under StreamProfiles).
	Run *PairRun
	// Comparison holds both flows' turbulence profiles, accumulated online
	// at capture time under every retention (or served by the result
	// store). It equals Compare on the retained flows, because
	// ProfileFlow replays stored flows through the same analyzer. Nil
	// only when Err is set.
	Comparison *Comparison

	Err error
}

// Runner executes Plans. Build one with NewRunner: the zero configuration
// (no options) runs sequentially with no cancellation or progress and
// retains traces. Configuration is fixed at construction by functional
// options. A Runner is safe for concurrent use; its only mutable state is
// the pool of per-worker testbed caches it retains between executions, so
// back-to-back sweeps on one Runner start with the previous sweep's warm
// testbeds and arenas instead of rebuilding them (each cache is handed to
// at most one worker at a time; output is unaffected — a testbed is only
// ever armed by Reset, built or reused).
type Runner struct {
	workers    int
	ctx        context.Context
	progress   func(Progress)
	retention  TraceRetention
	sink       *obs.Sink
	sweepStats func(SweepStats)
	store      ResultStore
	pool       *tallyPool
}

// tallyPool holds the worker tallies a Runner retains across executions.
// It lives behind a pointer so shallow Runner copies (a dispatch worker's
// per-lease one) share it.
type tallyPool struct {
	mu    sync.Mutex
	spare []*workerTally
}

// workerTally is one worker's sweep accounting plus the testbed cache it
// owns for the duration of an execution. The AtStart snapshots mark where
// the current sweep's counting begins on a cache whose lifetime counters
// span many sweeps.
type workerTally struct {
	cache         *TestbedCache
	builtAtStart  int
	reusedAtStart int
}

// acquireTallies checks out n worker tallies: retained ones first, newly
// built caches for the rest. Each tally's per-sweep accounting is rewound
// to this execution's start.
func (r *Runner) acquireTallies(n int) []*workerTally {
	ts := make([]*workerTally, n)
	r.pool.mu.Lock()
	for i := range ts {
		if m := len(r.pool.spare); m > 0 {
			ts[i] = r.pool.spare[m-1]
			r.pool.spare[m-1] = nil
			r.pool.spare = r.pool.spare[:m-1]
		}
	}
	r.pool.mu.Unlock()
	for i, t := range ts {
		if t == nil {
			t = &workerTally{cache: NewTestbedCache()}
			ts[i] = t
		}
		t.builtAtStart = t.cache.Built()
		t.reusedAtStart = t.cache.Reused()
	}
	return ts
}

// releaseTallies returns an execution's tallies to the pool for the next
// sweep.
func (r *Runner) releaseTallies(ts []*workerTally) {
	r.pool.mu.Lock()
	r.pool.spare = append(r.pool.spare, ts...)
	r.pool.mu.Unlock()
}

// SweepStats summarises one executed sweep's testbed economy: how many
// testbeds were constructed versus served by reset-reuse. Delivered once
// per execution via WithSweepStats, after the last cell.
type SweepStats struct {
	TestbedsBuilt  int
	TestbedsReused int
}

// ResultStore is a content-addressed cache of completed cell results: the
// hook WithResultStore installs so warm reruns skip simulation. A cell is
// addressed by everything that determines its Comparison — pair, effective
// options (Plan.OptionsFor), and seed; implementations fold in the engine
// generation (internal/resultstore does, via wire.CellSpecFrom). Both
// methods must be safe for concurrent use from every Runner worker.
// LookupResult's Comparison must not be mutated by the caller —
// implementations may return a shared pointer.
type ResultStore interface {
	LookupResult(pair PairKey, opts Options, seed int64) (*Comparison, bool)
	InsertResult(pair PairKey, opts Options, seed int64, cmp *Comparison)
}

// RunnerOption configures a Runner at construction.
type RunnerOption func(*Runner)

// WithWorkers sets the worker-pool size for independent cells: 1 runs
// sequentially on the calling goroutine, in canonical order; 0 uses
// GOMAXPROCS. A parallel pool starts the costliest cells first (see
// execute), so the workers finish together. Because every cell's seed
// comes from Plan.Seed regardless of which worker executes it or when,
// results are byte-identical for any value; only wall-clock time changes.
func WithWorkers(n int) RunnerOption {
	return func(r *Runner) {
		if n < 0 {
			n = 1
		}
		r.workers = n
	}
}

// WithContext installs a cancellation context. It is checked before each
// cell starts and — via the scheduler's interrupt seam — between simulation
// events inside each run, so cancelling aborts a sweep promptly even
// mid-run. After cancellation a Runner delivers only the cells that had
// already completed; Run additionally reports ctx.Err().
func WithContext(ctx context.Context) RunnerOption {
	return func(r *Runner) { r.ctx = ctx }
}

// WithProgress installs a completion callback, invoked serially after each
// cell finishes — the hook behind live progress meters on long sweeps.
func WithProgress(fn func(Progress)) RunnerOption {
	return func(r *Runner) { r.progress = fn }
}

// WithTraceRetention selects what each completed run keeps (see
// TraceRetention).
func WithTraceRetention(tr TraceRetention) RunnerOption {
	return func(r *Runner) { r.retention = tr }
}

// WithMetrics installs an observability sink: per-cell wall times and
// error counts, eventsim scheduler totals, netem drop tallies, and — via
// a capture tap attached to each run's sniffer — packet and byte volume.
// Collection is alloc-free on the per-packet path and adds a handful of
// atomic ops per cell elsewhere; it never changes simulation output.
func WithMetrics(s *obs.Sink) RunnerOption {
	return func(r *Runner) { r.sink = s }
}

// WithSweepStats installs a callback receiving the sweep's testbed-economy
// summary (testbeds built and reused) once execution finishes — the hook
// the dispatch worker uses to ship those numbers to the coordinator.
func WithSweepStats(fn func(SweepStats)) RunnerOption {
	return func(r *Runner) { r.sweepStats = fn }
}

// WithResultStore installs a content-addressed result cache. Every
// completed simulated cell is inserted for later sweeps; errored cells
// are never cached. Lookups happen only under StreamProfiles: before
// simulating a cell the Runner consults the store, and a hit becomes the
// cell's RunResult directly — Comparison set, Run nil, merged in
// canonical order exactly as a fresh execution would be. RetainTraces and
// RetainFlows promise packet captures or flows, which the store does not
// hold, so they never look up rather than silently degrade the result
// shape. Callers that consume RunResult.Run (player reports) under
// StreamProfiles must not install a store with a lookup path.
func WithResultStore(s ResultStore) RunnerOption {
	return func(r *Runner) { r.store = s }
}

// NewRunner builds a Runner from functional options.
func NewRunner(opts ...RunnerOption) *Runner {
	r := &Runner{workers: 1, ctx: context.Background(), pool: &tallyPool{}}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// cell is one unit of Runner work: its key, with the seed and effective
// options it runs at.
type cell struct {
	key  RunKey
	seed int64
	opts Options
}

// cells resolves the plan's keys into Runner work, in canonical order.
func (p *Plan) cells() []cell {
	keys := p.Keys()
	out := make([]cell, len(keys))
	for i, k := range keys {
		out[i] = cell{key: k, seed: p.Seed(k), opts: p.OptionsFor(k)}
	}
	return out
}

// pairCost predicts a cell's simulation cost from its pair alone: the
// kilobits its two Table 1 clips stream, encoded rate × duration. Events
// per cell grow with the packets sent, so this ranks the costly cells,
// which decide when a parallel sweep ends, as their wall times rank
// (6/very-high streams 30% of a sweep's kilobits and takes 30% of its
// time); only cells under 20 ms swap places. A pair outside Table 1
// costs 0; its cell fails as soon as it starts.
func pairCost(k PairKey) float64 {
	p, ok := media.FindPair(k.Set, k.Class)
	if !ok {
		return 0
	}
	return p.Real.EncodedKbps*p.Real.Duration.Seconds() +
		p.WindowsMedia.EncodedKbps*p.WindowsMedia.Duration.Seconds()
}

// longestFirst returns the order a parallel sweep starts its cells in:
// indexes into cells by descending pairCost, ties (one pair under several
// scenarios or variants) in canonical order. This is Graham's
// longest-processing-time-first rule: a long cell started last would
// leave every other worker idle while it finishes alone.
func longestFirst(cells []cell) []int {
	cost := make([]float64, len(cells))
	order := make([]int, len(cells))
	for i, c := range cells {
		cost[i] = pairCost(c.key.Pair)
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cost[b], cost[a]) })
	return order
}

// execute runs every cell on the worker pool, delivering each completed
// cell to emit exactly once. A sequential pool (workers <= 1) runs the
// cells in the order given, canonical for a Plan; a parallel pool starts
// them in longestFirst order. Output does not depend on the order: each
// cell is seeded by its key and runs on a freshly Reset testbed. The
// progress callback is serialised under a mutex; emit is NOT — it may be
// invoked from several workers at once, so collectors must do their own
// locking. A cell error stops further cells from starting (fail-fast;
// in-flight cells still finish and are delivered). Cells that never
// started, or that were interrupted mid-simulation by cancellation, are
// not emitted — completed work only.
func (r *Runner) execute(cells []cell, emit func(RunResult)) {
	ctx := r.ctx
	workers := r.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	var mu sync.Mutex
	done := 0
	var failed atomic.Bool
	finish := func(res RunResult, start time.Time, elapsed time.Duration) {
		if res.Err != nil {
			failed.Store(true)
		}
		mu.Lock()
		done++
		if r.progress != nil {
			r.progress(Progress{Done: done, Total: len(cells), Key: res.Key, Err: res.Err, Start: start, Elapsed: elapsed})
		}
		mu.Unlock()
		emit(res)
	}

	// runCell runs one cell and reports whether the worker should go on
	// to the next.
	runCell := func(c cell, t *workerTally) bool {
		if ctx.Err() != nil || failed.Load() {
			return false
		}
		k, seed := c.key, c.seed
		start := time.Now()
		if r.store != nil && r.retention == StreamProfiles {
			if cmp, ok := r.store.LookupResult(k.Pair, c.opts, seed); ok {
				elapsed := time.Since(start)
				if r.sink != nil {
					r.sink.ObserveCell(elapsed.Seconds(), false)
				}
				finish(RunResult{Key: k, Seed: seed, Comparison: cmp}, start, elapsed)
				return true
			}
		}
		run, cmp, err := runPair(ctx, seed, k.Pair.Set, k.Pair.Class, c.opts, r.retention, r.sink, t.cache)
		elapsed := time.Since(start)
		if err != nil && ctx.Err() != nil {
			// Interrupted mid-simulation: not a completed cell.
			return false
		}
		if r.sink != nil {
			r.sink.ObserveCell(elapsed.Seconds(), err != nil)
			if run != nil {
				r.sink.AddSim(run.Sim.TimersScheduled, run.Sim.EventsFired, run.Sim.HeapPeak)
				d, u := &run.Downlink, &run.Uplink
				r.sink.AddDrops(d.DroppedLoss+u.DroppedLoss, d.DroppedFull+u.DroppedFull,
					d.DroppedAQM+u.DroppedAQM, d.TTLExpired+u.TTLExpired)
			}
		}
		if r.store != nil && err == nil {
			r.store.InsertResult(k.Pair, c.opts, seed, cmp)
		}
		finish(RunResult{Key: k, Seed: seed, Run: run, Err: err, Comparison: cmp}, start, elapsed)
		return true
	}

	// Each worker owns a testbed cache: cells reuse the worker's testbeds
	// via Reset instead of rebuilding the apparatus per run. Caches come
	// from the Runner's retained pool, so a Runner driving many sweeps
	// builds its testbeds once, not once per sweep.
	tallies := r.acquireTallies(max(workers, 1))
	// finishSweep folds the per-worker tallies into the sink and the
	// WithSweepStats callback once no more cells will run, counting only
	// this sweep's deltas on the long-lived caches, then returns the
	// tallies to the pool.
	finishSweep := func() {
		var sw SweepStats
		for _, t := range tallies {
			sw.TestbedsBuilt += t.cache.Built() - t.builtAtStart
			sw.TestbedsReused += t.cache.Reused() - t.reusedAtStart
		}
		if r.sink != nil {
			r.sink.AddTestbeds(uint64(sw.TestbedsBuilt), uint64(sw.TestbedsReused))
		}
		if r.sweepStats != nil {
			r.sweepStats(sw)
		}
		r.releaseTallies(tallies)
	}
	defer finishSweep()

	if workers <= 1 {
		for _, c := range cells {
			if !runCell(c, tallies[0]) {
				return
			}
		}
		return
	}
	order := longestFirst(cells)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(t *workerTally) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				if !runCell(cells[order[i]], t) {
					return
				}
			}
		}(tallies[w])
	}
	wg.Wait()
}

// Run executes the plan and collects every completed cell in canonical
// plan order. The returned error is the context's error if the run was
// cancelled, else the first collected cell error in canonical order, else
// nil. On either kind of failure the sweep stops starting new cells
// (in-flight ones finish) and the slice holds what completed — partial
// results survive, and a failing sequential sweep aborts at the failure.
func (r *Runner) Run(p *Plan) ([]RunResult, error) {
	var mu sync.Mutex
	var out []RunResult
	r.execute(p.cells(), func(res RunResult) {
		mu.Lock()
		out = append(out, res)
		mu.Unlock()
	})
	out = MergeRuns(out)
	if err := r.ctx.Err(); err != nil {
		return out, err
	}
	for _, res := range out {
		if res.Err != nil {
			return out, res.Err
		}
	}
	return out, nil
}

// RunPair executes one paired experiment with a literal seed and ablation
// options — the one-off for runs a Plan cannot express (ablations,
// extensions, trace capture) — as a one-cell sweep: under the Runner's
// context, retention, metrics sink, result store and pooled testbed
// caches, reported to WithProgress as 1 of 1. The seed fixes every random
// draw, so a (seed, set, class, opts) tuple is exactly reproducible, and
// the run is byte-identical to the same cell of a Plan. Cancelling the
// context aborts the run between simulation events and returns ctx.Err()
// with no progress report. The run keeps what the retention keeps; under
// StreamProfiles a result-store hit has no run, so a one-off that needs
// its PairRun installs no store at that retention.
func (r *Runner) RunPair(seed int64, set int, class media.Class, opts Options) (*PairRun, error) {
	key := RunKey{Pair: PairKey{Set: set, Class: class}, Scenario: opts.Scenario}
	var res *RunResult
	r.execute([]cell{{key: key, seed: seed, opts: opts}}, func(rr RunResult) { res = &rr })
	if res == nil { // cancelled before or during the run
		return nil, r.ctx.Err()
	}
	return res.Run, res.Err
}
