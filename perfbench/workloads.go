package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"turbulence/internal/core"
	"turbulence/internal/dispatch"
	"turbulence/internal/experiments"
	"turbulence/internal/media"
	"turbulence/internal/netem"
	"turbulence/internal/obs"
	"turbulence/internal/resultstore"
	"turbulence/internal/wire"
)

// workloadNames lists the workloads in the order BENCHMARK.json declares them.
var workloadNames = []string{"paper-sweep", "scenario-matrix", "figures", "dispatch-warm"}

// sweepOut is what one sweep delivered.
type sweepOut struct {
	cells     int      // plan cells delivered, simulated or cached
	simulated int      // of those, the cells simulated rather than cached
	errored   int      // delivered cells that carry an error
	items     []string // output digests: one per cell, or one per experiment
	perCell   bool     // items are cells, so mismatches count cell by cell
	// fsyncWait is the time the sweep waited on checkpoint fsyncs, which
	// the time metrics leave out: on a shared sandbox disk an fsync takes
	// from 0.1 to over 1 ms, minutes at a time, and dispatch-warm makes
	// one per shard. The benchmark may write only inside its checkout, so
	// it cannot put the journal on tmpfs, where an fsync costs nothing.
	fsyncWait time.Duration
}

// digest folds the items into one hex digest.
func (o sweepOut) digest() string {
	h := sha256.New()
	for _, it := range o.items {
		io.WriteString(h, it)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mismatched counts the cells of got whose output differs from want: cell
// by cell when items are cells, otherwise all of the sweep's cells as soon
// as any item differs (experiments share cells, so one wrong figure
// condemns the iteration).
func mismatched(want, got sweepOut) int {
	if len(want.items) != len(got.items) {
		return got.cells
	}
	n := 0
	for i := range got.items {
		if got.items[i] != want.items[i] {
			if !got.perCell {
				return got.cells
			}
			n++
		}
	}
	return n
}

// workload is one benchmark input. sweep runs one complete sweep (or
// figures iteration); tr is nil when untraced, and parent is the id of the
// sweep span the workload's own spans hang under.
type workload interface {
	sweep(tr *tracer, parent int) (sweepOut, error)
	// planSeed is the base seed the workload's plans derive from.
	planSeed() int64
	// workers is how many goroutines simulate cells at once.
	workers() int
	// cellPlans are plans whose cells are exactly the ones a sweep
	// simulates, for the exact per-cell counting pass.
	cellPlans() []*core.Plan
	// shapes are the testbed constructions the workload's cells use.
	shapes() [][]core.TestbedOption
}

// preparer is a workload whose state must be reset before each sweep. The
// reset is the benchmark's own work, not the program's, so timed windows
// leave it out.
type preparer interface {
	prepare() error
}

// sizing scales the workloads down for the benchmark's own tests; the zero
// value is the full benchmark.
type sizing struct {
	pairs     int // first n Table 1 pairs (0 = all 13)
	scenarios int // first n named scenarios (0 = all)
	variants  int // dispatch-warm variants (0 = all 3)
	figures   []string
}

func (s sizing) isFull() bool {
	return s.pairs == 0 && s.scenarios == 0 && s.variants == 0 && s.figures == nil
}

func (s sizing) pairKeys() []core.PairKey {
	all := core.AllPairs()
	if s.pairs > 0 && s.pairs < len(all) {
		return all[:s.pairs]
	}
	return all
}

func (s sizing) scenarioList() []*netem.Scenario {
	var out []*netem.Scenario
	for _, sc := range netem.All() {
		if sc.Hop != nil {
			out = append(out, sc)
		}
	}
	if s.scenarios > 0 && s.scenarios < len(out) {
		out = out[:s.scenarios]
	}
	return out
}

// figureIDs is what one `turbulence -experiment` regeneration of the paper
// runs: Table 1, every figure, §IV and the scenario-matrix extension.
func figureIDs() []string {
	ids := []string{"table1"}
	for i := 1; i <= 15; i++ {
		ids = append(ids, fmt.Sprintf("fig%02d", i))
	}
	return append(ids, "sec4", "ext-netem-scenarios")
}

// newWorkload builds a workload and everything its sweeps need. dir is a
// scratch directory the workload may write to (dispatch-warm's store and
// journal).
func newWorkload(name string, seed int64, sz sizing, dir string) (workload, error) {
	switch name {
	case "paper-sweep":
		// The paper's evaluation at its reference seed, whatever --seed
		// says. About one random seed in three overflows a bottleneck
		// queue in one of the 13 cells, and the NAK recovery that follows
		// allocates up to 28 MB in that cell — five times the rest of the
		// sweep — so a seeded paper-sweep would measure which seed it drew.
		// scenario-matrix, with 117 independent draws a sweep, measures
		// that recovery path steadily.
		return newRunnerSweep(core.NewPlan(goldenSeed).ForPairs(sz.pairKeys()...)), nil
	case "scenario-matrix":
		// Independent seeds per cell, so the 117 cells are 117 random
		// streams rather than 13, also at the reference seed: the seed still
		// decides how many cells overflow a queue into NAK recovery, and
		// across seeds that moved cpu_ms_per_cell by an eighth.
		plan := core.NewPlan(goldenSeed).ForPairs(sz.pairKeys()...).UnderScenarios(sz.scenarioList()...)
		return newRunnerSweep(plan.WithSeedPolicy(core.SeedPerCell)), nil
	case "figures":
		// At the reference seed, which is also the CLI's default: what a
		// plain `turbulence -experiment` regenerates. Its Table 1 cells
		// share paper-sweep's seed-dependent NAK recovery, which moves
		// allocs_per_cell by a third between seeds.
		return newFigures(goldenSeed, sz), nil
	case "dispatch-warm":
		return newDispatchWarm(seed, sz, dir)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// cellDigest is the digest of one cell's wire encoding.
func cellDigest(r wire.Run) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("encode cell %d: %w", r.Index, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func wireOut(runs []wire.Run) (sweepOut, error) {
	out := sweepOut{cells: len(runs), perCell: true, items: make([]string, len(runs))}
	for i, r := range runs {
		if r.Err != "" {
			out.errored++
		}
		d, err := cellDigest(r)
		if err != nil {
			return out, err
		}
		out.items[i] = d
	}
	return out, nil
}

// hooks forward a Runner's progress and sweep-stats callbacks to whichever
// tracer is active. Installed once on a long-lived Runner, they cost one
// atomic load per cell while no tracer is set.
type hooks struct {
	tr     atomic.Pointer[tracer]
	parent atomic.Int64 // span id cells hang under
}

func (h *hooks) progress(p core.Progress) {
	if tr := h.tr.Load(); tr != nil {
		tr.record(spanCell, int(h.parent.Load()), p.Key.Index, p.Start, p.Start.Add(p.Elapsed))
	}
}

func (h *hooks) sweepStats(s core.SweepStats) {
	if tr := h.tr.Load(); tr != nil {
		tr.add("core.testbeds_built", float64(s.TestbedsBuilt))
		tr.add("core.testbeds_reused", float64(s.TestbedsReused))
	}
}

// runnerSweep is paper-sweep and scenario-matrix: one long-lived Runner
// with WithWorkers(0) under StreamProfiles, running the plan back to back.
type runnerSweep struct {
	plan   *core.Plan
	runner *core.Runner
	h      *hooks
}

func newRunnerSweep(plan *core.Plan) *runnerSweep {
	h := &hooks{}
	return &runnerSweep{
		plan: plan,
		h:    h,
		runner: core.NewRunner(
			core.WithWorkers(0),
			core.WithTraceRetention(core.StreamProfiles),
			core.WithProgress(h.progress),
			core.WithSweepStats(h.sweepStats),
		),
	}
}

func (w *runnerSweep) sweep(tr *tracer, parent int) (sweepOut, error) {
	id := tr.begin(spanRunner, parent)
	w.h.parent.Store(int64(id))
	w.h.tr.Store(tr)
	results, err := w.runner.Run(w.plan)
	w.h.tr.Store(nil)
	tr.end(id)
	if err != nil && len(results) == 0 {
		return sweepOut{}, err
	}
	out, err := wireOut(wire.FromResults(results))
	out.simulated = out.cells
	return out, err
}

func (w *runnerSweep) planSeed() int64         { return w.plan.BaseSeed }
func (w *runnerSweep) workers() int            { return runtime.GOMAXPROCS(0) }
func (w *runnerSweep) cellPlans() []*core.Plan { return []*core.Plan{w.plan} }

func (w *runnerSweep) shapes() [][]core.TestbedOption {
	return scenarioShapes(w.plan.Scenarios, false)
}

// scenarioShapes lists one testbed shape per scenario (plus the faithful
// testbed when faithful is set or the list is empty).
func scenarioShapes(scs []*netem.Scenario, faithful bool) [][]core.TestbedOption {
	var out [][]core.TestbedOption
	if faithful || len(scs) == 0 {
		out = append(out, nil)
	}
	for _, sc := range scs {
		if sc != nil {
			out = append(out, []core.TestbedOption{core.WithScenario(sc)})
		}
	}
	return out
}

// figures regenerates the paper's artifacts the way `turbulence
// -experiment` does: a fresh experiments.Context per iteration, all cores,
// retained traces.
type figures struct {
	seed  int64
	ids   []string
	plans []*core.Plan
}

func newFigures(seed int64, sz sizing) *figures {
	f := &figures{seed: seed, ids: sz.figures}
	if f.ids == nil {
		f.ids = figureIDs()
	}
	for _, id := range f.ids {
		switch id {
		case "table1":
			f.plans = append(f.plans, core.NewPlan(seed))
		case "ext-netem-scenarios":
			// The matrix the generator runs: every high-class pair under
			// every named scenario, at the context seed + 803.
			var high []core.PairKey
			for _, k := range core.AllPairs() {
				if k.Class == media.High {
					high = append(high, k)
				}
			}
			f.plans = append(f.plans, core.NewPlan(seed+803).ForPairs(high...).UnderScenarios(sz.scenarioList()...))
		}
	}
	if len(f.plans) == 0 {
		// Generators that only read cached Table 1 pairs (sec4 reads 1/high).
		f.plans = append(f.plans, core.NewPlan(seed).ForPairs(core.PairKey{Set: 1, Class: media.High}))
	}
	return f
}

func (f *figures) sweep(tr *tracer, parent int) (sweepOut, error) {
	h := &hooks{}
	h.tr.Store(tr)
	var cells, errored atomic.Int64
	ctx := experiments.NewContext(f.seed).SetParallel(0).SetProgress(func(p core.Progress) {
		cells.Add(1)
		if p.Err != nil {
			errored.Add(1)
		}
		h.progress(p)
	})
	var sink *obs.Sink
	if tr != nil {
		sink = obs.NewSink(obs.NewRegistry())
		ctx.SetMetrics(sink)
	}
	out := sweepOut{}
	for _, id := range f.ids {
		eid := tr.begin(spanExperiment, parent)
		h.parent.Store(int64(eid))
		res, err := experiments.Run(ctx, id)
		tr.end(eid)
		if err != nil {
			return out, fmt.Errorf("%s: %w", id, err)
		}
		sum := sha256.Sum256([]byte(res.String()))
		out.items = append(out.items, hex.EncodeToString(sum[:]))
	}
	out.cells, out.errored = int(cells.Load()), int(errored.Load())
	out.simulated = out.cells
	if sink != nil {
		tr.add("core.testbeds_built", float64(sink.TestbedsBuilt.Value()))
		tr.add("core.testbeds_reused", float64(sink.TestbedsReused.Value()))
	}
	return out, nil
}

func (f *figures) planSeed() int64         { return f.seed }
func (f *figures) workers() int            { return runtime.GOMAXPROCS(0) }
func (f *figures) cellPlans() []*core.Plan { return f.plans }

func (f *figures) shapes() [][]core.TestbedOption {
	var scs []*netem.Scenario
	for _, p := range f.plans {
		scs = append(scs, p.Scenarios...)
	}
	return scenarioShapes(scs, true)
}

// dispatchWarm is an incremental dispatched sweep: a coordinator with a
// result store (restored before every sweep from a snapshot holding about
// 19 cells in 20) and a checkpoint journal, drained by two in-process
// workers over the loopback wire.
type dispatchWarm struct {
	plan      *core.Plan
	storeDir  string            // the coordinator's result store
	journal   string            // the coordinator's checkpoint
	snapshot  map[string][]byte // store directory contents, by file name
	reference sweepOut          // single-process Runner.Run of the plan
	uncached  []int             // plan cell Indexes missing from the snapshot
}

// dispatchVariants are the faithful options, the four ablations the
// experiments harness runs, and two of them combined. BottleneckBps would
// rebuild the testbed, and EnableScaling leaves some scenario cells
// unfinished at the horizon, so neither is crossed in.
var dispatchVariants = []core.Variant{
	{Name: "faithful"},
	{Name: "nofrag", Opts: core.Options{WMSUnitCap: 1400}},
	{Name: "uncapped", Opts: core.Options{UncappedBurst: true}},
	{Name: "nointerleave", Opts: core.Options{DisableInterleave: true}},
	{Name: "sequential", Opts: core.Options{Sequential: true}},
	{Name: "nofrag-nointerleave", Opts: core.Options{WMSUnitCap: 1400, DisableInterleave: true}},
}

// dispatchPlan crosses the low-rate Table 1 pairs with the faithful testbed
// plus every named scenario and every variant: 6 × 10 × 6 = 360 cells,
// above the coordinator's 256-shard cap, so 104 shards hold two cells. The
// low-rate clips are the cheapest to simulate, which keeps the set-up's
// reference run short and leaves the dispatch layers a large share of
// each sweep.
func dispatchPlan(seed int64, sz sizing) *core.Plan {
	var low []core.PairKey
	for _, k := range core.AllPairs() {
		if k.Class == media.Low {
			low = append(low, k)
		}
	}
	if sz.pairs > 0 && sz.pairs < len(low) {
		low = low[:sz.pairs]
	}
	vars := dispatchVariants
	if sz.variants > 0 && sz.variants < len(vars) {
		vars = vars[:sz.variants]
	}
	scs := append([]*netem.Scenario{nil}, sz.scenarioList()...)
	return core.NewPlan(seed).ForPairs(low...).UnderScenarios(scs...).WithVariants(vars...)
}

func newDispatchWarm(seed int64, sz sizing, dir string) (*dispatchWarm, error) {
	plan := dispatchPlan(seed, sz)
	w := &dispatchWarm{plan: plan, storeDir: filepath.Join(dir, "store"), journal: filepath.Join(dir, "journal")}

	// The reference: the whole plan in one process. Its Comparisons also
	// fill the snapshot.
	results, err := core.NewRunner(core.WithWorkers(0), core.WithTraceRetention(core.StreamProfiles)).Run(plan)
	for _, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("reference run: %w: %v", errCellFailed, res.Err)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if w.reference, err = wireOut(wire.FromResults(results)); err != nil {
		return nil, err
	}
	w.uncached = pickUncached(plan.Size(), shardCount(plan.Size()))
	skip := make(map[int]bool, len(w.uncached))
	for _, idx := range w.uncached {
		skip[idx] = true
	}
	snapDir := filepath.Join(dir, "snapshot")
	st, err := resultstore.Open(snapDir)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		if !skip[res.Key.Index] {
			st.InsertResult(res.Key.Pair, plan.OptionsFor(res.Key), res.Seed, res.Comparison)
		}
	}
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("close snapshot store: %w", err)
	}
	if w.snapshot, err = readDir(snapDir); err != nil {
		return nil, err
	}
	return w, nil
}

// shardCount is the coordinator's default carve: one shard per cell,
// capped at 256.
func shardCount(cells int) int { return max(min(cells, 256), 1) }

// pickUncached chooses about one cell in twenty to leave out of the
// snapshot, spread evenly over three kinds of shard: two-cell shards left
// wholly uncached, two-cell shards left with one uncached cell (so their
// grants carry CachedCells), and single-cell shards. Every other shard is
// fully cached and never leased. The choice is fixed, not drawn from the
// seed, so every seed simulates the same share of the plan.
func pickUncached(cells, shards int) []int {
	target := max((cells+19)/20, 1)
	multi := max(cells-shards, 0) // shards 0..multi-1 hold two cells
	whole := min(target*2/5/2, multi)
	partial := min(target*2/5, multi-whole)
	single := min(target-2*whole-partial, shards-multi)
	partial += target - 2*whole - partial - single // plans with too few single-cell shards
	var out []int
	for i := 0; i < whole+partial; i++ {
		s := i * multi / (whole + partial)
		out = append(out, s)
		if i < whole {
			out = append(out, s+shards)
		}
	}
	for i := 0; i < single; i++ {
		out = append(out, multi+i*(shards-multi)/single)
	}
	sort.Ints(out)
	return out
}

func readDir(dir string) (map[string][]byte, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("read snapshot: %w", err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("read snapshot: %w", err)
		}
		out[e.Name()] = b
	}
	return out, nil
}

// prepare rewrites the store directory from the snapshot and removes the
// previous sweep's journal, so every sweep starts from the same state. It
// syncs what it wrote: otherwise the sweep's first journal fsync would
// flush the restored store too, inside the timed sweep.
func (w *dispatchWarm) prepare() error {
	if err := os.RemoveAll(w.storeDir); err != nil {
		return fmt.Errorf("restore store: %w", err)
	}
	if err := os.Remove(w.journal); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("remove journal: %w", err)
	}
	if err := os.MkdirAll(w.storeDir, 0o755); err != nil {
		return fmt.Errorf("restore store: %w", err)
	}
	for name, b := range w.snapshot {
		if err := writeSynced(filepath.Join(w.storeDir, name), b); err != nil {
			return fmt.Errorf("restore store: %w", err)
		}
	}
	for _, dir := range []string{w.storeDir, filepath.Dir(w.journal)} {
		if err := syncPath(dir); err != nil {
			return fmt.Errorf("restore store: %w", err)
		}
	}
	return nil
}

func writeSynced(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// sweepTimeout bounds one dispatched sweep, so a wedged worker fails the
// run instead of hanging it.
const sweepTimeout = 150 * time.Second

func (w *dispatchWarm) sweep(tr *tracer, parent int) (sweepOut, error) {
	id := tr.begin(spanStoreOpen, parent)
	st, err := resultstore.Open(w.storeDir)
	tr.end(id)
	if err != nil {
		return sweepOut{}, err
	}
	defer st.Close()
	id = tr.begin(spanCarve, parent)
	coord, err := dispatch.New(w.plan, dispatch.WithResultStore(st), dispatch.WithCheckpoint(w.journal))
	tr.end(id)
	if err != nil {
		return sweepOut{}, err
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), sweepTimeout)
	defer cancel()
	drain, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		var q dispatch.Queue = dispatch.Loopback(coord)
		if tr != nil {
			q = &timedQueue{
				inner:  dispatch.Loopback(coord, dispatch.WithTransport(countingTransport{rt: dispatch.LoopbackTransport(coord), tr: tr})),
				tr:     tr,
				parent: parent,
			}
		}
		wk := dispatch.NewWorker(q, dispatch.WithRunWorkers(1), dispatch.WithName("w"+strconv.Itoa(i)))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = wk.Run(drain)
		}(i)
	}
	id = tr.begin(spanWait, parent)
	runs, waitErr := coord.Wait(ctx)
	tr.end(id)
	stop() // idle workers sleeping on a wait hint leave now
	wg.Wait()
	if ctx.Err() != nil {
		return sweepOut{}, fmt.Errorf("dispatched sweep: %w (worker errors: %v)", waitErr, errs)
	}
	for _, err := range errs {
		if err != nil {
			return sweepOut{}, fmt.Errorf("dispatch worker: %w", err)
		}
	}
	var text bytes.Buffer
	if err := coord.Metrics().WriteText(&text); err != nil {
		return sweepOut{}, fmt.Errorf("read coordinator metrics: %w", err)
	}
	if tr != nil {
		s := st.Stats()
		tr.add("resultstore.hits", float64(s.Hits))
		tr.add("resultstore.misses", float64(s.Misses))
		tr.add("dispatch.journal_fsyncs", promSum(text.String(), "turbulence_dispatch_journal_fsyncs_total"))
		tr.add("core.testbeds_built", promSum(text.String(), "turbulence_dispatch_worker_testbeds_built_total"))
		tr.add("core.testbeds_reused", promSum(text.String(), "turbulence_dispatch_worker_testbeds_reused_total"))
	}
	out, err := wireOut(runs)
	if err != nil {
		return out, err
	}
	fsyncS := promSum(text.String(), "turbulence_dispatch_journal_fsync_seconds_sum")
	out.fsyncWait = time.Duration(fsyncS * float64(time.Second))
	// Distributed == unsharded: a cell that differs from the single-process
	// run is wrong, and so is one missing from the merge.
	out.errored += mismatched(w.reference, out)
	out.errored += max(w.reference.cells-out.cells, 0)
	out.simulated = len(w.uncached)
	return out, nil
}

func (w *dispatchWarm) planSeed() int64 { return w.plan.BaseSeed }
func (w *dispatchWarm) workers() int    { return 2 }

func (w *dispatchWarm) cellPlans() []*core.Plan {
	cached := make([]int, 0, w.plan.Size()-len(w.uncached))
	skip := make(map[int]bool, len(w.uncached))
	for _, idx := range w.uncached {
		skip[idx] = true
	}
	for idx := 0; idx < w.plan.Size(); idx++ {
		if !skip[idx] {
			cached = append(cached, idx)
		}
	}
	return []*core.Plan{w.plan.Omitting(cached...)}
}

func (w *dispatchWarm) shapes() [][]core.TestbedOption { return scenarioShapes(w.plan.Scenarios, true) }

// promSum adds up every series of one metric in Prometheus text exposition.
func promSum(text, name string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // a longer metric name sharing the prefix
		}
		f := strings.Fields(rest)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// timedQueue wraps a worker's Queue to time its Lease and Complete calls
// and the shard run between them. It forwards StatsQueue and RetryCounter,
// so the worker ships stats and counts retries exactly as it does
// unwrapped. One timedQueue serves one worker, whose calls are sequential.
type timedQueue struct {
	inner  *dispatch.Client
	tr     *tracer
	parent int
	leased time.Time
}

func (q *timedQueue) Lease(worker string) (wire.LeaseGrant, error) {
	start := time.Now()
	g, err := q.inner.Lease(worker)
	end := time.Now()
	if err == nil && g.LeaseID != "" {
		q.tr.record(spanLease, q.parent, -1, start, end)
		q.tr.add("dispatch.leases", 1)
		q.tr.add("dispatch.cached_cells", float64(len(g.CachedCells)))
		q.leased = end
	}
	return g, err
}

func (q *timedQueue) Renew(leaseID, worker string) error { return q.inner.Renew(leaseID, worker) }

func (q *timedQueue) Complete(leaseID string, runs []wire.Run) error {
	return q.CompleteStats(leaseID, runs, nil)
}

func (q *timedQueue) CompleteStats(leaseID string, runs []wire.Run, stats *wire.WorkerStats) error {
	start := time.Now()
	q.tr.record(spanShard, q.parent, len(runs), q.leased, start)
	err := q.inner.CompleteStats(leaseID, runs, stats)
	q.tr.record(spanComplete, q.parent, -1, start, time.Now())
	q.tr.add("wire.complete_cells", float64(len(runs)))
	return err
}

func (q *timedQueue) Retries() uint64 { return q.inner.Retries() }

var (
	_ dispatch.StatsQueue   = (*timedQueue)(nil)
	_ dispatch.RetryCounter = (*timedQueue)(nil)
)

// countingTransport counts the request bytes of /complete calls — the
// wire-encoded result batches — on their way to the coordinator.
type countingTransport struct {
	rt http.RoundTripper
	tr *tracer
}

func (c countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil && strings.HasSuffix(req.URL.Path, "/complete") {
		r := req.Clone(req.Context())
		r.Body = &countingBody{ReadCloser: req.Body, tr: c.tr}
		req = r
	}
	return c.rt.RoundTrip(req)
}

type countingBody struct {
	io.ReadCloser
	tr *tracer
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.tr.add("wire.complete_bytes", float64(n))
	return n, err
}
