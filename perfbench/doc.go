// Command perfbench is the repository's end-to-end benchmark: it runs one
// workload of the sweep engine, as it ships, for a fixed wall-clock window
// and prints the metrics BENCHMARK.json declares.
//
//	python3 perfbench/run.py --workload paper-sweep --seed 2002 --seconds 25 --trace 0
//
// run.py builds this package from the checkout's source into .bench_build/
// and runs it from the checkout root. It calls only the program's public
// entry points in their shipped defaults — core.Runner, experiments.Run,
// dispatch.New/NewWorker/Loopback and resultstore.Open — so the heap
// scheduler runs (not the timing wheel BenchmarkPlanStreamOnline turns
// on), testbeds are reused and adaptive leases are off. At most GOMAXPROCS
// goroutines simulate, and no socket is opened: the live transport is left
// out because its sessions are paced by wall-clock playback, so a faster
// program would not finish them sooner.
//
// # Workloads
//
// paper-sweep: the 13 Table 1 pairs on the faithful testbed under
// StreamProfiles, swept back to back by one long-lived Runner with
// WithWorkers(0). The paper's own evaluation, always at the reference seed
// 2002: about a third of random seeds overflow a bottleneck queue in one
// cell, whose NAK recovery then allocates five times the rest of the
// sweep, so --seed would decide the allocation metrics. Loads eventsim, bare netsim
// forwarding, inet, wms/rdt and the online capture analyzers; netem, the
// result store and dispatch do nothing. Its 13 uneven cells on two workers
// leave idle time at the end of each sweep, which core.busy_frac shows.
//
// scenario-matrix: the same pairs under every named netem scenario (13 × 9
// = 117 cells a sweep), same Runner, with SeedPerCell so a sweep holds 117
// independent random streams rather than 13, also always at seed 2002: the
// seed decides how many cells overflow a queue into NAK recovery, and
// across seeds that moved cpu_ms_per_cell by an eighth. Loads netem's loss,
// bandwidth, jitter, AQM and cross-traffic models, drops and rdt NAK
// recovery, which paper-sweep never reaches; the idle tail is a small share
// of a sweep, so a per-packet gain shows here without the Runner's
// scheduling in the way.
//
// figures: table1, fig01–fig15, sec4 and ext-netem-scenarios, each
// iteration on a fresh experiments.Context with SetParallel(0) under
// RetainTraces at the CLI's default seed 2002 — what every `turbulence
// -experiment` invocation pays. (Its Table 1 cells share paper-sweep's
// seed-dependent NAK recovery, so it too ignores --seed.)
// Loads the retained columnar capture store, trace views, ProfileFlow
// replay, the figure reductions and testbed construction (each ctx.Pair or
// Matrix call builds its own Runner); the streaming workloads load none of
// these.
//
// dispatch-warm: an incremental dispatched sweep of the 6 low-rate pairs ×
// (faithful + 9 scenarios) × 6 option variants = 360 cells, above the
// 256-shard cap, so 104 shards hold two cells. The low-rate clips are the
// cheapest cells, which keeps the set-up's reference run short and leaves
// the dispatch layers a large share of each sweep. Before every sweep the
// coordinator's result store is restored from a set-up snapshot holding
// about 19 cells in 20: some shards fully cached (journalled, never
// leased), some partly (their grants carry CachedCells), some not at all.
// The coordinator checkpoints to a journal; two in-process workers with
// WithRunWorkers(1) pull over dispatch.Loopback. Loads dispatch, wire, the
// journal and the result store, which no other workload reaches. Its files
// stay inside the checkout; the result records whether that is tmpfs
// (dispatch_tmpfs). The journal fsyncs once per shard, 256 times a sweep,
// and on a shared sandbox disk an fsync takes from 0.1 to over 1 ms,
// minutes at a time, so the time metrics leave out the fsync time the
// coordinator measures itself (turbulence_dispatch_journal_fsync_seconds):
// what a tmpfs journal would give. dispatch.journal_fsyncs_per_sweep still
// counts the fsyncs.
//
// # Metrics
//
// With --trace 0 the run reports the end-to-end metrics: setup_s (one
// cold set-up, from process start to the opening of the timed window; it
// includes one untimed warm-up sweep and, for dispatch-warm, the reference
// run that fills the store snapshot), cells_per_s (plan cells delivered,
// simulated or cached, per wall second), cpu_ms_per_cell (getrusage
// user+sys per cell), alloc_kb_per_cell and allocs_per_cell
// (runtime/metrics heap allocations) and max_rss_mb. A GC is forced and
// every counter snapshotted just before the window opens. The allocation
// metrics are totals over the whole timed window divided by its cells.
// The two time metrics are the median over the window's sweeps of each
// sweep's own total divided by its cells: every sweep of a workload does
// the same work, and on a shared host a sweep's speed moves by a fifth
// from one second to the next, so a whole-window total carries whichever
// bursts of contention fell inside the window and the median leaves them
// out. Wall-clock times (setup_s and the sweeps behind cells_per_s) leave
// out the time the hypervisor gave this machine's CPUs to other guests,
// the steal column of /proc/stat: on a shared host it takes from a few per
// cent to over 40 per cent of the time, minutes at a time, and getrusage
// does not count it, so cpu_ms_per_cell needs no such care. The share left
// out is stamped as steal_frac. Every workload is a closed loop: the next
// sweep starts when the last has delivered.
// dispatch-warm's store restore before each sweep is the benchmark's own
// file work, synced before the sweep starts, so counter snapshots around
// it leave it out of every total.
//
// With --trace 1 the window is split: an untraced half, then a traced half
// that records spans around perfbench's own calls into each layer (and
// runs on, up to three times its length, until it holds 200 cell samples).
// The per-layer metrics in metrics.go come from the traced half, from an
// exact counting pass over the workload's simulated cells, and from timed
// NewTestbed and Reset calls on its testbed shapes; each entry there names
// the end-to-end metric and workload it should move. Spans are written to
// .bench_build/perfbench/trace-<workload>-<seed>.json. trace.overhead_frac
// compares the two halves' cells_per_s.
//
// # Correctness
//
// Every timed sweep's per-cell (or, for figures, per-experiment) output
// digests must equal the warm-up sweep's; at plan seed 2002 the warm-up
// digest
// must also equal the one committed in testdata/digests.json; and every
// dispatch-warm sweep's merged output must equal a single-process
// Runner.Run of the same plan. Errored or mismatched cells count as
// failed. A seed whose plan holds a cell the program cannot complete (under
// SeedPerCell, one scenario-matrix seed in forty made lossy-wifi lose a
// whole data flow) is replaced during set-up by the next seed, and the
// result stamps the seed that ran as plan_seed. Only dispatch-warm's plan
// follows --seed.
package main
