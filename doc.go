// Package turbulence reproduces "MediaPlayer versus RealPlayer — A
// Comparison of Network Turbulence" (Li, Claypool, Kinicki; WPI 2002) as a
// runnable system: a deterministic discrete-event network testbed,
// behavioural models of the two 2002 commercial streaming stacks, the
// paper's measurement tools (MediaTracker, RealTracker, a packet sniffer,
// ping and tracert), the turbulence analysis that produces every table and
// figure of the evaluation, and the Section IV synthetic flow generator.
//
// # Quick start
//
// A single experiment is RunPair (or Runner.RunPair, under a Runner's
// options); everything larger is a Plan executed by a Runner. A Plan declares a run space — clip pairs × netem scenarios ×
// ablation variants, plus a seed policy — without executing anything;
// NewPlan(seed) alone declares the paper's full 13-pair sweep:
//
//	results, err := turbulence.NewRunner(turbulence.WithWorkers(0)).
//		Run(turbulence.NewPlan(2002))
//	if err != nil { ... }
//	for _, res := range results {
//		fmt.Println(res.Key, res.Comparison.WMP, res.Comparison.Real)
//	}
//
// The Runner's functional options compose: WithWorkers(n) fans cells out
// across a pool (0 = all cores), WithContext(ctx) makes the sweep
// cancellable (checked between simulation events, so ctrl-C lands
// mid-run), WithProgress(fn) observes each completion, and
// WithTraceRetention selects what each completed run keeps. Run is the
// one sweep call: it returns every completed cell in canonical order,
// and WithProgress reports each one as it completes:
//
//	plan := turbulence.NewPlan(2002).UnderScenarios(turbulence.Scenarios()...)
//	r := turbulence.NewRunner(turbulence.WithWorkers(0),
//		turbulence.WithTraceRetention(turbulence.StreamProfiles))
//	results, err := r.Run(plan)
//	if err != nil { ... }
//	for _, res := range results {
//		fmt.Println(res.Key, res.Comparison.WMP.AvgRateBps)
//	}
//
// # Trace retention
//
// Every completed cell carries its profiles in RunResult.Comparison,
// whatever it retains: each captured packet streams through online
// per-flow analyzers (capture.FlowDemux routing to capture.FlowMetrics).
// The online profiles are exactly equal to trace-derived ones —
// ProfileFlow replays stored flows through the same accumulator — pinned
// across all pairs, scenarios and worker counts by test. Three
// retentions decide what a cell keeps besides, one per use, each fixed
// by its caller; no flag or setting chooses among them. RetainTraces
// (the Runner default), for one-off captures, keeps every run's full
// packet capture, payload bytes included — what cmd/ethereal writes and
// what the determinism pins compare. The experiments harness keeps
// figure flows: its cached Table 1 runs and its one-off ablation and
// extension runs keep only the two media data flows, payload-free,
// built at capture time — arrival times, wire sizes and fragment fields,
// all any figure reduces — pinned record for record to the whole
// capture's flow views. StreamProfiles, for sweeps (and the experiments'
// scenario matrix), never stores records at all, so a run's capture
// state is a few KB of accumulators.
//
// Every run is seeded: identical plans produce byte-identical traces, for
// any worker count, and each cell equals the one-off Runner.RunPair at
// the cell's seed and options.
//
// # Sharding
//
// Plan.Shard(i, n) carves the i-th of n deterministic slices of the cell
// space, so a huge matrix fans out across processes or machines with no
// coordination beyond the (plan, i, n) triple; MergeRuns recombines the
// shard outputs into exactly the unsharded result:
//
//	merged := turbulence.MergeRuns(shard0, shard1, shard2)
//
// cmd/turbulence exposes the same idea as -shard i/n. For shards in
// separate processes, WireRuns flattens results to identity + seed +
// profiles, EncodeRunsGob/EncodeRunsJSON put them on a wire, and
// MergeWireRuns reassembles shipped batches into canonical plan order —
// with StreamProfiles retention that loop never materialises a trace
// anywhere. PERFORMANCE.md documents the recipe end to end.
//
// # Shard dispatcher
//
// Static sharding tells every worker its slice up front; the dispatcher
// (internal/dispatch; facade Serve, Work, NewCoordinator) inverts that
// into a pull model for fleets of unequal, unreliable machines. Serve
// runs a coordinator holding the one unsharded Plan as a lease-based
// shard queue over HTTP: workers pull a lease (shard coordinates plus
// the PlanSpec, scenarios by name), run the slice under StreamProfiles
// retention, and ship the gob-encoded results home with retry/backoff. A
// dead worker's lease expires and its shard is re-issued; duplicate and
// late completions are absorbed idempotently; envelopes carry a wire
// version so mixed clusters fail loudly. The collector merges arriving
// batches into canonical order, byte-identical to a single-process
// Runner.Run — pinned by TestDispatchedSweepMatchesUnsharded (workers
// die mid-lease and the output does not change) and re-proven over real
// sockets by the CI dispatch-smoke job against a committed golden
// digest. cmd/turbulence exposes both halves as -serve and -work, with
// graceful ctrl-C drain on each; DispatchLoopback runs the identical
// wire path in-process for tests and demos (examples/dispatch).
//
// The dispatcher is fault-hardened end to end. Workers heartbeat their
// lease (POST /renew) while a shard simulates, so LeaseTTL can sit far
// below a slow shard's runtime without double-running it; a rejected
// renewal means the lease is gone and the worker aborts the orphaned
// shard mid-event instead of shipping a late duplicate. With
// WithDispatchCheckpoint the coordinator journals every completed shard
// (checksummed gob frames, fsync'd per append) and a crashed coordinator
// is rebuilt with ResumeCoordinator — or by re-running -serve -checkpoint
// on the same path — replaying the journal and re-leasing only the
// unfinished shards; a journal for a different sweep is refused by plan
// digest, a corrupt frame refuses the resume, and a checkpoint written by
// an older build, before frames carried checksums, is refused.
// Clients retry transient failures with jittered exponential backoff
// under a MaxAttempts and WithDispatchRetryBudget budget, workers drain
// rather than crash when the coordinator is unreachable, and a shard
// that keeps striking out (lease expiries, undecodable or rejected
// batches) is quarantined after WithMaxShardFailures strikes — parked
// and reported in /status and the sweep error — instead of wedging the
// queue. The crash-recovery recipe:
//
//	$ turbulence -serve :8080 -seed 2002 -checkpoint sweep.ckpt
//	...coordinator dies mid-sweep (SIGKILL, OOM, power)...
//	$ turbulence -serve :8080 -seed 2002 -checkpoint sweep.ckpt
//	# resumes: replays the journal, re-leases only unfinished shards;
//	# output identical to an uninterrupted run
//
// All of it is proven by a chaos harness (internal/dispatch/chaos): a
// seeded fault-injecting transport — dropped and truncated requests,
// duplicated deliveries, lost acks, truncated and reset response bodies,
// latency — through which the end-to-end tests run entire sweeps,
// killing the coordinator mid-sweep and resuming from its checkpoint,
// and still pin the merged output byte-identical to the unsharded run.
//
// # Incremental sweeps
//
// Sweeps overlap: a new scenario axis, one more pair, a rerun after an
// analysis-only change. The result store (internal/resultstore; facade
// OpenResultStore, WithResultStore, WithDispatchResultStore) makes the
// overlap free by content-addressing every completed cell: the key is
// the sha256 of what determines its output — pair, scenario, effective
// options, seed, engine generation — never the plan's labels or cell
// index, so any plan that contains an equivalent cell hits, whatever
// shape the sweep around it takes. Entries are appended to a single
// file as length-prefixed, checksummed frames, each one fixed-width
// binary record, behind a header naming the store format and the wire
// and engine generations; a torn or corrupt tail is counted, logged,
// truncated and re-simulated — corruption is always a miss, never data
// — and a store in another format (the older gob frames included) or
// from a different wire or engine generation is refused at open.
//
// A Runner with WithResultStore serves cached cells without building a
// testbed and inserts fresh ones on the way out; merged output stays
// byte-identical to a storeless run (TestCachedSweepMatchesFresh pins a
// warm rerun at zero simulations, every pool shape). The dispatcher
// consults its store once, at plan-carve time: fully-cached shards
// complete without ever being leased, partially-cached shards ship the
// cached cell indexes in the lease grant (LeaseGrant.CachedCells) so
// workers simulate only the rest, and fresh results are inserted as
// shards commit. The warm-rerun recipe:
//
//	$ turbulence -serve :8080 -seed 2002 -result-store sweep.cache
//	...add pairs or scenarios, rerun...
//	$ turbulence -serve :8080 -seed 2002 -pairs ... -result-store sweep.cache
//	# overlapping cells served from the store (cache_hits on /metrics),
//	# only the new cells simulate; output identical to a cold sweep
//
// Cache traffic is metered as
// turbulence_cache_{hits,misses,bytes,corrupt_frames}_total wherever a
// registry is attached. The CI cache-smoke job pins the whole story over
// real sockets: a warm superset rerun must report every
// previously-computed cell as a hit, simulate only the new ones, merge to
// the committed golden digest, and recompute — not serve — a deliberately
// torn store frame.
//
// # Observability
//
// internal/obs is a dependency-free metrics layer rendered in Prometheus
// text exposition format: atomic counters and gauges, fixed-bucket
// histograms, and a Registry whose Handler serves them as /metrics. The
// hot-path operations (Counter.Inc, Gauge.SetMax, Histogram.Observe, a
// cached vector child) allocate nothing — pinned by TestHotPathAllocFree
// and by the capture tap's steady-state alloc test running with a live
// meter attached — so instrumentation never perturbs the simulation it
// measures. Rendering uses strconv, never fmt (make check enforces it).
//
// The coordinator instruments its whole lease lifecycle: counters for
// every transition (granted, renewed, completed, expired, rejected,
// lost, strikes, quarantines), scrape-time gauges over the queue, fsync
// latency histograms from the checkpoint journal, and per-worker
// throughput series fed by WorkerStats snapshots that workers
// self-measure and ship with each completion (an optional, versioned
// JSON header — old coordinators ignore it, old workers simply send
// none). Because the registry's scrape lock is the coordinator's own
// mutex, every scrape is one consistent snapshot in which the ledger
//
//	granted == active + delivering + completed + expired + rejected + lost
//
// balances exactly (TestMetricsEndToEnd scrapes a live sweep to prove
// it). GET /events serves the shard-lifecycle trace — a fixed ring of
// timestamped lease/renew/complete/expire/reject/quarantine events with
// lease IDs and worker names — and WithDispatchPprof mounts
// net/http/pprof on the same mux. GET /status reports per-shard strike
// counts and quarantine reasons alongside the queue counts.
//
// Local sweeps meter the same way: NewMetricsSink registers the sweep
// instruments (cell wall-time histogram, simulator event/timer counters,
// heap high-water, captured packet volume, netem drops by cause) on a
// registry, WithMetrics or ExperimentContext.SetMetrics installs it on
// the Runner, and cmd/turbulence -metrics addr serves the live meter
// while experiments regenerate. Progress callbacks carry each cell's
// start time and elapsed wall-clock for the same purpose. See
// PERFORMANCE.md for the scrape-and-read recipe.
//
// # Network scenarios
//
// The paper measured one testbed path under typical conditions; the netem
// layer generalises that into a streaming-under-impairment laboratory.
// Every hop of every site path accepts pluggable models — loss processes
// (Bernoulli, bursty Gilbert–Elliott), bandwidth profiles (constant, step
// schedules, sinusoids, replayed traces), delay jitter (uniform+spike,
// truncated normal), queue disciplines (DropTail, RED) and cross-traffic
// injectors (exponential and Pareto on/off, Poisson) that consume link
// capacity without materialising packets. A Scenario names a recipe of
// per-hop impairments ("lossy-wifi", "dsl", "cable", "congested-peering",
// "transatlantic", "brownout", "flash-crowd", "trace-wireless"; see
// ScenarioNames), and "paper-baseline" reproduces the faithful testbed
// byte for byte:
//
//	sc, _ := turbulence.FindScenario("lossy-wifi")
//	run, _ := turbulence.RunPair(2002, 1, turbulence.High,
//		turbulence.Options{Scenario: sc})
//	fmt.Println(run.Downlink) // model loss vs queue overflow vs AQM drops
//
// A Plan's UnderScenarios axis streams every clip pair under every
// scenario with common random numbers (the SeedCommon policy), so
// differences between scenario rows reflect the impairments, not sampling
// noise; cmd/turbulence regenerates the whole evaluation under a scenario
// via -scenario.
//
// # Live transport
//
// The protocol stacks (wms, rdt, tcplite) are written against the
// Transport seam, and a *Host or a *LiveTransport is the Transport. A
// simulated Host implements the seam itself, each method a one-line call
// into its network's scheduler, RNG or IP layer, so the simulated runs
// stay byte-identical, pinned by the golden-digest tests.
// LiveTransport carries the same stacks over real net.UDPConn sockets: a
// single run-loop goroutine owns a private event scheduler and all
// protocol state (the simulator's single-threaded discipline transplanted
// onto wall time), per-socket reader goroutines hand received datagrams
// to the loop in pooled frames, and the per-packet receive path allocates
// nothing (pinned by TestLiveDeliverAllocs). Per-socket counters
// (turbulence_transport_* series, labelled by port) expose sends,
// receives, drops, send errors, unbound arrivals and duplicate sequence
// numbers.
//
//	ip, _ := turbulence.ParseAddr("127.0.0.1")
//	lt, _ := turbulence.NewLiveTransport(turbulence.LiveTransportConfig{BindIP: ip})
//	defer lt.Close()
//	turbulence.ServeLive(lt, log.Printf) // WMS + RDT servers, full library
//
// A second process (or a second transport in the same one) plays a clip
// and gets the same report a simulated session produces — an online flow
// profile plus an order-independent payload digest that must equal the
// simulator's digest of the same clip on a lossless path:
//
//	rep, _ := turbulence.PlayLive(lt, serverAddr, clip, 2*time.Minute, nil)
//	fmt.Println(rep.Profile, rep.Digest)
//
// cmd/turbulence wires both ends: -listen starts the live server, -play
// streams one clip and prints the report, and scripts/live_smoke.sh
// gates in CI that a real localhost session's digest equals the committed
// simulator golden. See PERFORMANCE.md ("Serving real traffic") for the
// recipe and caveats.
//
// # Testbed reuse
//
// A Runner does not rebuild the apparatus per cell: each worker owns a
// testbed cache holding one testbed per shape, built bare on the shape's
// first cell and armed for every cell, that one included, by
// Testbed.Reset(seed). Every layer a cell touches — the event scheduler,
// netsim's hosts and hops, netem model state, the protocol stacks,
// capture — arms its per-run state only in its Reset, which its
// constructor ends in, so a built testbed and a reused one are the same
// state and reuse reallocates nothing. The caches are retained on the
// Runner across Run/RunPair calls, so repeated sweeps start warm, and
// a dispatch worker keeps one Runner for its life, so its testbeds
// outlive each lease. Output is byte-identical either way (pinned by
// test, along with the golden digests). Every cell's scheduler is the
// same 4-ary heap. BENCH_heap.json records the paper's
// full 13-pair online sweep in this configuration at one and two cores;
// PERFORMANCE.md ("Testbed reuse & the timing wheel") has the history,
// and WithSweepStats or a metrics sink exposes the economy (testbeds
// built vs reused) per sweep.
//
// # Concurrency model
//
// Each simulation run is strictly single-threaded: one Scheduler owns one
// testbed, and all model code executes inside event callbacks on that
// scheduler's goroutine, which is what makes runs deterministic.
// Parallelism lives one level up — the cells of a Plan are independent
// (different seeds, private testbeds, no shared mutable state) and fan out
// across the Runner's worker pool. Because every cell is seeded by
// Plan.Seed (SeedFor under the default policy) regardless of which worker
// executes it, parallel output is byte-identical to sequential output;
// only wall-clock time changes. Cancellation is cooperative: the Runner's
// context is polled between runs and, via the scheduler's interrupt seam,
// between events inside a run, so a cancelled sweep stops promptly and
// delivers only completed runs. An experiment Context is a thin cache over
// the same Runner (SetParallel, SetCancel, SetProgress).
//
// # Layout
//
// The facade re-exports the pieces most programs need. The full substrate
// lives under internal/: eventsim (discrete-event engine), stats, inet
// (IPv4/UDP codecs + fragmentation), netem (impairment models + scenario
// library), netsim (links, hops, hosts), capture (sniffer, trace files,
// display filters), media (Table 1 clip library), wms and rdt (the two
// player stacks), tracker (instrumented players), probe (ping/tracert),
// core (testbed + analysis + generator + the Plan/Runner engine), and
// experiments (one generator per paper table/figure).
package turbulence
