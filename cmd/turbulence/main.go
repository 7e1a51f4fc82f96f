// Command turbulence regenerates the paper's tables and figures from the
// simulated testbed.
//
// Usage:
//
//	turbulence [-seed N] [-experiment id] [-parallel N] [-scenario name]
//	           [-shard i/n] [-progress] [-metrics addr] [-pprof]
//	           [-json] [-csv dir] [-points] [-list] [-list-scenarios]
//	turbulence -serve addr [-seed N] [-pairs list] [-scenario name]
//	           [-serve-shards N] [-lease-ttl d] [-checkpoint file] [-pprof]
//	           [-result-store dir]
//	turbulence -work addr [-parallel N] [-result-store dir]
//	turbulence -listen ip [-seed N] [-metrics addr] [-pprof]
//	turbulence -play ip [-bind ip] [-clip set/class] [-seed N]
//	           [-live-timeout d] [-metrics addr]
//
// With no -experiment it runs everything, printing each artifact's rows,
// series summaries and headline notes. -points includes full series data
// (suitable for piping into a plotting tool); -json emits the same
// artifacts as one machine-readable JSON array (rows, series, notes)
// instead of text. -parallel fans independent pair runs out across a
// worker pool (0, the default, uses every core); output is byte-identical
// to -parallel 1, just faster.
//
// -scenario streams every Table 1 pair run under a named netem scenario
// (bursty loss, time-varying bandwidth, AQM, cross traffic), regenerating
// the whole evaluation as a what-if under impaired network conditions;
// -list-scenarios enumerates the library. Identical seed and scenario
// reproduce identical output at any -parallel setting.
//
// Every pair run an experiment makes keeps its two media flows without
// payload bytes — arrival times, sizes and fragment fields, all the
// figures reduce — and the scenario-matrix extension streams its cells
// through online analyzers.
//
// -shard i/n deterministically carves the experiment list into n strided
// slices and runs only the i-th (0-based), so n processes or machines
// regenerate the full evaluation in parallel with no coordination:
//
//	turbulence -shard 0/3 & turbulence -shard 1/3 & turbulence -shard 2/3
//
// Every result carries its scenario, seed and shard in the -json output,
// so merged shard outputs are self-describing.
//
// -progress reports each completed pair run on stderr while experiments
// regenerate. Interrupting (ctrl-C) cancels in-flight simulation promptly
// — mid-run, between events — and exits after the current bookkeeping.
//
// -metrics addr serves a live Prometheus meter of the local sweep on
// http://addr/metrics while experiments regenerate: cells completed and
// their wall-time histogram, simulator event and timer counters, captured
// packet volume, and netem drops by cause. It does not combine with
// -serve or -work (the coordinator serves its own /metrics; workers
// report through it). -pprof additionally mounts net/http/pprof under
// /debug/pprof/ on that server — or, with -serve, on the coordinator's
// mux — and is off by default because profiling endpoints expose
// internals and cost CPU when scraped.
//
// -serve and -work are the distributed counterpart of -shard: instead of
// telling each process its slice up front, a coordinator (-serve) holds
// the whole pair sweep as a lease-based shard queue and workers (-work,
// any number, joining and leaving freely) pull shards, run them under
// streaming retention, and ship the results back. Dead workers' leases
// expire and their shards are re-issued, and the merged output — printed
// as one JSON array of wire runs on the coordinator's stdout — is
// byte-identical to the unsharded run. -pairs narrows the served sweep to
// listed set/class pairs ("1/low,3/l,6/very-high"), -serve-shards sets the
// lease granularity, -lease-ttl the dead-worker timeout. Ctrl-C drains
// gracefully on both sides: the coordinator stops issuing leases and
// reports what completed; a worker finishes and ships its current shard
// first (a second ctrl-C aborts the simulation mid-run). -serve and -work
// are mutually exclusive, and neither combines with -experiment or
// -shard.
//
// -listen and -play run the protocol stacks over real UDP sockets instead
// of the simulator — the same wms/rdt code, carried by a live transport.
// -listen ip binds the servers (WMS on 1755, RDT control on 554 — the
// latter is privileged and reported unavailable without rights) and
// serves the full Table 1 clip library until interrupted; -play ip
// streams -clip from such a server, feeds the received flow through the
// same online analyzers the simulator uses, and prints the session
// report: a turbulence profile directly comparable to the simulated WMP
// column, and an order-independent payload digest that, over a lossless
// path (localhost loopback), equals the digest of the simulated run of
// the same clip. -metrics on either side additionally exposes the
// transport's per-socket counters (sent/received/dropped packets, send
// errors, duplicate sequences) on /metrics. Neither mode combines with
// -serve, -work, -experiment or -shard.
//
// -checkpoint file journals every completed shard to file (checksummed
// gob frames, fsync'd per append), making the coordinator crash-safe:
// re-running the same -serve command — same seed, pairs and scenario —
// with the same -checkpoint path replays the journal and re-leases only
// the unfinished shards, and the final output is byte-identical to an
// uninterrupted sweep. Workers
// renew their leases with a heartbeat while a shard simulates, so a slow
// shard is never double-run; only a worker that actually dies forfeits
// its lease. A checkpoint written for a different sweep is refused rather
// than mixed in, as is one with a corrupt frame or one written by an older
// build, before frames carried checksums.
//
// -result-store dir makes dispatched sweeps incremental: completed cell
// results are appended to a content-addressed store in dir — keyed by a
// digest over pair, scenario, variant, seed and engine version — and a
// later sweep whose cells match is served from the store without
// simulating them, byte-identical to a fresh run. It has exactly two
// meanings. On -serve it is the coordinator's store: the coordinator
// consults it when it carves the plan (fully-cached shards are never
// leased; partially-cached shards tell workers which cells to skip) and
// inserts what workers ship back. On -work it is the worker's
// read-through cache. A -serve and a -work may share one directory. It
// needs -serve or -work: experiments reduce full player reports and packet
// flows the store does not hold, so a plain sweep has no use for it. A
// corrupted store frame is detected by checksum, counted on /metrics
// (turbulence_cache_corrupt_frames_total) and recomputed — never served.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"turbulence"
)

func main() {
	seed := flag.Int64("seed", 2002, "base random seed (runs are deterministic per seed)")
	experiment := flag.String("experiment", "", "run a single experiment id (default: all)")
	parallel := flag.Int("parallel", 0, "worker pool size for independent pair runs (1 = sequential, 0 = all cores); results are identical either way")
	scenario := flag.String("scenario", "", "stream the pair runs under a named netem scenario (see -list-scenarios)")
	shard := flag.String("shard", "", "run the i-th of n strided slices of the experiment list, as \"i/n\" (0-based); all shards together reproduce the full run")
	progress := flag.Bool("progress", false, "report each completed pair run on stderr")
	jsonOut := flag.Bool("json", false, "emit results as one machine-readable JSON array on stdout instead of text")
	list := flag.Bool("list", false, "list experiment ids and exit")
	listScenarios := flag.Bool("list-scenarios", false, "list netem scenario names and exit")
	points := flag.Bool("points", false, "print full series point data")
	csvDir := flag.String("csv", "", "also write each experiment's series/rows as CSV files into this directory")
	serve := flag.String("serve", "", "run a shard-dispatch coordinator on this address (host:port): workers pull shard leases of the pair sweep (-seed, -pairs, -scenario) and the merged wire runs print as JSON on stdout")
	work := flag.String("work", "", "run a shard-dispatch worker against a coordinator at this address (host:port or http://host:port)")
	pairsSpec := flag.String("pairs", "", "comma-separated clip pairs as set/class for the -serve sweep, e.g. \"1/low,3/l,6/very-high\" (default: all 13 Table 1 pairs)")
	serveShards := flag.Int("serve-shards", 0, "-serve lease granularity: how many shard slices the plan is carved into (0 = one per cell, capped at 256)")
	leaseTTL := flag.Duration("lease-ttl", 2*time.Minute, "-serve: how long a leased shard may stay unrenewed before it is re-issued to another worker (workers heartbeat while simulating)")
	checkpoint := flag.String("checkpoint", "", "-serve: journal completed shards to this file as checksummed gob frames; re-running with the same sweep flags and path resumes, re-leasing only unfinished shards (a checkpoint from an older build is refused)")
	resultStore := flag.String("result-store", "", "content-addressed result store directory: with -serve the coordinator's store, with -work the worker's read-through cache; completed cells are appended and later sweeps serve matching cells from it without simulating")
	metricsAddr := flag.String("metrics", "", "serve a live Prometheus meter of the local sweep on this address (host:port) at /metrics; the -serve coordinator has its own /metrics and does not combine with this")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the -metrics server or the -serve coordinator (off by default: profiling endpoints expose internals and cost CPU when scraped)")
	listen := flag.String("listen", "", "serve the streaming protocol stacks over real UDP sockets bound to this IPv4 address (e.g. 127.0.0.1); -metrics adds the per-socket transport counters")
	play := flag.String("play", "", "stream a clip over real UDP from a live server at this IPv4 address and print the session report")
	bindIP := flag.String("bind", "127.0.0.1", "-play: local IPv4 address the client binds its sockets to")
	clipSpec := flag.String("clip", "2/low", "-play: clip to stream, as set/class (e.g. 2/low, 6/very-high)")
	liveTimeout := flag.Duration("live-timeout", 5*time.Minute, "-play: abort if the session has not completed in this long")
	flag.Parse()

	if err := modeConflicts(*serve, *work, *experiment, *shard, *pairsSpec, *scenario, *checkpoint, *metricsAddr, *pprofFlag, *listen, *play, *resultStore); err != nil {
		fmt.Fprintln(os.Stderr, "turbulence:", err)
		os.Exit(2)
	}

	if *list {
		for _, id := range turbulence.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	if *listScenarios {
		for _, sc := range turbulence.Scenarios() {
			fmt.Printf("%-18s %s\n", sc.Name, sc.Description)
		}
		return
	}

	if *listen != "" {
		os.Exit(runListen(*listen, *seed, *metricsAddr, *pprofFlag))
	}
	if *play != "" {
		os.Exit(runPlay(*play, *bindIP, *clipSpec, *seed, *metricsAddr, *pprofFlag, *liveTimeout))
	}
	if *serve != "" {
		os.Exit(runServe(*serve, *seed, *pairsSpec, *scenario, *serveShards, *leaseTTL, *checkpoint, *resultStore, *pprofFlag))
	}
	if *work != "" {
		os.Exit(runWork(*work, *parallel, *resultStore))
	}

	ids := turbulence.ExperimentIDs()
	if *experiment != "" {
		ids = []string{*experiment}
	}
	if *shard != "" {
		var err error
		if ids, err = shardIDs(ids, *shard); err != nil {
			fmt.Fprintln(os.Stderr, "turbulence:", err)
			os.Exit(2)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "turbulence:", err)
			os.Exit(1)
		}
	}

	// Ctrl-C cancels in-flight simulation cooperatively (checked between
	// simulation events); a second ctrl-C kills the process the hard way.
	// The handler must unregister after the first signal, or NotifyContext
	// would keep swallowing the later ones.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-sigCtx.Done()
		stop()
	}()

	ctx := turbulence.NewExperimentContext(*seed).SetParallel(*parallel).SetCancel(sigCtx)
	if *progress {
		ctx.SetProgress(func(p turbulence.Progress) {
			status := "ok"
			if p.Err != nil {
				status = "error: " + p.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "turbulence: run %d/%d %s %s (%s)\n", p.Done, p.Total, p.Key, status, p.Elapsed.Round(time.Millisecond))
		})
	}
	if *metricsAddr != "" {
		reg := turbulence.NewMetricsRegistry()
		ctx.SetMetrics(turbulence.NewMetricsSink(reg))
		if err := serveMetrics(*metricsAddr, reg, *pprofFlag); err != nil {
			fmt.Fprintln(os.Stderr, "turbulence:", err)
			os.Exit(1)
		}
	}
	if *scenario != "" {
		sc, err := turbulence.FindScenario(*scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, "turbulence:", err)
			os.Exit(1)
		}
		ctx.SetScenario(sc)
	}
	collected := []*turbulence.Result{} // non-nil: -json promises an array, never null
	for _, id := range ids {
		// An interrupt that landed during a cache-hit experiment (no
		// Runner call to surface it) must still stop the sweep.
		if sigCtx.Err() != nil {
			fmt.Fprintln(os.Stderr, "turbulence: interrupted")
			os.Exit(130)
		}
		res, err := turbulence.RunExperiment(ctx, id)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "turbulence: interrupted")
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "turbulence: %s: %v\n", id, err)
			os.Exit(1)
		}
		res.Shard = *shard
		if *jsonOut {
			collected = append(collected, res)
		} else {
			print_(res, *points)
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, res); err != nil {
				fmt.Fprintf(os.Stderr, "turbulence: %s: %v\n", id, err)
				os.Exit(1)
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(collected); err != nil {
			fmt.Fprintln(os.Stderr, "turbulence:", err)
			os.Exit(1)
		}
	}
}

// runServe is the -serve mode: coordinate a lease-based shard queue for
// the pair sweep over HTTP, merge what workers ship back, and print the
// canonical-order wire runs as one JSON array on stdout. Ctrl-C drains —
// no further leases are issued, workers wind down, and whatever completed
// still prints. With -checkpoint, completions are journalled and a
// re-run on the same path resumes the sweep instead of restarting it.
func runServe(addr string, seed int64, pairsSpec, scenario string, shards int, ttl time.Duration, checkpoint, storeDir string, pprof bool) int {
	keys, err := parsePairs(pairsSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "turbulence:", err)
		return 2
	}
	plan := turbulence.NewPlan(seed)
	if keys != nil {
		plan.ForPairs(keys...)
	}
	if scenario != "" {
		sc, err := turbulence.FindScenario(scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, "turbulence:", err)
			return 1
		}
		plan.UnderScenarios(sc)
	}
	opts := []turbulence.DispatchOption{
		turbulence.WithDispatchShards(shards),
		turbulence.WithLeaseTTL(ttl),
		turbulence.WithDispatchCheckpoint(checkpoint),
		turbulence.WithDispatchPprof(pprof),
		turbulence.WithDispatchLogf(logf),
	}
	if storeDir != "" {
		st, err := turbulence.OpenResultStore(storeDir, logf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "turbulence:", err)
			return 1
		}
		defer st.Close()
		opts = append(opts, turbulence.WithDispatchResultStore(st))
	}
	// The first ctrl-C drains; unregistering then lets a second one kill
	// the process the hard way (NotifyContext would keep swallowing it).
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-sigCtx.Done()
		stop()
	}()
	runs, err := turbulence.Serve(sigCtx, addr, plan, opts...)
	// Whatever was collected prints — a failed or interrupted sweep must
	// not discard the cells workers already shipped.
	if runs == nil {
		runs = []turbulence.WireRun{} // the output promises an array, never null
	}
	if encErr := turbulence.EncodeRunsJSON(os.Stdout, runs); encErr != nil {
		fmt.Fprintln(os.Stderr, "turbulence:", encErr)
		return 1
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "turbulence: interrupted; %d of %d cells completed\n", len(runs), plan.Size())
		return 130
	default:
		fmt.Fprintln(os.Stderr, "turbulence:", err)
		return 1
	}
}

// runWork is the -work mode: pull shard leases from a coordinator, run
// each with a Runner under streaming retention, ship the results back.
// The first ctrl-C drains (the current shard finishes and ships); a
// second aborts the in-flight simulation and abandons the lease to
// expiry.
func runWork(addr string, parallel int, storeDir string) int {
	drainCtx, drain := context.WithCancel(context.Background())
	hardCtx, abort := context.WithCancel(context.Background())
	defer drain()
	defer abort()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt)
	defer signal.Stop(sigs)
	go func() {
		<-sigs
		logf("turbulence: draining — finishing the current shard (ctrl-C again to abort it)")
		drain()
		<-sigs
		abort()
	}()
	name, _ := os.Hostname()
	if name == "" {
		name = "worker"
	}
	opts := []turbulence.DispatchOption{
		turbulence.WithWorkerName(fmt.Sprintf("%s-%d", name, os.Getpid())),
		turbulence.WithRunWorkers(parallel),
		turbulence.WithRunContext(hardCtx),
		turbulence.WithDispatchLogf(logf),
	}
	if storeDir != "" {
		st, err := turbulence.OpenResultStore(storeDir, logf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "turbulence:", err)
			return 1
		}
		defer st.Close()
		opts = append(opts, turbulence.WithDispatchResultStore(st))
	}
	done, err := turbulence.Work(drainCtx, addr, opts...)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "turbulence: aborted after %d shards\n", done)
			return 130
		}
		fmt.Fprintln(os.Stderr, "turbulence:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "turbulence: worker done, %d shards completed\n", done)
	return 0
}

// logf is the dispatcher's operational log line on stderr (stdout stays
// reserved for the JSON results).
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// serveMetrics starts the -metrics HTTP server in the background: the
// registry at /metrics, plus pprof under /debug/pprof/ when asked. The
// server lives exactly as long as the process — a sweep meter has nothing
// to shut down gracefully — so errors after a successful bind only log.
func serveMetrics(addr string, reg *turbulence.MetricsRegistry, pprof bool) error {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	if pprof {
		mux.HandleFunc("GET /debug/pprof/", netpprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-metrics %s: %w", addr, err)
	}
	logf("turbulence: metrics on http://%s/metrics", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			logf("turbulence: metrics server: %v", err)
		}
	}()
	return nil
}

// modeConflicts enforces the mode mutual-exclusion rules. -serve/-work:
// the two modes exclude each other; both are whole-sweep services, so the
// single-process slicing flags (-experiment, -shard) conflict with
// either; a worker's plan arrives in its lease grants, so the
// plan-shaping flags (-pairs, -scenario) conflict with -work; the
// checkpoint journal is coordinator state, so -checkpoint requires
// -serve; -metrics is the local sweep's meter (the coordinator serves
// its own /metrics); and -pprof needs a server to mount on. -listen/-play
// are the live-transport modes: one process is either the live server or
// the live client, and neither is a simulation sweep, so they exclude
// each other and every sweep mode (-serve, -work, -experiment, -shard) —
// but they do combine with -metrics, which then exposes the live
// transport's per-socket counters. -result-store caches per-cell
// comparison profiles, so it needs a mode that simulates cells (not
// -listen/-play).
func modeConflicts(serve, work, experiment, shard, pairs, scenario, checkpoint, metrics string, pprof bool, listen, play, resultStore string) error {
	switch {
	case listen != "" && play != "":
		return errors.New("-listen and -play are mutually exclusive (run the live server and client as separate processes)")
	case (listen != "" || play != "") && (serve != "" || work != ""):
		return errors.New("-listen/-play do not combine with -serve/-work (live transport serves real traffic; the dispatcher serves simulation shards)")
	case (listen != "" || play != "") && experiment != "":
		return errors.New("-experiment does not combine with -listen/-play (live modes stream real traffic, not simulated experiments)")
	case (listen != "" || play != "") && shard != "":
		return errors.New("-shard does not combine with -listen/-play (there is no experiment list to slice in a live session)")
	case metrics != "" && (serve != "" || work != ""):
		return errors.New("-metrics does not combine with -serve/-work (the coordinator serves its own /metrics; workers report through it)")
	case pprof && metrics == "" && serve == "":
		return errors.New("-pprof requires -metrics or -serve (it mounts on their HTTP server)")
	case serve != "" && work != "":
		return errors.New("-serve and -work are mutually exclusive")
	case (serve != "" || work != "") && experiment != "":
		return errors.New("-experiment does not combine with -serve/-work (the dispatched sweep is the pair matrix, not one experiment)")
	case (serve != "" || work != "") && shard != "":
		return errors.New("-shard does not combine with -serve/-work (the coordinator shards dynamically via leases)")
	case work != "" && pairs != "":
		return errors.New("-pairs does not combine with -work (the plan arrives in lease grants; set it on -serve)")
	case work != "" && scenario != "":
		return errors.New("-scenario does not combine with -work (the plan arrives in lease grants; set it on -serve)")
	case checkpoint != "" && serve == "":
		return errors.New("-checkpoint requires -serve (the journal is coordinator state; workers are stateless)")
	case resultStore != "" && serve == "" && work == "":
		return errors.New("-result-store requires -serve or -work (it is the coordinator's store or the worker's cache; experiments reduce full runs the store does not hold)")
	}
	return nil
}

// parsePairs parses the -pairs spec: comma-separated set/class, class by
// name or Table 1 suffix. Empty means the default (all pairs, returned as
// nil). The whole spec must parse — a typo fails loudly instead of
// silently shrinking the sweep.
func parsePairs(spec string) ([]turbulence.PairKey, error) {
	if spec == "" {
		return nil, nil
	}
	var out []turbulence.PairKey
	for _, field := range strings.Split(spec, ",") {
		ss, cs, ok := strings.Cut(field, "/")
		set, err := strconv.Atoi(ss)
		class, cok := turbulence.ParseClass(cs)
		if !ok || err != nil || !cok || set <= 0 {
			return nil, fmt.Errorf("bad -pairs entry %q (want set/class, e.g. 1/low or 3/l)", field)
		}
		out = append(out, turbulence.PairKey{Set: set, Class: class})
	}
	return out, nil
}

// shardIDs parses "i/n" and returns the strided slice {ids[j] : j%n == i},
// mirroring Plan.Shard so the sharding story is one idea at both layers.
func shardIDs(ids []string, spec string) ([]string, error) {
	// strconv, not Sscanf: the whole spec must parse, so a typo like
	// "1/34x" is rejected instead of silently running shard 1/3.
	is, ns, ok := strings.Cut(spec, "/")
	i, err1 := strconv.Atoi(is)
	n, err2 := strconv.Atoi(ns)
	if !ok || err1 != nil || err2 != nil || n <= 0 || i < 0 || i >= n {
		return nil, fmt.Errorf("bad -shard %q (want \"i/n\" with 0 <= i < n)", spec)
	}
	var out []string
	for j, id := range ids {
		if j%n == i {
			out = append(out, id)
		}
	}
	return out, nil
}

// writeCSV emits one file per experiment: table rows first (if any), then
// each series as x,y pairs under a "# series <name>" banner — trivially
// splittable for gnuplot or a spreadsheet.
func writeCSV(dir string, res *turbulence.Result) error {
	f, err := os.Create(dir + "/" + res.ID + ".csv")
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# %s: %s\n", res.ID, res.Title)
	if len(res.Columns) > 0 {
		fmt.Fprintln(f, strings.Join(res.Columns, ","))
		for _, row := range res.Rows {
			fmt.Fprintln(f, strings.Join(row, ","))
		}
	}
	for _, s := range res.Series {
		fmt.Fprintf(f, "# series %s\n", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(f, "%g,%g\n", p.X, p.Y)
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(f, "# note: %s\n", n)
	}
	return nil
}

func print_(res *turbulence.Result, points bool) {
	if points {
		fmt.Print(res.String())
		fmt.Println()
		return
	}
	// Compact view: table rows and notes, series summarised.
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", res.ID, res.Title)
	if len(res.Columns) > 0 {
		fmt.Fprintf(&b, "%s\n", strings.Join(res.Columns, " | "))
		for _, row := range res.Rows {
			fmt.Fprintf(&b, "%s\n", strings.Join(row, " | "))
		}
	}
	for _, s := range res.Series {
		if len(s.Points) == 0 {
			fmt.Fprintf(&b, "series %-40s  (empty)\n", s.Name)
			continue
		}
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		fmt.Fprintf(&b, "series %-40s  %d points, x:[%.3g..%.3g] y:[%s..%s]\n",
			s.Name, len(s.Points), first.X, last.X, minY(s.Points), maxY(s.Points))
	}
	for _, n := range res.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	b.WriteString("\n")
	fmt.Print(b.String())
}

// minY and maxY summarise a series' y-range for the compact view. An empty
// series — or one holding nothing but NaNs — has no extrema; rendering
// "n/a" beats the ±Inf (or a panic on pts[0]) the naive fold produces.
func minY(pts []turbulence.Point) string {
	m := math.Inf(1)
	for _, p := range pts {
		if p.Y < m {
			m = p.Y
		}
	}
	if math.IsInf(m, 1) {
		return "n/a"
	}
	return fmt.Sprintf("%.3g", m)
}

func maxY(pts []turbulence.Point) string {
	m := math.Inf(-1)
	for _, p := range pts {
		if p.Y > m {
			m = p.Y
		}
	}
	if math.IsInf(m, -1) {
		return "n/a"
	}
	return fmt.Sprintf("%.3g", m)
}
