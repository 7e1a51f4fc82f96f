package turbulence

import (
	"context"
	"io"
	"time"

	"turbulence/internal/capture"
	"turbulence/internal/core"
	"turbulence/internal/dispatch"
	"turbulence/internal/eventsim"
	"turbulence/internal/experiments"
	"turbulence/internal/inet"
	"turbulence/internal/media"
	"turbulence/internal/netem"
	"turbulence/internal/netsim"
	"turbulence/internal/obs"
	"turbulence/internal/resultstore"
	"turbulence/internal/stats"
	"turbulence/internal/transport"
	"turbulence/internal/wire"
)

// Re-exported domain types. These aliases are the supported public
// surface; internal packages may evolve behind them.
type (
	// Clip is one encoded video clip from the Table 1 library.
	Clip = media.Clip
	// ClipSet is one Table 1 data set (same content, both formats).
	ClipSet = media.ClipSet
	// Format distinguishes RealVideo from Windows Media.
	Format = media.Format
	// Class is the advertised-rate grouping (low/high/very-high).
	Class = media.Class

	// PairRun is one paired streaming experiment's full result.
	PairRun = core.PairRun
	// Options selects ablation variants of the experiment.
	Options = core.Options
	// FlowProfile is the turbulence characterisation of one flow.
	FlowProfile = core.FlowProfile
	// FlowModel is the Section IV fitted synthetic-flow generator.
	FlowModel = core.FlowModel
	// Comparison pairs the two players' profiles for one run.
	Comparison = core.Comparison
	// SiteProfile describes one server site's network path.
	SiteProfile = core.SiteProfile
	// Testbed is the full simulated apparatus.
	Testbed = core.Testbed
	// PairKey identifies one pair experiment (set, class).
	PairKey = core.PairKey

	// Plan declares an experiment run space — clip pairs × scenarios ×
	// option variants plus a seed policy — without executing anything; it
	// can be sized, enumerated and sharded for free.
	Plan = core.Plan
	// Runner executes Plans, configured by functional options
	// (WithWorkers, WithContext, WithProgress, WithTraceRetention).
	Runner = core.Runner
	// RunnerOption configures a Runner at construction.
	RunnerOption = core.RunnerOption

	// SweepStats aggregates a sweep's testbed-economy counters; see
	// WithSweepStats.
	SweepStats = core.SweepStats
	// RunKey identifies one cell of a Plan's run space.
	RunKey = core.RunKey
	// RunResult is one executed Plan cell.
	RunResult = core.RunResult
	// Variant is one named point on a Plan's ablation axis.
	Variant = core.Variant
	// SeedPolicy selects how a Plan derives per-cell seeds.
	SeedPolicy = core.SeedPolicy
	// TraceRetention selects what a Runner keeps of each completed run.
	TraceRetention = core.TraceRetention
	// Progress is one Runner completion notification.
	Progress = core.Progress

	// Scenario is a named netem recipe of per-hop impairments (bursty
	// loss, time-varying bandwidth, AQM, cross traffic).
	Scenario = netem.Scenario
	// Impairment bundles netem model factories for one hop.
	Impairment = netem.Impairment
	// HopRole classifies a hop (access, backbone, bottleneck) for
	// scenario recipes.
	HopRole = netem.HopRole
	// LossModel, BandwidthProfile, DelayJitter, Queue and CrossTraffic
	// are the netem model interfaces, for custom scenarios.
	LossModel        = netem.LossModel
	BandwidthProfile = netem.BandwidthProfile
	DelayJitter      = netem.DelayJitter
	Queue            = netem.Queue
	CrossTraffic     = netem.CrossTraffic
	// PathStats is a path's drop breakdown (model loss vs queue overflow
	// vs AQM early drops vs TTL expiry).
	PathStats = netsim.PathStats

	// Trace is a packet capture; FlowTrace is one flow's slice of it.
	Trace = capture.Trace
	// FlowTrace is the per-flow view of a Trace.
	FlowTrace = capture.FlowTrace
	// Filter is a compiled display-filter expression.
	Filter = capture.Filter
	// Tap observes captured records online (zero-allocation, per packet).
	Tap = capture.Tap
	// FlowMetrics is the one-pass per-flow analyzer behind StreamProfiles.
	FlowMetrics = capture.FlowMetrics
	// FlowDemux routes captured records to per-flow analyzers online, with
	// the same fragment-train attribution SplitFlows applies to traces.
	FlowDemux = capture.FlowDemux
	// FlowStream is one flow being analysed online by a FlowDemux.
	FlowStream = capture.FlowStream

	// Point is one (x, y) sample of a series.
	Point = stats.Point

	// Result is a regenerated paper table/figure.
	Result = experiments.Result
	// ExperimentContext caches pair runs across experiments.
	ExperimentContext = experiments.Context

	// WireRun is the transport shape of one executed Plan cell: identity,
	// seed and turbulence profiles, no traces — what shard processes ship
	// home (gob or JSON) for a collector to merge.
	WireRun = wire.Run
	// PlanSpec is the transport shape of an unsharded Plan (scenarios by
	// name) — what a dispatch lease grant carries to workers.
	PlanSpec = wire.PlanSpec

	// Coordinator serves a Plan as a lease-based shard queue over HTTP
	// and collects the results (the -serve side of cmd/turbulence).
	Coordinator = dispatch.Coordinator
	// DispatchWorker pulls shard leases from a Coordinator, runs them
	// under StreamProfiles retention and ships the results home (the
	// -work side of cmd/turbulence).
	DispatchWorker = dispatch.Worker
	// DispatchClient speaks the coordinator's HTTP wire; it implements
	// the same Queue interface as the Coordinator itself.
	DispatchClient = dispatch.Client
	// DispatchOption adjusts dispatcher knobs (shards, lease TTL, retry,
	// per-shard run workers, logging).
	DispatchOption = dispatch.Option

	// ResultStore is the content-addressed, append-only on-disk cache of
	// completed cell results: cells are keyed by a digest over pair ×
	// scenario × variant × seed × engine version, so a rerun — local or
	// dispatched — serves matching cells from disk instead of simulating
	// them, and a corrupted frame is a recount-and-recompute, never data.
	ResultStore = resultstore.Store
	// ResultStoreStats is a ResultStore's counter snapshot (hits, misses,
	// bytes appended, corrupt frames dropped, resident entries).
	ResultStoreStats = resultstore.Stats

	// MetricsRegistry is a set of named metric series rendered in
	// Prometheus text exposition format (Handler serves it as /metrics).
	MetricsRegistry = obs.Registry
	// MetricsSink is the sweep-side instrument bundle a Runner feeds:
	// cell timing, simulator counters, capture volume, netem drops.
	MetricsSink = obs.Sink

	// RNG is the deterministic random stream used by generators.
	RNG = eventsim.RNG
	// SimTime is a timestamp on a transport's event clock: simulated
	// time in the simulator, wall time since start on a live transport.
	// LiveTransport.Do/DoWait callbacks receive it.
	SimTime = eventsim.Time

	// Host is one simulated endpoint of a netsim network, and itself a
	// Transport.
	Host = netsim.Host
	// Transport is the seam between the protocol stacks and the thing
	// that carries their packets: a *Host or a *LiveTransport is the
	// Transport (simulated hosts or real UDP sockets).
	Transport = transport.Transport
	// LiveTransport drives the protocol stacks over real net.UDPConn
	// sockets with a wall-clock event loop.
	LiveTransport = transport.Live
	// LiveTransportConfig parameterises a LiveTransport (bind IP, seed,
	// metrics registry, tunnel port).
	LiveTransportConfig = transport.Config
	// LiveServers are the protocol servers ServeLive attached to a live
	// transport.
	LiveServers = core.LiveServers
	// LiveReport is the outcome of one PlayLive client session.
	LiveReport = core.LiveReport

	// Flow identifies a unidirectional UDP flow.
	Flow = inet.Flow
	// Endpoint is an (address, port) pair.
	Endpoint = inet.Endpoint
	// Addr is an IPv4 address.
	Addr = inet.Addr
	// Port is a UDP port number.
	Port = inet.Port
)

// Format and class constants.
const (
	Real         = media.Real
	WindowsMedia = media.WindowsMedia
	Low          = media.Low
	High         = media.High
	VeryHigh     = media.VeryHigh
)

// Seed-policy and trace-retention constants for Plans and Runners.
const (
	// SeedCommon streams every scenario/variant cell of a pair under
	// common random numbers (the default policy).
	SeedCommon = core.SeedCommon
	// SeedPerCell gives every cell an independent random stream.
	SeedPerCell = core.SeedPerCell
	// RetainTraces keeps each run's full packet capture, payload bytes
	// included (the Runner default): what writing, filtering or comparing
	// whole captures needs. The experiments keep less (see
	// ExperimentContext).
	RetainTraces = core.RetainTraces
	// StreamProfiles never stores records at all: captured packets stream
	// through online per-flow analyzers and profiles come back in
	// RunResult.Comparison, exactly equal to trace-derived ones. Sweeps
	// run in O(workers × analyzer state) memory instead of O(workers ×
	// trace).
	StreamProfiles = core.StreamProfiles
)

// NewPlan declares the paper's full evaluation sweep for a base seed: all
// 13 Table 1 pairs on the faithful testbed with faithful options. Narrow
// or widen the axes with ForPairs, UnderScenarios, WithVariants and
// WithOptions, carve a deterministic 1/n slice with Shard, and execute
// with a Runner.
func NewPlan(baseSeed int64) *Plan { return core.NewPlan(baseSeed) }

// NewRunner builds a Plan executor. With no options it runs sequentially
// with no cancellation.
func NewRunner(opts ...RunnerOption) *Runner { return core.NewRunner(opts...) }

// WithWorkers sets the Runner's worker-pool size (1 = sequential, in
// canonical order; 0 = all cores, costliest cells started first). Output
// is byte-identical for any value; only wall-clock changes.
func WithWorkers(n int) RunnerOption { return core.WithWorkers(n) }

// WithContext installs a cancellation context, checked before each run and
// between simulation events inside each run, so cancelling (e.g. on
// SIGINT) aborts a sweep promptly with only completed runs delivered.
func WithContext(ctx context.Context) RunnerOption { return core.WithContext(ctx) }

// WithProgress installs a serialised completion callback for live
// progress on long sweeps.
func WithProgress(fn func(Progress)) RunnerOption { return core.WithProgress(fn) }

// WithTraceRetention selects what each completed run keeps: RetainTraces
// (full captures, for figures) or StreamProfiles (profiles only, for
// sweeps).
func WithTraceRetention(tr TraceRetention) RunnerOption { return core.WithTraceRetention(tr) }

// WithSweepStats registers a callback receiving the sweep's aggregate
// testbed-economy counters (testbeds built vs reused) after the last cell
// completes.
func WithSweepStats(fn func(SweepStats)) RunnerOption { return core.WithSweepStats(fn) }

// WithMetrics installs a MetricsSink on the Runner: every completed cell
// feeds its wall time, simulator counters, capture volume and netem drop
// causes into it. Results are unaffected.
func WithMetrics(s *MetricsSink) RunnerOption { return core.WithMetrics(s) }

// OpenResultStore opens (creating if absent) the content-addressed result
// store in dir. The store is safe for concurrent use, and several handles
// — in one process or several — may share dir once it exists. A torn or
// corrupted tail frame from a crashed writer is counted, logged through
// logf (when non-nil) and truncated away on open — a damaged store
// degrades to a smaller cache, never to wrong results.
func OpenResultStore(dir string, logf func(format string, args ...any)) (*ResultStore, error) {
	if logf == nil {
		return resultstore.Open(dir)
	}
	return resultstore.Open(dir, resultstore.WithLogf(logf))
}

// WithResultStore installs a result store as the Runner's read-through
// cache: under StreamProfiles, cells whose digest is present are served
// from the store without simulating, and freshly simulated cells are
// inserted for the next sweep. Under RetainTraces the store is bypassed
// (it holds profiles, not packet captures). Served results are
// byte-identical to simulated ones.
func WithResultStore(s *ResultStore) RunnerOption { return core.WithResultStore(s) }

// NewMetricsRegistry creates an empty metric registry. Serve it with
// (*MetricsRegistry).Handler() on any mux.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewMetricsSink registers the sweep instrument bundle on reg and returns
// it, ready for WithMetrics or ExperimentContext.SetMetrics.
func NewMetricsSink(reg *MetricsRegistry) *MetricsSink { return obs.NewSink(reg) }

// MergeRuns recombines shard outputs of one Plan into the canonical plan
// order, so n processes each running plan.Shard(i, n) reproduce the
// unsharded sweep exactly.
func MergeRuns(shards ...[]RunResult) []RunResult { return core.MergeRuns(shards...) }

// WireRuns flattens executed cells to their wire shape (profiles computed
// from retained flows when the retention left no Comparison).
func WireRuns(results []RunResult) []WireRun { return wire.FromResults(results) }

// MergeWireRuns recombines shipped shard batches into canonical plan
// order — MergeRuns for results that crossed a process boundary.
func MergeWireRuns(batches ...[]WireRun) []WireRun { return wire.Merge(batches...) }

// EncodeRunsJSON / DecodeRunsJSON and EncodeRunsGob / DecodeRunsGob move
// wire batches across process boundaries (JSON for interoperability, gob
// between Go processes).
func EncodeRunsJSON(w io.Writer, runs []WireRun) error { return wire.WriteJSON(w, runs) }
func DecodeRunsJSON(r io.Reader) ([]WireRun, error)    { return wire.ReadJSON(r) }
func EncodeRunsGob(w io.Writer, runs []WireRun) error  { return wire.WriteGob(w, runs) }
func DecodeRunsGob(r io.Reader) ([]WireRun, error)     { return wire.ReadGob(r) }

// PairRuns projects results onto their PairRun payloads, preserving order.
func PairRuns(results []RunResult) []*PairRun { return core.PairRuns(results) }

// Serve runs a shard-dispatch coordinator for plan over HTTP on addr:
// workers pull lease-based shards (POST /lease), run them, and ship
// results home (POST /complete); dead workers' leases expire and their
// shards are re-issued. Serve returns when every shard has completed —
// with the results merged into the canonical unsharded order, identical
// to a single-process Runner.Run — or when ctx cancels, which drains the
// queue (workers wind down) and returns what completed.
func Serve(ctx context.Context, addr string, plan *Plan, opts ...DispatchOption) ([]WireRun, error) {
	return dispatch.Serve(ctx, addr, plan, opts...)
}

// Work runs one worker loop against a coordinator at base
// ("host:port" or "http://host:port") until the sweep drains or ctx
// cancels: pull a shard lease, execute it with a Runner under
// StreamProfiles retention (O(analyzer-state) memory, no traces), ship
// the wire-encoded results with retry/backoff, repeat. Returns how many
// shards this worker completed.
func Work(ctx context.Context, base string, opts ...DispatchOption) (int, error) {
	return dispatch.Work(ctx, base, opts...)
}

// NewCoordinator builds the dispatch coordinator without binding it to a
// socket — embedders can mount Handler on their own mux, or hand the
// coordinator directly to in-process workers as their queue.
func NewCoordinator(plan *Plan, opts ...DispatchOption) (*Coordinator, error) {
	return dispatch.New(plan, opts...)
}

// ResumeCoordinator rebuilds a coordinator from a checkpoint journal
// written by a previous run under WithDispatchCheckpoint: the plan comes
// out of the journal itself, recorded shard completions are replayed, and
// only the unfinished shards are leased out — so a crashed sweep picks up
// where its last fsync left off instead of starting over. A journal for a
// different sweep (plan digest mismatch) is refused.
func ResumeCoordinator(path string, opts ...DispatchOption) (*Coordinator, error) {
	return dispatch.Resume(path, opts...)
}

// NewDispatchWorker builds a worker pulling from q — a *DispatchClient
// for remote coordinators, or a *Coordinator itself in process.
func NewDispatchWorker(q dispatch.Queue, opts ...DispatchOption) *DispatchWorker {
	return dispatch.NewWorker(q, opts...)
}

// DispatchLoopback binds a DispatchClient directly to a coordinator's
// HTTP handler: the full wire path (gob envelopes, version checks) with
// no sockets — for tests and single-process demos.
func DispatchLoopback(c *Coordinator, opts ...DispatchOption) *DispatchClient {
	return dispatch.Loopback(c, opts...)
}

// Dispatch knob constructors, re-exported for Serve/Work callers.
func WithDispatchShards(n int) DispatchOption           { return dispatch.WithShards(n) }
func WithLeaseTTL(d time.Duration) DispatchOption       { return dispatch.WithLeaseTTL(d) }
func WithRunWorkers(n int) DispatchOption               { return dispatch.WithRunWorkers(n) }
func WithRunContext(ctx context.Context) DispatchOption { return dispatch.WithRunContext(ctx) }
func WithWorkerName(name string) DispatchOption         { return dispatch.WithName(name) }
func WithDispatchLogf(f func(format string, args ...any)) DispatchOption {
	return dispatch.WithLogf(f)
}

// WithDispatchCheckpoint journals every completed shard to path
// (checksummed gob frames, fsync'd) so a crashed coordinator can be
// rebuilt with ResumeCoordinator — or by re-running Serve with the same
// path — and re-lease only the unfinished shards. A checkpoint written by
// an older build, before frames carried checksums, is refused.
func WithDispatchCheckpoint(path string) DispatchOption { return dispatch.WithCheckpoint(path) }

// WithDispatchRetryBudget caps one client call's total elapsed retrying:
// past it the coordinator counts as unreachable and the worker drains
// instead of hanging.
func WithDispatchRetryBudget(d time.Duration) DispatchOption { return dispatch.WithRetryBudget(d) }

// WithMaxShardFailures sets the coordinator's quarantine threshold: a
// shard struck this many times (lease expiries, rejected or undecodable
// batches) is parked and reported instead of poisoning the queue forever.
// Negative disables quarantine.
func WithMaxShardFailures(n int) DispatchOption { return dispatch.WithMaxShardFailures(n) }

// WithDispatchPprof mounts net/http/pprof profiling handlers under
// /debug/pprof/ on the coordinator's mux. Off by default: profiling
// endpoints expose internals and cost CPU when scraped, so they are
// opt-in for operators who need them.
func WithDispatchPprof(on bool) DispatchOption { return dispatch.WithPprof(on) }

// WithDispatchResultStore installs a result store on the dispatcher. On a
// coordinator it is consulted once at plan-carve time — fully-cached
// shards are journalled done and never leased, partially-cached shards
// ship their hit indexes in each grant so workers skip them — and newly
// delivered cells are inserted for the next sweep; its cache counters
// join the coordinator's /metrics. On a worker it is the local Runner's
// read-through cache.
func WithDispatchResultStore(s *ResultStore) DispatchOption { return dispatch.WithResultStore(s) }

// Library returns the paper's Table 1 clip library (6 sets, 26 clips).
func Library() []ClipSet { return media.Library() }

// AllClips flattens the library.
func AllClips() []Clip { return media.AllClips() }

// FindClip locates a clip by set number, format and class.
func FindClip(set int, f Format, class Class) (Clip, bool) {
	return media.FindClip(set, f, class)
}

// ParseClass resolves a class from its name ("low", "high", "very-high")
// or Table 1 suffix ("l", "h", "v").
func ParseClass(s string) (Class, bool) { return media.ParseClass(s) }

// NewLiveTransport opens a live (real-socket) transport and starts its
// run loop. Close it when done.
func NewLiveTransport(cfg LiveTransportConfig) (*LiveTransport, error) {
	return transport.NewLive(cfg)
}

// ServeLive attaches WMS and RDT servers (full clip library registered)
// to a live transport — the -listen mode of cmd/turbulence.
func ServeLive(lt *LiveTransport, logf func(format string, args ...any)) (*LiveServers, error) {
	return core.ServeLive(lt, logf)
}

// PlayLive streams clip from a live WMS server and blocks until the
// session completes, returning the payload digest and flow profile — the
// -play mode of cmd/turbulence.
func PlayLive(lt *LiveTransport, server Addr, clip Clip, timeout time.Duration, logf func(format string, args ...any)) (*LiveReport, error) {
	return core.PlayLive(lt, server, clip, timeout, logf)
}

// WMSPayloadDigest streams clip over a clean simulated path and returns
// the order-independent digest of the delivered data units — the parity
// reference a lossless live session must reproduce.
func WMSPayloadDigest(clip Clip) (digest string, units int, err error) {
	return core.WMSPayloadDigest(clip)
}

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) { return inet.ParseAddr(s) }

// Sites returns the six simulated server sites.
func Sites() []SiteProfile { return core.Sites() }

// NewTestbed builds the full apparatus (client, six sites, all clips
// registered) for callers that script their own sessions.
func NewTestbed(seed int64) *Testbed { return core.NewTestbed(seed) }

// RunPair executes the paper's unit experiment: the given set's clip pair
// of the given class streamed simultaneously in both formats, fully
// instrumented, with ablation options (the zero Options is the faithful
// reproduction). Deterministic in seed. The run keeps its whole capture
// (RetainTraces). It is Runner.RunPair on a new default Runner; sweeps
// declare a Plan and execute it with a Runner instead.
func RunPair(seed int64, set int, class Class, opts Options) (*PairRun, error) {
	return core.NewRunner().RunPair(seed, set, class, opts)
}

// AllPairs lists the 13 Table 1 pair experiments in order.
func AllPairs() []PairKey { return core.AllPairs() }

// Scenarios lists the registered netem scenarios ordered by name.
func Scenarios() []*Scenario { return netem.All() }

// ScenarioNames lists the registered scenario names in sorted order.
func ScenarioNames() []string { return netem.Names() }

// FindScenario resolves a named scenario from the library
// ("paper-baseline", "dsl", "cable", "lossy-wifi", "congested-peering",
// "transatlantic", "brownout", "flash-crowd", "trace-wireless", plus any
// registered by the embedding program).
func FindScenario(name string) (*Scenario, error) { return netem.Find(name) }

// RegisterScenario adds a custom scenario to the library; duplicate names
// panic.
func RegisterScenario(s *Scenario) { netem.Register(s) }

// Hop role constants for scenario recipes.
const (
	RoleAccess     = netem.RoleAccess
	RoleBackbone   = netem.RoleBackbone
	RoleBottleneck = netem.RoleBottleneck
)

// ForRole builds a Scenario.Hop function applying one impairment to every
// hop of the given role.
func ForRole(r HopRole, im Impairment) func(HopRole, int, int) Impairment {
	return netem.ForRole(r, im)
}

// GEFromBurst builds a bursty Gilbert–Elliott loss model from its average
// loss rate, mean burst length (packets) and in-burst loss probability.
func GEFromBurst(avgLoss, burstLen, lossBad float64) LossModel {
	return netem.GEFromBurst(avgLoss, burstLen, lossBad)
}

// ProfileFlow computes the turbulence profile of a captured flow (by
// replaying it through the online analyzer — one code path for both
// worlds).
func ProfileFlow(ft *FlowTrace) FlowProfile { return core.ProfileFlow(ft) }

// ProfileFromMetrics renders an online analyzer's state as a FlowProfile,
// for custom Tap pipelines.
func ProfileFromMetrics(m *FlowMetrics) FlowProfile { return core.ProfileFromMetrics(m) }

// NewFlowDemux returns an online flow demultiplexer to attach to a
// Sniffer via AddTap.
func NewFlowDemux() *FlowDemux { return capture.NewFlowDemux() }

// Compare profiles both flows of a pair run.
func Compare(run *PairRun) Comparison { return core.Compare(run) }

// FitModel extracts a Section IV flow model from a captured flow.
func FitModel(ft *FlowTrace) FlowModel { return core.FitModel(ft) }

// NewRNG returns a deterministic random stream.
func NewRNG(seed int64) *RNG { return eventsim.NewRNG(seed) }

// CompileFilter compiles an Ethereal-style display filter, e.g.
// "udp.port == 1755 && ip.contfrag".
func CompileFilter(expr string) (*Filter, error) { return capture.Compile(expr) }

// NewExperimentContext creates a cached run context for regenerating
// paper artifacts.
func NewExperimentContext(seed int64) *ExperimentContext {
	return experiments.NewContext(seed)
}

// ExperimentIDs lists every regenerable table/figure id.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one paper table/figure by id ("table1",
// "fig01".."fig15", "sec4", "ablation-*").
func RunExperiment(ctx *ExperimentContext, id string) (*Result, error) {
	return experiments.Run(ctx, id)
}

// GenerateFlow synthesises a flow trace from a fitted model — the paper's
// Section IV simulation recipe.
func GenerateFlow(m FlowModel, rng *RNG, duration time.Duration, flow Flow) *Trace {
	return m.Generate(rng, duration, flow)
}
