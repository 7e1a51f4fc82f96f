// Package dispatch turns a Plan into a pull-based work queue: a
// coordinator leases shards to workers over HTTP (or an in-process
// loopback), collects each shard's wire-encoded results, and merges them
// back into the canonical unsharded order.
//
// PR 3's Plan.Shard gave sweeps static fan-out: n processes, each told its
// (i, n) up front. That shape wastes hardware the moment machines differ —
// the fastest worker idles while the slowest grinds — and loses a shard
// outright when a worker dies. The dispatcher inverts it: the coordinator
// holds the one unsharded Plan, carves it into many more shards than
// workers, and workers *pull*. Each lease grants one strided shard plus
// the full PlanSpec; the worker reconstructs the plan locally, runs its
// slice under StreamProfiles retention (O(analyzer-state) memory, no
// traces), and ships the wire.Run batch home. Leases expire: a worker that
// dies mid-shard simply stops renewing its claim, and the coordinator
// re-issues the shard to the next puller. Because every cell's seed and
// Index come from the Plan — not from which worker ran it or when — the
// merged output is byte-identical to a single-process Runner.Run, no
// matter how leases interleave, expire or duplicate.
//
// The pieces compose at three levels: Coordinator/Worker as library types
// (any Queue transport), Handler/Client as the HTTP wire (gob envelopes
// from internal/wire, versioned), and Serve/Work as the one-call entry
// points cmd/turbulence exposes as -serve and -work. Loopback binds a
// Client directly to a Coordinator's handler for tests and single-process
// demos — the full wire path, no sockets.
package dispatch

import (
	"context"
	cryptorand "crypto/rand"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"turbulence/internal/core"
	"turbulence/internal/obs"
	"turbulence/internal/resultstore"
	"turbulence/internal/wire"
)

// Queue is the coordinator API a worker pulls from: the Coordinator
// itself, or a Client speaking the HTTP wire to a remote one.
type Queue interface {
	// Lease asks for a shard. The grant is exactly one of: work (LeaseID
	// set), a wait hint (Wait set), or the drain signal (Done set).
	Lease(worker string) (wire.LeaseGrant, error)
	// Renew extends a lease the worker is still executing. ErrLeaseLost
	// (possibly wrapped) means the claim is gone — expired, resolved by
	// another worker, or from a dead coordinator epoch — and the worker
	// must abort the shard rather than ship a late duplicate.
	Renew(leaseID, worker string) error
	// Complete delivers a leased shard's results.
	Complete(leaseID string, runs []wire.Run) error
}

// ErrLeaseLost is the renewal rejection: the lease no longer exists on
// the coordinator. The holder's shard is orphaned — some other worker
// owns it now (or already finished it) — so the only correct move is to
// abort it and pull a fresh lease.
var ErrLeaseLost = errors.New("dispatch: lease lost")

// Fixed dispatcher limits.
const (
	// requestTimeout bounds one HTTP round trip on the Client, so a
	// partitioned coordinator (connected but blackholed) turns into a
	// retriable error instead of a worker hung past every ctrl-C. Bodies
	// are profiles, a few KB per cell, so 60s is generous.
	requestTimeout = time.Minute
	// drainGrace is how long Serve keeps accepting completions after a
	// cancellation drain, so workers finishing their current shard (the
	// graceful half of their own ctrl-C handling) can still land it
	// before the socket dies.
	drainGrace = 15 * time.Second
	// eventRing is the capacity of the shard-lifecycle event ring behind
	// GET /events: at five or so transitions per shard, enough to hold a
	// mid-sized sweep's full history.
	eventRing = 1024
)

// Config collects the dispatcher knobs; Options adjust it. One Config type
// serves Coordinator, Worker and Client — each reads the fields that
// concern it.
type Config struct {
	// Shards is the lease granularity: how many strided slices the plan is
	// carved into. More shards than workers is the point — it is what lets
	// fast machines pull more than their share. 0 means one shard per cell,
	// capped at 256.
	Shards int
	// LeaseTTL is how long a shard stays claimed with no Complete before
	// the coordinator assumes the worker died and re-issues it. It bounds
	// how long a dead worker can stall a sweep, so it must comfortably
	// exceed one shard's runtime. Default 2m.
	LeaseTTL time.Duration
	// Retry is the worker's poll interval while the queue has nothing
	// leasable, and the client's backoff base for transport errors.
	// Default 200ms.
	Retry time.Duration
	// MaxAttempts bounds consecutive transport failures before a Client
	// call gives up. Default 8.
	MaxAttempts int
	// MaxElapsed is the client's retry budget: one call never spends
	// longer than this across all attempts and backoff sleeps, however
	// many attempts remain. It is what keeps a worker facing a flapping
	// coordinator from hanging -work forever. Default 2m.
	MaxElapsed time.Duration
	// Heartbeat is the worker's lease-renewal interval while a shard is
	// simulating. 0 derives it from the granted TTL (TTL/3), which is the
	// right default: three missed beats before the claim lapses.
	Heartbeat time.Duration
	// Checkpoint is the coordinator's journal path. Empty disables
	// checkpointing; otherwise every completed shard is appended
	// (checksummed gob frames, fsync'd) and a coordinator restarted on
	// the same path — or via Resume — replays it and re-leases only the
	// unfinished shards. A checkpoint written by an older build, before
	// frames carried checksums, is refused.
	Checkpoint string
	// MaxShardFailures quarantines a shard after this many strikes
	// (lease expiries, rejected or malformed batches): the shard is
	// parked — reported in /status, no longer leased — instead of
	// poisoning the queue forever. The sweep then finishes with an error
	// naming the parked shards. Default 5; negative disables quarantine.
	MaxShardFailures int
	// MaxBodyBytes caps a request body on the coordinator's HTTP
	// handlers; oversized bodies are rejected 413 before they can balloon
	// memory. Default 64 MiB (profiles are a few KB per cell).
	MaxBodyBytes int64
	// Transport overrides the client's HTTP transport. Tests wrap the
	// default in a fault-injecting chaos transport here.
	Transport http.RoundTripper
	// RunWorkers is the worker's Runner pool size per shard (0 = all
	// cores).
	RunWorkers int
	// RunContext hard-cancels in-flight simulation on a worker (the
	// second ctrl-C). The context passed to Worker.Run only drains — the
	// current shard still finishes and ships. Default: never.
	RunContext context.Context
	// Name identifies the worker in coordinator logs and status.
	Name string
	// Linger is how long Serve keeps answering after the sweep completes,
	// so workers sleeping through a wait hint observe Done instead of a
	// dead socket. Default 1s.
	Linger time.Duration
	// Pprof mounts net/http/pprof on the coordinator's mux (under
	// /debug/pprof/). Off by default: profiles expose goroutine stacks
	// and heap contents, so enable it only on an address you'd let an
	// operator shell into.
	Pprof bool
	// Store is the content-addressed result store (nil = off). On the
	// coordinator it is consulted at plan-carve time — fully-cached shards
	// are journalled done and never leased; partially-cached shards ship
	// their hit indexes in the LeaseGrant — and newly delivered results
	// are inserted for the next sweep. On a worker it is the Runner's
	// read-through cache for loopback/local runs.
	Store *resultstore.Store
	// Logf receives progress lines (default: none).
	Logf func(format string, args ...any)
}

// Option adjusts a Config.
type Option func(*Config)

// WithShards sets the lease granularity (see Config.Shards).
func WithShards(n int) Option { return func(c *Config) { c.Shards = n } }

// WithLeaseTTL sets the lease expiry (see Config.LeaseTTL).
func WithLeaseTTL(d time.Duration) Option { return func(c *Config) { c.LeaseTTL = d } }

// WithRetry sets the poll/backoff base interval.
func WithRetry(d time.Duration) Option { return func(c *Config) { c.Retry = d } }

// WithMaxAttempts bounds consecutive transport failures per client call.
func WithMaxAttempts(n int) Option { return func(c *Config) { c.MaxAttempts = n } }

// WithRetryBudget caps one client call's total elapsed retrying.
func WithRetryBudget(d time.Duration) Option { return func(c *Config) { c.MaxElapsed = d } }

// WithHeartbeat sets the worker's lease-renewal interval (0 = TTL/3).
func WithHeartbeat(d time.Duration) Option { return func(c *Config) { c.Heartbeat = d } }

// WithCheckpoint sets the coordinator's journal path (see Config.Checkpoint).
func WithCheckpoint(path string) Option { return func(c *Config) { c.Checkpoint = path } }

// WithMaxShardFailures sets the quarantine threshold (negative disables).
func WithMaxShardFailures(n int) Option { return func(c *Config) { c.MaxShardFailures = n } }

// WithMaxBodyBytes caps request bodies on the coordinator's handlers.
func WithMaxBodyBytes(n int64) Option { return func(c *Config) { c.MaxBodyBytes = n } }

// WithTransport overrides the client's HTTP transport (chaos tests).
func WithTransport(rt http.RoundTripper) Option { return func(c *Config) { c.Transport = rt } }

// WithRunWorkers sets the per-shard Runner pool size (0 = all cores).
func WithRunWorkers(n int) Option { return func(c *Config) { c.RunWorkers = n } }

// WithRunContext installs the hard-cancel context for in-flight simulation.
func WithRunContext(ctx context.Context) Option { return func(c *Config) { c.RunContext = ctx } }

// WithName sets the worker identity used in logs and status.
func WithName(name string) Option { return func(c *Config) { c.Name = name } }

// WithLinger sets how long Serve answers after completion.
func WithLinger(d time.Duration) Option { return func(c *Config) { c.Linger = d } }

// WithPprof mounts net/http/pprof on the coordinator's mux (see
// Config.Pprof for the exposure caveat).
func WithPprof(on bool) Option { return func(c *Config) { c.Pprof = on } }

// WithLogf installs a progress logger.
func WithLogf(f func(format string, args ...any)) Option { return func(c *Config) { c.Logf = f } }

// WithResultStore installs the content-addressed result store (see
// Config.Store).
func WithResultStore(s *resultstore.Store) Option { return func(c *Config) { c.Store = s } }

func newConfig(opts []Option) Config {
	c := Config{
		LeaseTTL:         2 * time.Minute,
		Retry:            200 * time.Millisecond,
		MaxAttempts:      8,
		MaxElapsed:       2 * time.Minute,
		RunContext:       context.Background(),
		Name:             "worker",
		Linger:           time.Second,
		MaxShardFailures: 5,
		MaxBodyBytes:     64 << 20,
	}
	for _, opt := range opts {
		opt(&c)
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 2 * time.Minute
	}
	if c.Retry <= 0 {
		c.Retry = 200 * time.Millisecond
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.MaxElapsed <= 0 {
		c.MaxElapsed = 2 * time.Minute
	}
	if c.MaxShardFailures == 0 {
		c.MaxShardFailures = 5
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Coordinator serves one Plan as a lease-based shard queue and collects
// the results — the queue and the collector are one state machine, because
// a completion is exactly a lease resolution. All methods are safe for
// concurrent use; it implements Queue directly, so in-process workers can
// skip the wire entirely.
type Coordinator struct {
	cfg      Config
	spec     wire.PlanSpec
	shards   int
	planSize int
	sizes    []int
	epoch    string // random per-instance tag baked into lease IDs

	// cellDigests holds every cell's content address in canonical Index
	// order; nil when no result store is configured. Computed once at
	// carve time and read-only after, so the commit path can address
	// inserts without holding c.mu.
	cellDigests []string

	mu          sync.Mutex
	pending     []int          // shards ready to grant, FIFO
	leases      map[string]int // outstanding leaseID → shard
	deadlines   map[string]time.Time
	issued      map[string]int    // every leaseID ever granted → shard
	holders     map[string]string // every leaseID ever granted → worker name
	rejected    map[string]bool   // leases already struck for a bad delivery
	done        []bool            // per shard
	strikes     []int             // per shard: expiries + rejected batches
	lastStrike  []string          // per shard: most recent strike reason
	quarantined []bool            // per shard: parked after MaxShardFailures
	committing  []bool            // per shard: journal append in flight
	commitDone  *sync.Cond        // on mu; broadcast when a commit settles
	results     map[int][]wire.Run
	cachedRuns  map[int][]wire.Run   // per shard: store hits, canonical order
	cachedIdx   map[int]map[int]bool // per shard: store-hit global Indexes
	remaining   int                  // non-empty shards neither completed nor quarantined
	delivering  int                  // live leases removed by an in-flight Complete, not yet classified
	seq         int
	draining    bool
	finished    chan struct{} // closed when remaining hits 0
	journal     *journal      // nil when checkpointing is off
	m           *coordMetrics
}

// newEpoch draws the coordinator instance's random lease-ID tag. Lease
// IDs must never collide across coordinator lifetimes: a sequence number
// alone resets on restart, so a resumed coordinator could re-issue an ID
// a pre-crash worker still holds — and that worker's stale completion
// would then be indistinguishable from the new holder's.
func newEpoch() (string, error) {
	var b [4]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return "", fmt.Errorf("dispatch: cannot draw lease epoch: %w", err)
	}
	return fmt.Sprintf("%x", b), nil
}

// New builds a coordinator for an unsharded plan. The plan is carved into
// cfg.Shards strided slices; empty shards (more shards than cells) are
// never issued — the lease-aware iteration Plan.ShardSizes provides.
//
// With WithCheckpoint, completions are journalled to the named file; if
// the file already holds a checkpoint for this exact plan (same
// wire.PlanSpec digest), it is replayed and only the unfinished shards
// are leased out — New on an existing checkpoint IS the resume path. A
// journal for a different plan is refused rather than mixed in.
func New(plan *core.Plan, opts ...Option) (*Coordinator, error) {
	if plan.IsSharded() {
		return nil, errors.New("dispatch: coordinator needs the unsharded plan (shard coordinates travel in leases)")
	}
	cfg := newConfig(opts)
	spec := wire.PlanSpecOf(plan)

	// An existing journal fixes the shard carve: completion frames index
	// into it, so a resumed -serve-shards disagreement must not reshuffle
	// which cells "shard 3" means.
	var header *journalHeader
	var replayed []journalComplete
	var journalEnd int64 // offset past the last whole frame (tear cut point)
	if cfg.Checkpoint != "" {
		if st, err := os.Stat(cfg.Checkpoint); err == nil && st.Size() > 0 {
			h, done, end, err := readJournal(cfg.Checkpoint)
			if err != nil {
				return nil, err
			}
			journalEnd = end
			if h.Digest != spec.Digest() {
				return nil, fmt.Errorf("dispatch: checkpoint %s belongs to a different sweep (plan digest %.12s, this plan %.12s) — refusing to mix", cfg.Checkpoint, h.Digest, spec.Digest())
			}
			header, replayed = h, done
		}
	}

	n := cfg.Shards
	if header != nil {
		if n > 0 && n != header.Shards {
			cfg.Logf("dispatch: checkpoint %s was carved into %d shards; overriding the requested %d", cfg.Checkpoint, header.Shards, n)
		}
		n = header.Shards
	}
	if n <= 0 {
		n = plan.Size()
		if n > 256 {
			n = 256
		}
	}
	if n < 1 {
		n = 1
	}
	epoch, err := newEpoch()
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:         cfg,
		spec:        spec,
		shards:      n,
		planSize:    plan.Size(),
		sizes:       plan.ShardSizes(n),
		epoch:       epoch,
		leases:      make(map[string]int),
		deadlines:   make(map[string]time.Time),
		issued:      make(map[string]int),
		holders:     make(map[string]string),
		rejected:    make(map[string]bool),
		done:        make([]bool, n),
		strikes:     make([]int, n),
		lastStrike:  make([]string, n),
		quarantined: make([]bool, n),
		committing:  make([]bool, n),
		results:     make(map[int][]wire.Run),
		cachedRuns:  make(map[int][]wire.Run),
		cachedIdx:   make(map[int]map[int]bool),
		finished:    make(chan struct{}),
	}
	c.commitDone = sync.NewCond(&c.mu)
	c.m = newCoordMetrics(c)
	if cfg.Store != nil {
		cfg.Store.Register(c.m.reg)
	}
	for shard, size := range c.sizes {
		if size == 0 {
			c.done[shard] = true
			continue
		}
		c.pending = append(c.pending, shard)
		c.remaining++
	}
	for _, rec := range replayed {
		if rec.Shard < 0 || rec.Shard >= n {
			return nil, fmt.Errorf("dispatch: checkpoint %s records shard %d of %d — corrupt", cfg.Checkpoint, rec.Shard, n)
		}
		if c.done[rec.Shard] {
			continue // duplicate frame; harmless, first wins
		}
		if err := c.validateBatch(rec.Shard, rec.Runs); err != nil {
			return nil, fmt.Errorf("dispatch: checkpoint %s: %w", cfg.Checkpoint, err)
		}
		c.done[rec.Shard] = true
		c.results[rec.Shard] = rec.Runs
		c.remaining--
	}
	if len(replayed) > 0 {
		// Drop replayed shards from pending.
		c.dropDonePendingLocked()
		cfg.Logf("dispatch: resumed from %s: %d/%d shards already collected, %d to go", cfg.Checkpoint, n-c.remaining, n, c.remaining)
	}
	if cfg.Checkpoint != "" {
		j, err := openJournal(cfg.Checkpoint, journalHeader{
			Magic:   journalMagic,
			Version: wire.Version,
			Digest:  spec.Digest(),
			Spec:    spec,
			Shards:  n,
		}, header == nil, journalEnd, cfg.Logf)
		if err != nil {
			return nil, err
		}
		j.fsyncs = c.m.journalFsyncs
		j.fsyncSeconds = c.m.journalFsyncSeconds
		c.journal = j
	}
	c.consultStore(plan)
	if c.remaining == 0 {
		close(c.finished)
	}
	return c, nil
}

// consultStore probes the result store for every cell of every unfinished
// shard, once, at carve time. A fully-cached shard is journalled and
// marked done — it is never leased, which is what makes a warm rerun of an
// identical plan simulate zero cells. A partially-cached shard keeps its
// hits aside: grants ship the hit Indexes as CachedCells, workers omit
// them, and the commit path merges the hits back in canonical order.
// Called from New before any concurrency; takes c.mu only for the
// journal-append discipline's sake.
func (c *Coordinator) consultStore(plan *core.Plan) {
	st := c.cfg.Store
	if st == nil {
		return
	}
	keys := plan.Keys()
	c.cellDigests = make([]string, len(keys))
	for i, k := range keys {
		c.cellDigests[i] = wire.CellSpecFrom(k.Pair, plan.OptionsFor(k), plan.Seed(k)).Digest()
	}
	cells, full := 0, 0
	for shard := 0; shard < c.shards; shard++ {
		if c.done[shard] {
			continue
		}
		var hits []wire.Run
		var idxs map[int]bool
		for idx := shard; idx < c.planSize; idx += c.shards {
			cmp, ok := st.Lookup(c.cellDigests[idx])
			if !ok {
				continue
			}
			if idxs == nil {
				idxs = make(map[int]bool)
			}
			idxs[idx] = true
			hits = append(hits, wire.RunFromCached(keys[idx], plan.Seed(keys[idx]), cmp))
		}
		if idxs == nil {
			continue
		}
		cells += len(hits)
		if len(hits) == c.sizes[shard] {
			// Fully cached: record it exactly as a completion would, so a
			// resumed coordinator replays it without needing the store.
			c.journal.appendFrame(journalFrame{Complete: &journalComplete{Shard: shard, Runs: hits}})
			c.done[shard] = true
			c.results[shard] = hits
			c.remaining--
			full++
			c.m.event("complete", shard, "", "", "served from result store")
			continue
		}
		c.cachedIdx[shard] = idxs
		c.cachedRuns[shard] = hits
	}
	if cells > 0 {
		if full > 0 {
			c.dropDonePendingLocked()
		}
		c.cfg.Logf("dispatch: result store holds %d of this sweep's cells (%d shards fully cached, never leased); %d shards to go", cells, full, c.remaining)
	}
}

// Resume rebuilds a coordinator entirely from a checkpoint file: the plan
// comes out of the journal's own PlanSpec, recorded completions are
// replayed, and only the unfinished shards will be leased. It is New with
// the journal as the source of truth — for the common restart where the
// operator has the checkpoint path and nothing else.
func Resume(path string, opts ...Option) (*Coordinator, error) {
	h, _, _, err := readJournal(path)
	if err != nil {
		return nil, err
	}
	plan, err := h.Spec.Plan()
	if err != nil {
		return nil, fmt.Errorf("dispatch: checkpoint %s: %w", path, err)
	}
	return New(plan, append(opts, WithCheckpoint(path))...)
}

// validateBatch applies the collector's protocol checks to one shard's
// delivery: every cell must lie on the shard's stride within the plan, no
// cell may appear twice, and the count of non-cached cells must equal the
// shard's size minus its store hits unless some run carries a cell error
// to explain the shortfall. Workers may ship cells the grant marked
// cached (one that ignores CachedCells simply recomputes them) — those
// are tolerated and not counted against the expected size. Journal
// replay runs the same checks before the store is consulted, so a
// replayed frame must hold the whole shard. Called with c.mu held (or
// during construction, before concurrency).
func (c *Coordinator) validateBatch(shard int, runs []wire.Run) error {
	cached := c.cachedIdx[shard]
	seen := make(map[int]bool, len(runs))
	failed := false
	fresh := 0
	for _, r := range runs {
		if r.Index < 0 || r.Index >= c.planSize || r.Index%c.shards != shard {
			return fmt.Errorf("dispatch: batch delivered cell %d, which is not in shard %d/%d", r.Index, shard, c.shards)
		}
		if seen[r.Index] {
			return fmt.Errorf("dispatch: batch delivered cell %d twice", r.Index)
		}
		seen[r.Index] = true
		if r.Err != "" {
			failed = true
		}
		if !cached[r.Index] {
			fresh++
		}
	}
	if want := c.sizes[shard] - len(c.cachedRuns[shard]); fresh != want && !failed {
		return fmt.Errorf("dispatch: batch delivered %d runs for shard %d/%d, want %d", fresh, shard, c.shards, want)
	}
	return nil
}

// dropDonePendingLocked removes completed shards from the pending queue.
// Called with c.mu held (or during construction).
func (c *Coordinator) dropDonePendingLocked() {
	open := c.pending[:0]
	for _, shard := range c.pending {
		if !c.done[shard] {
			open = append(open, shard)
		}
	}
	c.pending = open
}

// expire requeues every outstanding lease whose deadline has passed.
// Called with c.mu held. Expiry is lazy — checked on each Lease — which
// keeps the coordinator timer-free and deterministic under test. An
// expiry is a strike against the shard: a worker renewing its lease
// never expires, so lapsing means the holder died (or was partitioned
// past the TTL), and a shard that keeps killing its holders is
// eventually quarantined rather than re-leased forever.
func (c *Coordinator) expire(now time.Time) {
	for id, deadline := range c.deadlines {
		if now.Before(deadline) {
			continue
		}
		shard := c.leases[id]
		delete(c.leases, id)
		delete(c.deadlines, id)
		c.m.expired.Inc()
		c.m.event("expire", shard, id, c.holders[id], "")
		if !c.done[shard] && !c.quarantined[shard] {
			c.pending = append(c.pending, shard)
			c.cfg.Logf("dispatch: lease %s expired, requeueing shard %d/%d", id, shard, c.shards)
			c.strikeLocked(shard, "lease expired")
		}
	}
}

// strikeLocked charges one failure against a shard and parks it once it
// reaches the quarantine threshold: off the queue, reported in /status,
// no longer counted against completion — so one poisoned shard cannot
// wedge the whole sweep. Called with c.mu held.
func (c *Coordinator) strikeLocked(shard int, reason string) {
	c.strikes[shard]++
	c.lastStrike[shard] = reason
	c.m.strikes.Inc()
	max := c.cfg.MaxShardFailures
	if max < 0 || c.strikes[shard] < max || c.done[shard] || c.quarantined[shard] {
		return
	}
	c.quarantined[shard] = true
	c.m.quarantines.Inc()
	c.m.event("quarantine", shard, "", "", reason)
	open := c.pending[:0]
	for _, s := range c.pending {
		if s != shard {
			open = append(open, s)
		}
	}
	c.pending = open
	c.remaining--
	c.cfg.Logf("dispatch: shard %d/%d quarantined after %d failures — parked, see /status", shard, c.shards, c.strikes[shard])
	if c.remaining == 0 {
		close(c.finished)
	}
}

// Lease implements Queue: pop a pending shard, or tell the worker to wait
// (work is leased out but could still expire back) or stop (sweep done or
// draining). The error is always nil — it exists for the Queue interface,
// where transports can fail.
func (c *Coordinator) Lease(worker string) (wire.LeaseGrant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expire(time.Now())
	if c.draining || c.remaining == 0 {
		return wire.LeaseGrant{Version: wire.Version, Done: true}, nil
	}
	// Pop the first pending shard still unresolved: a shard can sit in
	// pending and be done — its lease expired, it was requeued, and then
	// the presumed-dead worker's late completion landed — and re-leasing
	// it would re-run the whole shard for nothing.
	shard := -1
	for len(c.pending) > 0 {
		cand := c.pending[0]
		c.pending = c.pending[1:]
		if !c.done[cand] && !c.quarantined[cand] {
			shard = cand
			break
		}
	}
	if shard < 0 {
		return wire.LeaseGrant{Version: wire.Version, Wait: true, RetryMillis: c.cfg.Retry.Milliseconds()}, nil
	}
	c.seq++
	id := fmt.Sprintf("lease-%s-%d-shard-%d", c.epoch, c.seq, shard)
	c.leases[id] = shard
	c.deadlines[id] = time.Now().Add(c.cfg.LeaseTTL)
	c.issued[id] = shard
	c.holders[id] = worker
	c.m.granted.Inc()
	c.m.event("lease", shard, id, worker, "")
	var cached []int // store hits, ascending: the cells the worker skips
	for _, r := range c.cachedRuns[shard] {
		cached = append(cached, r.Index)
	}
	c.cfg.Logf("dispatch: leased shard %d/%d (%d cells) to %s as %s", shard, c.shards, c.sizes[shard]-len(cached), worker, id)
	return wire.LeaseGrant{
		Version:     wire.Version,
		LeaseID:     id,
		Shard:       shard,
		Shards:      c.shards,
		Plan:        c.spec,
		TTLMillis:   c.cfg.LeaseTTL.Milliseconds(),
		CachedCells: cached,
	}, nil
}

// Renew implements Queue: push an outstanding lease's deadline out one
// TTL, so a shard that legitimately outlives the lease is never
// double-run while its worker still heartbeats. A lease that is gone —
// expired and reissued, resolved, from a previous coordinator epoch, or
// simply unknown — answers ErrLeaseLost: the worker's shard is orphaned
// and must be aborted, not shipped.
func (c *Coordinator) Renew(leaseID, worker string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expire(time.Now())
	shard, ok := c.leases[leaseID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrLeaseLost, leaseID)
	}
	if c.done[shard] || c.quarantined[shard] {
		// Someone else's batch already resolved the shard (or it was
		// parked); renewing would only extend pointless work.
		delete(c.leases, leaseID)
		delete(c.deadlines, leaseID)
		c.m.lost.Inc()
		c.m.event("lost", shard, leaseID, worker, "shard already resolved")
		return fmt.Errorf("%w: shard %d already resolved", ErrLeaseLost, shard)
	}
	c.deadlines[leaseID] = time.Now().Add(c.cfg.LeaseTTL)
	c.m.renewed.Inc()
	c.m.event("renew", shard, leaseID, worker, "")
	return nil
}

// Reject resolves a lease whose delivery could not even be decoded (a
// malformed or truncated /complete body): the lease is released, the
// shard requeued with a strike, and the worker may retry the same lease
// with an intact body — the lease stays in issued, so a later good batch
// still lands. One strike per lease: a duplicated delivery of the same
// undecodable body (the chaos transport injects exactly this) must not
// charge the shard twice for one failure and hurry it into quarantine.
func (c *Coordinator) Reject(leaseID string, reason error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	shard, ok := c.issued[leaseID]
	if !ok {
		return fmt.Errorf("dispatch: unknown lease %q", leaseID)
	}
	if _, live := c.leases[leaseID]; live {
		c.m.rejected.Inc()
	}
	delete(c.leases, leaseID)
	delete(c.deadlines, leaseID)
	if c.rejected[leaseID] {
		return nil
	}
	c.rejected[leaseID] = true
	c.m.event("reject", shard, leaseID, c.holders[leaseID], reason.Error())
	if c.done[shard] || c.quarantined[shard] {
		return nil
	}
	c.cfg.Logf("dispatch: lease %s delivery rejected (%v), requeueing shard %d/%d", leaseID, reason, shard, c.shards)
	c.requeueLocked(shard)
	c.strikeLocked(shard, "delivery rejected: "+reason.Error())
	return nil
}

// Complete implements Queue: resolve a lease with its shard's results.
// Completions are idempotent — a worker that lost its lease to expiry may
// still deliver, and whichever batch lands first wins; determinism makes
// every batch for one shard identical, so "first wins" is not a race on
// content. A batch is rejected (the shard requeued, with a strike) when
// it is short without carrying a cell error to explain it, or when any
// run's Index falls outside the shard or repeats — all protocol
// violations, not transient failures. An accepted batch is journalled (when checkpointing
// is on) before it counts as done, so a coordinator crash after the ack
// can never lose an acknowledged shard.
func (c *Coordinator) Complete(leaseID string, runs []wire.Run) error {
	return c.CompleteStats(leaseID, runs, nil)
}

// CompleteStats is Complete carrying the worker's optional self-measured
// shard stats (see wire.WorkerStats). A nil stats — what old workers
// effectively send — is simply Complete; snapshots with an unknown
// version are ignored, never rejected, so the field can evolve without a
// protocol bump.
func (c *Coordinator) CompleteStats(leaseID string, runs []wire.Run, stats *wire.WorkerStats) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	shard, ok := c.issued[leaseID]
	if !ok {
		return fmt.Errorf("dispatch: unknown lease %q", leaseID)
	}
	// Lease-ledger accounting: removing a live lease here puts the
	// delivery in flight until it is classified as completed or rejected
	// below. c.mu is released twice on the way (the committing wait and
	// the journal append), so `delivering` is what keeps a mid-delivery
	// scrape balanced: granted == active + completed + expired +
	// rejected + lost + delivering.
	_, live := c.leases[leaseID]
	delete(c.leases, leaseID)
	delete(c.deadlines, leaseID)
	if live {
		c.delivering++
	}
	settle := func(outcome *obs.Counter) {
		if live {
			c.delivering--
			outcome.Inc()
			live = false
		}
	}
	// A concurrent delivery for the same shard may be mid-journal-append;
	// wait for it to settle so the done check below absorbs this one as a
	// duplicate instead of double-committing the shard.
	for c.committing[shard] {
		c.commitDone.Wait()
	}
	if c.done[shard] {
		// Late duplicate of an expired-and-reissued lease. The work still
		// happened on the worker, so its stats count.
		settle(c.m.completed)
		c.recordStatsLocked(stats)
		c.m.event("complete", shard, leaseID, c.holders[leaseID], "duplicate")
		return nil
	}
	if err := c.validateBatch(shard, runs); err != nil {
		settle(c.m.rejected)
		c.m.event("reject", shard, leaseID, c.holders[leaseID], err.Error())
		c.requeueLocked(shard)
		c.strikeLocked(shard, "delivery rejected: "+err.Error())
		return fmt.Errorf("%s (lease %s)", err, leaseID)
	}
	batch := c.assembleShardLocked(shard, runs)
	cached := c.cachedIdx[shard]
	// Journal outside c.mu — the append fsyncs, and a slow disk must not
	// stall every /lease and /renew in the fleet behind it. committing
	// marks the shard claimed meanwhile, and it only counts as done once
	// the frame is durable, preserving the crash-after-ack guarantee. The
	// result-store inserts ride the same window: cellDigests is read-only
	// and the store has its own lock.
	j := c.journal
	st := c.cfg.Store
	c.committing[shard] = true
	c.mu.Unlock()
	j.appendFrame(journalFrame{Complete: &journalComplete{Shard: shard, Runs: batch}})
	if st != nil {
		for _, r := range batch {
			if r.Err != "" || cached[r.Index] {
				continue
			}
			st.Insert(c.cellDigests[r.Index], r.Comparison)
		}
	}
	c.mu.Lock()
	c.committing[shard] = false
	c.commitDone.Broadcast()
	c.done[shard] = true
	c.results[shard] = batch
	delete(c.cachedRuns, shard)
	delete(c.cachedIdx, shard)
	settle(c.m.completed)
	c.recordStatsLocked(stats)
	c.m.batchCells.Observe(float64(len(runs)))
	c.m.event("complete", shard, leaseID, c.holders[leaseID], "")
	if c.quarantined[shard] {
		// A parked shard's work arrived after all: unpark it. Its
		// strike-out already removed it from remaining, so the count
		// stays untouched.
		c.quarantined[shard] = false
		c.m.unparks.Inc()
		c.m.event("unpark", shard, leaseID, c.holders[leaseID], "late completion rescued quarantined shard")
		c.cfg.Logf("dispatch: quarantined shard %d/%d completed late (%s) — unparked", shard, c.shards, leaseID)
		return nil
	}
	c.remaining--
	c.cfg.Logf("dispatch: shard %d/%d complete (%s), %d shards remaining", shard, c.shards, leaseID, c.remaining)
	if c.remaining == 0 {
		close(c.finished)
	}
	return nil
}

// recordStatsLocked folds a shipped WorkerStats snapshot into the
// per-worker metric series, dropping nil and unknown-version snapshots.
// Called with c.mu held.
func (c *Coordinator) recordStatsLocked(stats *wire.WorkerStats) {
	if stats == nil || stats.Version != wire.StatsVersion {
		return
	}
	c.m.recordWorkerStats(stats)
}

// requeueLocked puts a shard back at the head of the queue, unless it is
// already queued (two rejected batches for one shard must not
// double-lease it). Called with c.mu held.
func (c *Coordinator) requeueLocked(shard int) {
	for _, q := range c.pending {
		if q == shard {
			return
		}
	}
	c.pending = append([]int{shard}, c.pending...)
}

// assembleShardLocked builds a shard's canonical batch: its store hits
// plus this delivery's other cells, ascending global Index. A shipped copy
// of a cached cell is dropped in favour of the store's. Called with c.mu
// held.
func (c *Coordinator) assembleShardLocked(shard int, runs []wire.Run) []wire.Run {
	cached := c.cachedIdx[shard]
	batch := make([]wire.Run, 0, c.sizes[shard])
	batch = append(batch, c.cachedRuns[shard]...)
	for _, r := range runs {
		if !cached[r.Index] {
			batch = append(batch, r)
		}
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].Index < batch[j].Index })
	return batch
}

// Collected returns the merge of every batch received so far in canonical
// order — Wait's result shape, without waiting.
func (c *Coordinator) Collected() []wire.Run {
	c.mu.Lock()
	batches := make([][]wire.Run, 0, len(c.results))
	for _, b := range c.results {
		batches = append(batches, b)
	}
	c.mu.Unlock()
	return wire.Merge(batches...)
}

// Drain stops the coordinator from issuing further leases: every
// subsequent Lease answers Done, so pulling workers wind down after their
// current shard. Completions for already-issued leases are still accepted.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// Done reports whether every shard has completed.
func (c *Coordinator) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remaining == 0
}

// Counts reports the queue state: shards pending (leasable now), leased
// out, and completed.
func (c *Coordinator) Counts() (pending, leased, done int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expire(time.Now())
	for _, d := range c.done {
		if d {
			done++
		}
	}
	return len(c.pending), len(c.leases), done
}

// Quarantined lists the parked shards — struck out MaxShardFailures
// times and withdrawn from the queue — in ascending order.
func (c *Coordinator) Quarantined() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for s, q := range c.quarantined {
		if q {
			out = append(out, s)
		}
	}
	return out
}

// Failures reports every shard that has been struck at least once, in
// ascending shard order, with its strike count, quarantine state, and
// the most recent strike's reason — the /status detail that turns "the
// sweep is stuck" into "shard 7 keeps killing its workers".
func (c *Coordinator) Failures() []ShardFailure {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []ShardFailure
	for s, n := range c.strikes {
		if n == 0 {
			continue
		}
		out = append(out, ShardFailure{
			Shard:       s,
			Strikes:     n,
			Quarantined: c.quarantined[s],
			Reason:      c.lastStrike[s],
		})
	}
	return out
}

// Epoch returns the coordinator instance's random lease-ID tag (visible
// in /status, useful for telling a resumed coordinator from its
// predecessor in logs).
func (c *Coordinator) Epoch() string { return c.epoch }

// Close releases the checkpoint journal's file handle. The coordinator
// remains usable as a queue, but further completions are no longer
// journalled; call it only when the sweep is over.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal.close()
	c.journal = nil
}

// Wait blocks until every shard has completed or ctx is cancelled (which
// drains the queue, so workers stop pulling), then returns the collected
// results merged into the canonical unsharded order. The error is ctx's
// on cancellation, else the first cell error in canonical order, else nil
// — mirroring Runner.Run, so "distributed" and "in-process" report
// failures the same way.
func (c *Coordinator) Wait(ctx context.Context) ([]wire.Run, error) {
	select {
	case <-c.finished:
	case <-ctx.Done():
		c.Drain()
	}
	merged := c.Collected()
	if err := ctx.Err(); err != nil {
		return merged, err
	}
	if parked := c.Quarantined(); len(parked) > 0 {
		return merged, fmt.Errorf("dispatch: %d shard(s) quarantined after repeated failures and withheld from the merge: %v (see /status)", len(parked), parked)
	}
	for _, r := range merged {
		if r.Err != "" {
			return merged, fmt.Errorf("dispatch: cell %d (set %d/%s): %s", r.Index, r.Set, r.Class, r.Err)
		}
	}
	return merged, nil
}
