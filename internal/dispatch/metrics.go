package dispatch

import (
	"time"

	"turbulence/internal/obs"
	"turbulence/internal/wire"
)

// coordMetrics is the coordinator's instrumentation: lifecycle counters
// for every lease transition, scrape-time gauges over the queue state,
// per-worker series fed from shipped WorkerStats snapshots, and the
// shard-lifecycle event ring behind GET /events.
//
// Counter updates happen under c.mu at the exact point the state machine
// transitions, and the registry's snapshot lock IS c.mu — so any scrape
// observes one consistent state in which the lease ledger balances
// exactly:
//
//	granted == active + completed + expired + rejected + lost + delivering
//
// (active = len(c.leases); the four resolution counters partition every
// lease ever removed from it, and delivering covers the window where a
// completion has claimed its lease but is still waiting on validation or
// the journal — CompleteStats drops c.mu there, so a scrape can land
// inside it). The GaugeFunc closures below read
// coordinator fields WITHOUT locking for the same reason: they only run
// during a render, which holds c.mu via the snapshot lock.
type coordMetrics struct {
	reg  *obs.Registry
	ring *obs.Ring

	granted   *obs.Counter
	renewed   *obs.Counter
	completed *obs.Counter
	expired   *obs.Counter
	rejected  *obs.Counter
	lost      *obs.Counter

	strikes     *obs.Counter
	quarantines *obs.Counter
	unparks     *obs.Counter
	batchCells  *obs.Histogram

	journalFsyncs       *obs.Counter
	journalFsyncSeconds *obs.Histogram

	workerCells          *obs.CounterVec
	workerShards         *obs.CounterVec
	workerRenewals       *obs.CounterVec
	workerRetries        *obs.CounterVec
	workerRunSeconds     *obs.FloatGaugeVec
	workerThroughput     *obs.FloatGaugeVec
	workerTestbedsBuilt  *obs.CounterVec
	workerTestbedsReused *obs.CounterVec
}

// newCoordMetrics registers the dispatcher metric set. The gauges close
// over c and read its fields directly — see the locking note on
// coordMetrics.
func newCoordMetrics(c *Coordinator) *coordMetrics {
	reg := obs.NewRegistry()
	reg.SetSnapshotLock(func() func() {
		c.mu.Lock()
		return c.mu.Unlock
	})
	m := &coordMetrics{
		reg:  reg,
		ring: obs.NewRing(eventRing),

		granted:   reg.Counter("turbulence_dispatch_leases_granted_total", "Shard leases handed to workers."),
		renewed:   reg.Counter("turbulence_dispatch_leases_renewed_total", "Successful lease renewals (heartbeats)."),
		completed: reg.Counter("turbulence_dispatch_leases_completed_total", "Leases resolved by an accepted or duplicate-absorbed completion."),
		expired:   reg.Counter("turbulence_dispatch_leases_expired_total", "Leases that lapsed without renewal and were requeued."),
		rejected:  reg.Counter("turbulence_dispatch_leases_rejected_total", "Leases resolved by an undecodable or protocol-violating delivery."),
		lost:      reg.Counter("turbulence_dispatch_leases_lost_total", "Leases released when renewal found the shard already resolved."),

		strikes:     reg.Counter("turbulence_dispatch_strikes_total", "Failures charged against shards (expiries plus rejected deliveries)."),
		quarantines: reg.Counter("turbulence_dispatch_quarantines_total", "Shards parked after reaching the strike threshold."),
		unparks:     reg.Counter("turbulence_dispatch_unparks_total", "Quarantined shards rescued by a late completion."),
		batchCells:  reg.Histogram("turbulence_dispatch_batch_cells", "Cells per accepted completion batch.", obs.BatchBuckets),

		journalFsyncs:       reg.Counter("turbulence_dispatch_journal_fsyncs_total", "Checkpoint journal appends made durable."),
		journalFsyncSeconds: reg.Histogram("turbulence_dispatch_journal_fsync_seconds", "Seconds per checkpoint journal fsync.", []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1}),

		workerCells:          reg.CounterVec("turbulence_dispatch_worker_cells_total", "Cells completed per worker, as self-measured in WorkerStats.", "worker"),
		workerShards:         reg.CounterVec("turbulence_dispatch_worker_shards_total", "Shards completed per worker.", "worker"),
		workerRenewals:       reg.CounterVec("turbulence_dispatch_worker_renewals_total", "Lease renewals per worker while running shards.", "worker"),
		workerRetries:        reg.CounterVec("turbulence_dispatch_worker_retries_total", "Transport retries per worker while running shards.", "worker"),
		workerRunSeconds:     reg.FloatGaugeVec("turbulence_dispatch_worker_run_seconds", "Wall-clock the worker spent executing its most recent shard.", "worker"),
		workerThroughput:     reg.FloatGaugeVec("turbulence_dispatch_worker_throughput_cells_per_second", "Cells per second over the worker's most recent shard, self-measured.", "worker"),
		workerTestbedsBuilt:  reg.CounterVec("turbulence_dispatch_worker_testbeds_built_total", "Testbeds constructed from scratch per worker, as self-measured in WorkerStats.", "worker"),
		workerTestbedsReused: reg.CounterVec("turbulence_dispatch_worker_testbeds_reused_total", "Cells served by resetting a cached testbed per worker, as self-measured in WorkerStats.", "worker"),
	}
	reg.GaugeFunc("turbulence_dispatch_queue_depth", "Shards sitting in the pending queue.",
		func() float64 { return float64(len(c.pending)) })
	reg.GaugeFunc("turbulence_dispatch_active_leases", "Leases currently outstanding.",
		func() float64 { return float64(len(c.leases)) })
	reg.GaugeFunc("turbulence_dispatch_deliveries_inflight", "Completions holding a claimed lease but not yet classified (validating or journalling).",
		func() float64 { return float64(c.delivering) })
	reg.GaugeFunc("turbulence_dispatch_shards_total", "Shards the plan was carved into.",
		func() float64 { return float64(c.shards) })
	reg.GaugeFunc("turbulence_dispatch_shards_done", "Shards whose results are collected.",
		func() float64 {
			n := 0
			for _, d := range c.done {
				if d {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("turbulence_dispatch_shards_quarantined", "Shards currently parked in quarantine.",
		func() float64 {
			n := 0
			for _, q := range c.quarantined {
				if q {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("turbulence_dispatch_shards_remaining", "Non-empty shards neither collected nor quarantined.",
		func() float64 { return float64(c.remaining) })
	return m
}

// event appends one shard-lifecycle transition to the ring. Called with
// c.mu held (ring has its own lock; the ordering guarantee — events land
// in transition order — comes from the caller's lock).
func (m *coordMetrics) event(kind string, shard int, lease, worker, detail string) {
	m.ring.Append(obs.Event{
		At:     time.Now(),
		Kind:   kind,
		Shard:  shard,
		Lease:  lease,
		Worker: worker,
		Detail: detail,
	})
}

// recordWorkerStats folds one shipped WorkerStats snapshot into the
// per-worker series. Unknown snapshot versions were already filtered by
// the caller. Called with c.mu held.
func (m *coordMetrics) recordWorkerStats(s *wire.WorkerStats) {
	name := s.Worker
	if name == "" {
		name = "unknown"
	}
	m.workerCells.With(name).Add(uint64(s.Cells))
	m.workerShards.With(name).Inc()
	m.workerRenewals.With(name).Add(uint64(s.Renewals))
	m.workerRetries.With(name).Add(s.Retries)
	m.workerTestbedsBuilt.With(name).Add(uint64(s.TestbedsBuilt))
	m.workerTestbedsReused.With(name).Add(uint64(s.TestbedsReused))
	secs := float64(s.RunMillis) / 1000
	m.workerRunSeconds.With(name).Set(secs)
	if secs <= 0 {
		secs = 0.001 // sub-millisecond shard; avoid a division blowup
	}
	m.workerThroughput.With(name).Set(float64(s.Cells) / secs)
}

// Metrics exposes the coordinator's registry, for embedders that want to
// mount it somewhere other than the built-in /metrics route.
func (c *Coordinator) Metrics() *obs.Registry { return c.m.reg }

// Events exposes the shard-lifecycle event ring behind GET /events.
func (c *Coordinator) Events() *obs.Ring { return c.m.ring }
