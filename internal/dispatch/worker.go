package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"turbulence/internal/core"
	"turbulence/internal/wire"
)

// StatsQueue is the optional Queue extension for shipping a worker's
// self-measured shard stats alongside a completion. Both the Coordinator
// (in process) and the Client (as an HTTP header) implement it; a worker
// driving a queue that doesn't simply falls back to plain Complete and
// the measurements are not shipped.
type StatsQueue interface {
	Queue
	CompleteStats(leaseID string, runs []wire.Run, stats *wire.WorkerStats) error
}

// RetryCounter is the optional Queue extension exposing cumulative
// transport retries (the Client implements it); workers difference it
// around a shard for WorkerStats.Retries.
type RetryCounter interface {
	Retries() uint64
}

// Worker is the dumb half of the dispatcher: pull a lease, run the shard,
// ship the results, repeat until the coordinator says Done. Everything it
// needs to execute arrives in the lease grant — which is what makes
// workers interchangeable and safe to kill. The one thing it keeps between
// shards is its Runner's pool of testbeds, built once per shape for the
// worker's life and re-armed by Reset for every cell, which never changes
// a result.
type Worker struct {
	q      Queue
	cfg    Config
	runner *core.Runner
}

// NewWorker builds a worker pulling from q. Relevant options: WithName,
// WithRunWorkers, WithRetry, WithHeartbeat, WithRunContext, WithLogf,
// WithResultStore.
func NewWorker(q Queue, opts ...Option) *Worker {
	cfg := newConfig(opts)
	runnerOpts := []core.RunnerOption{
		core.WithWorkers(cfg.RunWorkers),
		core.WithTraceRetention(core.StreamProfiles),
	}
	if cfg.Store != nil {
		// Local read-through cache: cells this worker (or a co-located
		// sweep) has already simulated are served from disk even when the
		// coordinator is remote and has no store of its own.
		runnerOpts = append(runnerOpts, core.WithResultStore(cfg.Store))
	}
	return &Worker{q: q, cfg: cfg, runner: core.NewRunner(runnerOpts...)}
}

// Run pulls and executes shards until the coordinator reports Done,
// returning how many shards this worker completed. Cancelling ctx drains
// gracefully: the current shard still finishes and ships (bounded work —
// one shard), no further leases are taken, and Run returns nil. Hard
// cancellation is the RunContext option: when it fires, the in-flight
// simulation aborts between events, the lease is abandoned to expiry, and
// Run returns the context's error.
//
// While a shard simulates, a heartbeat goroutine renews its lease every
// Heartbeat (default TTL/3), so the coordinator's LeaseTTL can stay tight
// — fast detection of dead workers — without double-running shards that
// legitimately outlive it. A rejected renewal means the lease is gone
// (the coordinator restarted, or presumed us dead and re-issued the
// shard): the worker aborts the orphaned simulation mid-event and pulls a
// fresh lease instead of shipping a late duplicate.
//
// Failure is an input, not an exit: an unreachable coordinator (retry
// budget exhausted) drains the worker — log, stop pulling, return nil —
// and a rejected completion is logged and skipped, because the
// coordinator requeues or quarantines the shard on its side. Only a
// version-mismatched coordinator and the hard-cancel context are fatal.
//
// Shards execute with core.Runner under StreamProfiles retention, so a
// worker's memory is O(RunWorkers × analyzer state) — no trace is ever
// materialised, however large the leased plan.
func (w *Worker) Run(ctx context.Context) (completed int, err error) {
	for {
		// A fired RunContext is the abort signal wherever it is observed —
		// mid-shard or between leases must exit the same way.
		if err := w.cfg.RunContext.Err(); err != nil {
			return completed, err
		}
		if ctx.Err() != nil {
			w.cfg.Logf("dispatch: %s draining after %d shards", w.cfg.Name, completed)
			return completed, nil
		}
		grant, err := w.q.Lease(w.cfg.Name)
		if err != nil {
			if errors.Is(err, ErrUnreachable) {
				w.cfg.Logf("dispatch: %s: coordinator unreachable, draining after %d shards: %v", w.cfg.Name, completed, err)
				return completed, nil
			}
			return completed, fmt.Errorf("dispatch: %s: lease: %w", w.cfg.Name, err)
		}
		switch {
		case grant.Version != wire.Version:
			return completed, fmt.Errorf("dispatch: %s: coordinator speaks wire version %d, this worker %d", w.cfg.Name, grant.Version, wire.Version)
		case grant.Done:
			w.cfg.Logf("dispatch: %s done after %d shards", w.cfg.Name, completed)
			return completed, nil
		case grant.Wait:
			if !sleep(ctx, time.Duration(grant.RetryMillis)*time.Millisecond, w.cfg.Retry) {
				return completed, nil
			}
			continue
		}
		// Self-measurement brackets the shard: wall time and renewals come
		// out of runShard, transport retries are differenced around it.
		var retriesBefore uint64
		rc, hasRetries := w.q.(RetryCounter)
		if hasRetries {
			retriesBefore = rc.Retries()
		}
		runs, orphaned, stats, err := w.runShard(grant)
		if err != nil {
			return completed, err
		}
		if orphaned {
			// The lease was lost mid-run (coordinator restart, or it
			// presumed us dead): the shard belongs to someone else now.
			// Nothing to ship; pull fresh work.
			w.cfg.Logf("dispatch: %s: lease %s lost mid-shard, aborted without shipping", w.cfg.Name, grant.LeaseID)
			continue
		}
		if runs == nil {
			// Hard-cancelled mid-simulation: abandon the lease (it will
			// expire and requeue) and report why we stopped.
			return completed, w.cfg.RunContext.Err()
		}
		if hasRetries {
			stats.Retries = rc.Retries() - retriesBefore
		}
		if err := w.complete(grant.LeaseID, runs, &stats); err != nil {
			if errors.Is(err, ErrUnreachable) {
				w.cfg.Logf("dispatch: %s: coordinator unreachable shipping %s, draining after %d shards: %v", w.cfg.Name, grant.LeaseID, completed, err)
				return completed, nil
			}
			// A conclusive rejection (unknown lease after a coordinator
			// restart, a quarantined shard): the work is lost but the
			// queue is intact — the coordinator re-issues or parks the
			// shard. Log and keep pulling rather than dying mid-fleet.
			w.cfg.Logf("dispatch: %s: complete %s rejected, continuing: %v", w.cfg.Name, grant.LeaseID, err)
			continue
		}
		completed++
	}
}

// complete ships a batch, with stats when the queue can carry them.
func (w *Worker) complete(leaseID string, runs []wire.Run, stats *wire.WorkerStats) error {
	if sq, ok := w.q.(StatsQueue); ok {
		return sq.CompleteStats(leaseID, runs, stats)
	}
	return w.q.Complete(leaseID, runs)
}

// runShard reconstructs the granted plan, executes the leased slice under
// a renewal heartbeat, and flattens the results to their wire shape.
// orphaned means the lease was lost mid-run and the shard aborted; a nil,
// false return means the run was hard-cancelled mid-simulation. The
// returned stats carry the worker's self-measurement for the shard —
// wall time, cell count, renewals — except Retries, which the caller
// differences around this call.
func (w *Worker) runShard(grant wire.LeaseGrant) (runs []wire.Run, orphaned bool, stats wire.WorkerStats, err error) {
	stats = wire.WorkerStats{Version: wire.StatsVersion, Worker: w.cfg.Name, Shard: grant.Shard}
	plan, err := grant.Plan.Plan()
	if err != nil {
		return nil, false, stats, fmt.Errorf("dispatch: %s: lease %s: %w", w.cfg.Name, grant.LeaseID, err)
	}
	shard := plan.Shard(grant.Shard, grant.Shards)
	if len(grant.CachedCells) > 0 {
		// The coordinator already holds these cells from its result store;
		// simulating them here would be correct but wasted work.
		shard = shard.Omitting(grant.CachedCells...)
	}
	w.cfg.Logf("dispatch: %s running shard %d/%d (%d cells) as %s", w.cfg.Name, grant.Shard, grant.Shards, shard.Size(), grant.LeaseID)

	// The run context is a child of the hard-cancel context: either the
	// operator's abort or a lost lease stops the simulation between
	// events; the two are told apart afterwards by RunContext.Err.
	runCtx, cancelRun := context.WithCancel(w.cfg.RunContext)
	defer cancelRun()
	var lost atomic.Bool
	var renewals atomic.Int64
	stopHeartbeat := w.heartbeat(grant, &lost, cancelRun, &renewals)

	// The lease's Runner is a shallow copy of the worker's, so it shares
	// the worker's testbed pool; only the context and the stats hook are
	// the lease's own.
	runner := *w.runner
	core.WithContext(runCtx)(&runner)
	core.WithSweepStats(func(sw core.SweepStats) {
		stats.TestbedsBuilt = sw.TestbedsBuilt
		stats.TestbedsReused = sw.TestbedsReused
	})(&runner)
	// A cell error is a result, not a transport failure: the batch ships
	// with the Err run inside (fail-fast leaves it short, which the
	// coordinator accepts exactly because the error explains the gap), so
	// the collector can surface *which* cell failed instead of leasing the
	// poisoned shard forever. Hence Run's error is ignored here — it is
	// already in the results.
	start := time.Now()
	results, _ := runner.Run(shard)
	stats.RunMillis = time.Since(start).Milliseconds()
	stopHeartbeat()
	stats.Renewals = int(renewals.Load())
	if w.cfg.RunContext.Err() != nil {
		return nil, false, stats, nil
	}
	if lost.Load() {
		return nil, true, stats, nil
	}
	runs = wire.FromResults(results)
	stats.Cells = len(runs)
	return runs, false, stats, nil
}

// heartbeat keeps grant's lease alive while the shard simulates: renew at
// every interval tick, and on a conclusive ErrLeaseLost set lost and
// cancel the run — the shard is orphaned and finishing it would only ship
// a late duplicate. Transport trouble is not a verdict: the renew call
// already retried under its budget, and the lease may still be honoured,
// so the loop keeps beating until the lease is conclusively gone or the
// shard ends. Returns a stop function (idempotent enough for one caller)
// that waits for the goroutine to exit.
func (w *Worker) heartbeat(grant wire.LeaseGrant, lost *atomic.Bool, cancelRun context.CancelFunc, renewals *atomic.Int64) (stop func()) {
	ttl := time.Duration(grant.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		return func() {}
	}
	interval := w.cfg.Heartbeat
	if interval <= 0 {
		interval = ttl / 3
	}
	if interval < 2*time.Millisecond {
		interval = 2 * time.Millisecond
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			err := w.q.Renew(grant.LeaseID, w.cfg.Name)
			switch {
			case err == nil:
				renewals.Add(1)
			case errors.Is(err, ErrLeaseLost):
				w.cfg.Logf("dispatch: %s: renew %s: %v — aborting shard", w.cfg.Name, grant.LeaseID, err)
				lost.Store(true)
				cancelRun()
				return
			default:
				// Unreachable or garbled: keep the simulation going and
				// keep trying — if the lease really lapsed, the next
				// conclusive answer (or the completion itself) settles it.
				w.cfg.Logf("dispatch: %s: renew %s: %v", w.cfg.Name, grant.LeaseID, err)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// sleep waits for the coordinator's retry hint (or fallback when the hint
// is absent) plus up to 25% jitter — idle workers polling one coordinator
// should not do so in lockstep — returning false if ctx cancelled first.
func sleep(ctx context.Context, hint, fallback time.Duration) bool {
	if hint <= 0 {
		hint = fallback
	}
	hint += rand.N(hint/4 + 1)
	t := time.NewTimer(hint)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
