package dispatch

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"turbulence/internal/core"
	"turbulence/internal/media"
	"turbulence/internal/netem"
	"turbulence/internal/wire"
)

// testPlan is the dispatch suite's run space: 3 pairs × (faithful + dsl)
// = 6 cells, small enough to run many times, rich enough that canonical
// order, scenario labels and per-cell seeds all matter.
func testPlan(t *testing.T) *core.Plan {
	t.Helper()
	dsl, err := netem.Find("dsl")
	if err != nil {
		t.Fatal(err)
	}
	return core.NewPlan(7).
		ForPairs(
			core.PairKey{Set: 1, Class: media.Low},
			core.PairKey{Set: 3, Class: media.Low},
			core.PairKey{Set: 2, Class: media.High},
		).
		UnderScenarios(nil, dsl)
}

// unshardedGob is the ground truth: a single-process Runner.Run of the
// plan under StreamProfiles, flattened to wire shape and gob-encoded.
func unshardedGob(t *testing.T, plan *core.Plan) []byte {
	t.Helper()
	results, err := core.NewRunner(
		core.WithWorkers(0),
		core.WithTraceRetention(core.StreamProfiles),
	).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wire.WriteGob(&buf, wire.FromResults(results)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDispatchedSweepMatchesUnsharded is the headline pin: a coordinator
// plus N pulling workers — including one that takes a lease and dies —
// collect results byte-identical to a single-process Runner.Run.
// Determinism survives distribution, worker death, lease requeue and
// out-of-order completion.
func TestDispatchedSweepMatchesUnsharded(t *testing.T) {
	plan := testPlan(t)
	want := unshardedGob(t, plan)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// The TTL is generous so a slow-but-alive worker is never
			// double-leased (that would break the completed-shard count);
			// the dead worker's expiry is forced below, and real-TTL
			// expiry is pinned by TestLeaseExpiryAndLateCompletion.
			c, err := New(plan,
				WithShards(4),
				WithLeaseTTL(time.Minute),
				WithRetry(10*time.Millisecond),
			)
			if err != nil {
				t.Fatal(err)
			}

			// A worker leases a shard and dies mid-lease: its claim must
			// expire and the shard reach a live worker.
			dead := Loopback(c, WithName("doomed"))
			grant, err := dead.Lease("doomed")
			if err != nil {
				t.Fatal(err)
			}
			if grant.LeaseID == "" {
				t.Fatalf("doomed worker got no work: %+v", grant)
			}
			c.mu.Lock()
			c.deadlines[grant.LeaseID] = time.Time{} // the crash, observed
			c.mu.Unlock()

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			var wg sync.WaitGroup
			completed := make([]int, workers)
			errs := make([]error, workers)
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w := NewWorker(Loopback(c),
						WithName(fmt.Sprintf("w%d", i)),
						WithRunWorkers(1),
						WithRetry(10*time.Millisecond),
					)
					completed[i], errs[i] = w.Run(ctx)
				}()
			}
			merged, err := c.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			total := 0
			for i := range errs {
				if errs[i] != nil {
					t.Fatalf("worker %d: %v", i, errs[i])
				}
				total += completed[i]
			}
			if total != 4 {
				t.Fatalf("workers completed %d shards, want 4 (the dead worker's shard must be re-done)", total)
			}

			var buf bytes.Buffer
			if err := wire.WriteGob(&buf, merged); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("dispatched sweep differs from unsharded run (%d vs %d bytes)", buf.Len(), len(want))
			}
		})
	}
}

// TestWorkerKeepsTestbedsAcrossLeases pins a worker's testbed lifecycle:
// one worker running one cell per lease builds each testbed shape once
// for its whole life and re-arms it by Reset for every later lease, and
// the reuse leaves the merge byte-identical to an unsharded run.
func TestWorkerKeepsTestbedsAcrossLeases(t *testing.T) {
	plan := testPlan(t) // two testbed shapes: faithful and dsl
	want := unshardedGob(t, plan)
	c, err := New(plan, WithShards(plan.Size()), WithLeaseTTL(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := NewWorker(Loopback(c), WithName("solo"), WithRunWorkers(1)).Run(ctx)
		done <- err
	}()
	merged, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := wire.WriteGob(&buf, merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("sweep with reused testbeds differs from unsharded run (%d vs %d bytes)", buf.Len(), len(want))
	}
	_, labeled := scrapeURL(t, &http.Client{Transport: loopbackTransport{h: c.Handler()}}, "http://loopback")
	built := labeled["turbulence_dispatch_worker_testbeds_built_total"][`worker="solo"`]
	reused := labeled["turbulence_dispatch_worker_testbeds_reused_total"][`worker="solo"`]
	if built != 2 || reused != float64(plan.Size()-2) {
		t.Fatalf("worker built %v testbeds and reused %v over %d one-cell leases, want 2 built (one per shape) and %d reused",
			built, reused, plan.Size(), plan.Size()-2)
	}
}

// TestLeaseExpiryAndLateCompletion pins the lease lifecycle corner cases:
// expired leases requeue their shard, a late completion on an expired
// lease is still accepted when the shard is open (work is not wasted), a
// duplicate completion after reissue is an idempotent no-op, and unknown
// leases are rejected.
func TestLeaseExpiryAndLateCompletion(t *testing.T) {
	plan := testPlan(t)
	c, err := New(plan, WithShards(2), WithLeaseTTL(40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := c.Lease("a")
	g2, _ := c.Lease("b")
	if g1.LeaseID == "" || g2.LeaseID == "" {
		t.Fatalf("expected two grants, got %+v / %+v", g1, g2)
	}
	if g, _ := c.Lease("c"); !g.Wait {
		t.Fatalf("queue exhausted but lease did not say wait: %+v", g)
	}

	time.Sleep(50 * time.Millisecond) // both leases expire

	// The shard comes back under a fresh lease.
	g3, _ := c.Lease("c")
	if g3.LeaseID == "" {
		t.Fatalf("expired shard was not requeued: %+v", g3)
	}
	if pending, leased, done := c.Counts(); leased != 1 || done != 0 || pending != 1 {
		t.Fatalf("counts after expiry: pending=%d leased=%d done=%d", pending, leased, done)
	}

	// fakeRuns builds a plausible batch for a shard (profiles don't
	// matter to the queue; indices and count do).
	fakeRuns := func(shard, shards int) []wire.Run {
		var runs []wire.Run
		for _, k := range plan.Shard(shard, shards).Keys() {
			runs = append(runs, wire.Run{Index: k.Index, Set: k.Pair.Set, Class: k.Pair.Class.String(),
				Comparison: &core.Comparison{Set: k.Pair.Set}})
		}
		return runs
	}

	// Late completion on the expired g1: accepted, because its shard is
	// still open somewhere.
	if err := c.Complete(g1.LeaseID, fakeRuns(g1.Shard, g1.Shards)); err != nil {
		t.Fatalf("late completion rejected: %v", err)
	}
	// The reissued lease for the same shard now lands on a done shard:
	// idempotent no-op (g3 covers whichever shard expired first; complete
	// both old grants, then g3's duplicate must be absorbed).
	if err := c.Complete(g2.LeaseID, fakeRuns(g2.Shard, g2.Shards)); err != nil {
		t.Fatalf("late completion rejected: %v", err)
	}
	if err := c.Complete(g3.LeaseID, fakeRuns(g3.Shard, g3.Shards)); err != nil {
		t.Fatalf("duplicate completion not absorbed: %v", err)
	}
	if !c.Done() {
		t.Fatal("coordinator not done after both shards completed")
	}
	if err := c.Complete("lease-999-shard-0", nil); err == nil {
		t.Fatal("unknown lease accepted")
	}
	if g, _ := c.Lease("d"); !g.Done {
		t.Fatalf("lease after completion should say done: %+v", g)
	}
}

// TestLeaseSkipsDoneShards pins the requeue/late-complete interleaving:
// a shard whose lease expired sits in pending; its presumed-dead worker's
// completion then lands; the next lease must skip the (done) shard rather
// than re-issue it and burn a worker on already-collected cells.
func TestLeaseSkipsDoneShards(t *testing.T) {
	plan := testPlan(t)
	c, err := New(plan, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := c.Lease("a")
	c.mu.Lock()
	c.deadlines[g1.LeaseID] = time.Time{}
	c.mu.Unlock()
	c.Counts() // expiry scan requeues g1's shard into pending
	var runs []wire.Run
	for _, k := range plan.Shard(g1.Shard, g1.Shards).Keys() {
		runs = append(runs, wire.Run{Index: k.Index, Set: k.Pair.Set, Class: k.Pair.Class.String()})
	}
	if err := c.Complete(g1.LeaseID, runs); err != nil {
		t.Fatalf("late completion rejected: %v", err)
	}
	g2, _ := c.Lease("b")
	if g2.LeaseID == "" {
		t.Fatalf("expected a grant for an open shard, got %+v", g2)
	}
	if g2.Shard == g1.Shard {
		t.Fatalf("done shard %d re-leased", g1.Shard)
	}
}

// TestCompleteRejectsBadBatches pins the collector's protocol checks:
// short batches with no explaining error, and cells outside the leased
// shard, are rejected and the shard requeued.
func TestCompleteRejectsBadBatches(t *testing.T) {
	plan := testPlan(t)
	c, err := New(plan, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := c.Lease("a")
	if err := c.Complete(g.LeaseID, nil); err == nil {
		t.Fatal("short batch accepted")
	}
	g2, _ := c.Lease("a")
	if g2.Shard != g.Shard {
		t.Fatalf("rejected shard not requeued first: got %d, want %d", g2.Shard, g.Shard)
	}
	bad := []wire.Run{{Index: g2.Shard + 1}} // wrong stride residue
	if err := c.Complete(g2.LeaseID, bad); err == nil {
		t.Fatal("out-of-shard cell accepted")
	}
	// A short batch that carries a cell error is a fail-fast result, not
	// a protocol violation.
	g3, _ := c.Lease("a")
	failed := []wire.Run{{Index: g3.Shard, Err: "boom"}}
	if err := c.Complete(g3.LeaseID, failed); err != nil {
		t.Fatalf("fail-fast batch rejected: %v", err)
	}
}

// TestWireVersionMismatch drives the HTTP wire (over the loopback — no
// sockets) with wrong versions on both endpoints and pins the loud
// rejections.
func TestWireVersionMismatch(t *testing.T) {
	c, err := New(testPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Transport: loopbackTransport{h: c.Handler()}}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire.LeaseRequest{Version: wire.Version + 1, Worker: "x"}); err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Post("http://loopback/lease", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("lease with wrong version: %s", resp.Status)
	}

	req, _ := http.NewRequest(http.MethodPost, "http://loopback/complete", bytes.NewReader(nil))
	req.Header.Set("X-Turbulence-Lease", "lease-1-shard-0")
	req.Header.Set("X-Turbulence-Wire-Version", strconv.Itoa(wire.Version+1))
	resp, err = hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("complete with wrong version: %s", resp.Status)
	}
	var a wire.Ack
	if err := gob.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	if a.OK || a.Err == "" {
		t.Fatalf("expected rejecting ack, got %+v", a)
	}
}

// TestWaitDrainsOnCancel pins the graceful-drain path: cancelling the
// collector's context returns the partial merge and flips the queue to
// Done for every pulling worker.
func TestWaitDrainsOnCancel(t *testing.T) {
	c, err := New(testPlan(t), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs, err := c.Wait(ctx)
	if err != context.Canceled {
		t.Fatalf("Wait on cancelled ctx: %v", err)
	}
	if len(runs) != 0 {
		t.Fatalf("no shards completed but Wait returned %d runs", len(runs))
	}
	if g, _ := c.Lease("w"); !g.Done {
		t.Fatalf("drained coordinator still leasing: %+v", g)
	}
}

// TestServeListenerEndToEnd runs the real HTTP server on an ephemeral
// localhost port with one in-process worker — the socket path the CI
// smoke job exercises across processes, pinned here in miniature.
func TestServeListenerEndToEnd(t *testing.T) {
	plan := core.NewPlan(7).ForPairs(core.PairKey{Set: 1, Class: media.Low})
	want := unshardedGob(t, plan)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on localhost: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	base := "http://" + ln.Addr().String()
	done := make(chan struct{})
	var workErr error
	go func() {
		defer close(done)
		_, workErr = Work(ctx, base,
			WithName("sock"),
			WithRunWorkers(1),
			WithRetry(20*time.Millisecond),
		)
	}()
	runs, err := ServeListener(ctx, ln, plan, WithLinger(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if workErr != nil {
		t.Fatal(workErr)
	}
	var buf bytes.Buffer
	if err := wire.WriteGob(&buf, runs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("served sweep differs from unsharded run")
	}
}
