package dispatch

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"turbulence/internal/wire"
)

// postRaw sends body to path on c's handler with the given headers and
// returns the response, fully read.
func postRaw(t *testing.T, c *Coordinator, path string, header map[string]string, body []byte) (*http.Response, []byte) {
	t.Helper()
	hc := &http.Client{Transport: loopbackTransport{h: c.Handler()}}
	req, err := http.NewRequest(http.MethodPost, "http://loopback"+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func decodeAck(t *testing.T, b []byte) wire.Ack {
	t.Helper()
	var a wire.Ack
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&a); err != nil {
		t.Fatalf("ack did not decode: %v (%d bytes)", err, len(b))
	}
	return a
}

// TestWireMalformedBodies pins the handler hardening: garbage and
// truncated gob on every POST answer a clean 4xx — marked retriable, since
// the wire may have eaten the bytes — with no panic and no stranded shard.
func TestWireMalformedBodies(t *testing.T) {
	plan := testPlan(t)
	c, err := New(plan, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}

	// Garbage /lease body: retriable 400, plain-text error.
	resp, _ := postRaw(t, c, "/lease", nil, []byte("\x01\x02 not gob"))
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(retriableHeader) == "" {
		t.Fatalf("garbage lease: %s retriable=%q", resp.Status, resp.Header.Get(retriableHeader))
	}
	// Garbage /renew body: retriable 400 with a decodable rejecting ack.
	resp, body := postRaw(t, c, "/renew", nil, []byte("junk"))
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(retriableHeader) == "" {
		t.Fatalf("garbage renew: %s retriable=%q", resp.Status, resp.Header.Get(retriableHeader))
	}
	if a := decodeAck(t, body); a.OK {
		t.Fatal("garbage renew acked OK")
	}

	// Truncated /complete body: the shard must come back leasable under the
	// same lease's retry or a fresh one — not wedge behind a dead claim.
	g, _ := c.Lease("w")
	if g.LeaseID == "" {
		t.Fatalf("no lease: %+v", g)
	}
	full, err := encodeGobRuns(batchFor(plan, g.Shard, g.Shards))
	if err != nil {
		t.Fatal(err)
	}
	whole, _ := io.ReadAll(full)
	header := map[string]string{
		leaseHeader:   g.LeaseID,
		versionHeader: strconv.Itoa(wire.Version),
	}
	resp, body = postRaw(t, c, "/complete", header, whole[:len(whole)/2])
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(retriableHeader) == "" {
		t.Fatalf("truncated complete: %s retriable=%q", resp.Status, resp.Header.Get(retriableHeader))
	}
	if a := decodeAck(t, body); a.OK {
		t.Fatal("truncated complete acked OK")
	}
	// The worker retries the same lease with the intact copy: accepted.
	resp, body = postRaw(t, c, "/complete", header, whole)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("intact retry after truncation: %s", resp.Status)
	}
	if a := decodeAck(t, body); !a.OK {
		t.Fatalf("intact retry rejected: %+v", a)
	}

	// The queue survived all of it: the other shard completes normally.
	g2, _ := c.Lease("w")
	if g2.LeaseID == "" {
		t.Fatalf("queue wedged after malformed traffic: %+v", g2)
	}
	if err := c.Complete(g2.LeaseID, batchFor(plan, g2.Shard, g2.Shards)); err != nil {
		t.Fatal(err)
	}
	if !c.Done() {
		t.Fatal("sweep not done")
	}
}

// TestWireOversizedBody pins the body cap: a /complete body over
// MaxBodyBytes answers 413 without the retriable marker (re-sending the
// same elephant will not help) and without ballooning coordinator memory.
func TestWireOversizedBody(t *testing.T) {
	plan := testPlan(t)
	c, err := New(plan, WithShards(2), WithMaxBodyBytes(1024))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := c.Lease("w")
	if g.LeaseID == "" {
		t.Fatalf("no lease: %+v", g)
	}
	// A well-formed gob batch far over the cap: the decoder must hit the
	// byte limit, not a parse error, so the rejection is deterministic.
	big, err := encodeGobRuns([]wire.Run{{Index: g.Shard, Err: strings.Repeat("A", 1<<20)}})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(big)
	header := map[string]string{
		leaseHeader:   g.LeaseID,
		versionHeader: strconv.Itoa(wire.Version),
	}
	resp, ackBytes := postRaw(t, c, "/complete", header, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized complete: %s, want 413", resp.Status)
	}
	if resp.Header.Get(retriableHeader) != "" {
		t.Fatal("oversized complete marked retriable")
	}
	if a := decodeAck(t, ackBytes); a.OK {
		t.Fatal("oversized complete acked OK")
	}
	// The shard is back in the queue for an honest worker.
	g2, _ := c.Lease("w")
	if g2.LeaseID == "" || g2.Shard != g.Shard {
		t.Fatalf("oversized shard not requeued: %+v", g2)
	}
}

// TestWireRenewAndHeaderErrors pins the remaining 4xx paths: renewing an
// unknown lease is a conclusive 409, /complete without its identity
// headers is a conclusive 400, and an unknown wire version is refused on
// every verb.
func TestWireRenewAndHeaderErrors(t *testing.T) {
	plan := testPlan(t)
	c, err := New(plan, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire.RenewRequest{Version: wire.Version, LeaseID: "lease-feed-1-shard-0", Worker: "x"}); err != nil {
		t.Fatal(err)
	}
	resp, body := postRaw(t, c, "/renew", nil, buf.Bytes())
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unknown-lease renew: %s, want 409", resp.Status)
	}
	if a := decodeAck(t, body); a.OK || a.Err == "" {
		t.Fatalf("unknown-lease renew ack: %+v", a)
	}

	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(wire.RenewRequest{Version: wire.Version + 7, LeaseID: "x", Worker: "x"}); err != nil {
		t.Fatal(err)
	}
	resp, body = postRaw(t, c, "/renew", nil, buf.Bytes())
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(retriableHeader) != "" {
		t.Fatalf("version-mismatch renew: %s retriable=%q", resp.Status, resp.Header.Get(retriableHeader))
	}
	if a := decodeAck(t, body); a.OK {
		t.Fatal("version-mismatch renew acked OK")
	}

	// /complete without a lease header, and with an unparsable version.
	resp, body = postRaw(t, c, "/complete", map[string]string{versionHeader: strconv.Itoa(wire.Version)}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("complete without lease header: %s", resp.Status)
	}
	if a := decodeAck(t, body); a.OK {
		t.Fatal("complete without lease header acked OK")
	}
	resp, body = postRaw(t, c, "/complete", map[string]string{leaseHeader: "l", versionHeader: "banana"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("complete with garbage version: %s", resp.Status)
	}
	if a := decodeAck(t, body); a.OK {
		t.Fatal("complete with garbage version acked OK")
	}
}

// TestRejectDuplicateOneStrike pins Reject's per-lease idempotency: the
// chaos transport duplicates requests, so the same undecodable delivery
// can reach the coordinator twice — one failure, one strike, not an
// accelerated march into quarantine. The lease stays retryable: the
// intact copy still lands.
func TestRejectDuplicateOneStrike(t *testing.T) {
	plan := testPlan(t)
	c, err := New(plan, WithShards(2), WithMaxShardFailures(2))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := c.Lease("w")
	if g.LeaseID == "" {
		t.Fatalf("no lease: %+v", g)
	}
	reason := errors.New("unexpected EOF")
	if err := c.Reject(g.LeaseID, reason); err != nil {
		t.Fatal(err)
	}
	if err := c.Reject(g.LeaseID, reason); err != nil { // the duplicate
		t.Fatal(err)
	}
	c.mu.Lock()
	strikes := c.strikes[g.Shard]
	c.mu.Unlock()
	if strikes != 1 {
		t.Fatalf("duplicate reject charged %d strikes, want 1", strikes)
	}
	if parked := c.Quarantined(); len(parked) != 0 {
		t.Fatalf("duplicate reject quarantined shard %v", parked)
	}
	if err := c.Complete(g.LeaseID, batchFor(plan, g.Shard, g.Shards)); err != nil {
		t.Fatalf("intact retry after rejects: %v", err)
	}
}

// TestRenewVersionMismatchNotLeaseLost pins the client-side triage of a
// conclusive renew rejection: only the coordinator's 409 lease-loss
// verdict is ErrLeaseLost; a wire-version rejection (400) must surface as
// its own fatal error, or a version-skewed worker would abort every
// healthy shard as orphaned.
func TestRenewVersionMismatchNotLeaseLost(t *testing.T) {
	reject := func(w http.ResponseWriter, status int, msg string) {
		w.WriteHeader(status)
		gob.NewEncoder(w).Encode(wire.Ack{Version: wire.Version, OK: false, Err: msg})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /renew", func(w http.ResponseWriter, r *http.Request) {
		reject(w, http.StatusBadRequest, "dispatch: wire version 99, coordinator speaks 1")
	})
	cl := NewClient("http://loopback", WithTransport(loopbackTransport{h: mux}), WithMaxAttempts(1))
	err := cl.Renew("lease-feed-1-shard-0", "w")
	if err == nil {
		t.Fatal("version-mismatch renew succeeded")
	}
	if errors.Is(err, ErrLeaseLost) {
		t.Fatalf("version mismatch reported as lease loss: %v", err)
	}

	// The real coordinator's unknown-lease 409 still maps to ErrLeaseLost.
	plan := testPlan(t)
	c, err := New(plan, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	cl = Loopback(c, WithMaxAttempts(1))
	if err := cl.Renew("lease-feed-1-shard-0", "w"); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("unknown-lease renew: %v, want ErrLeaseLost", err)
	}
}

// TestStatusReportsQuarantine pins /status as the operator's view of a
// degraded sweep: epoch, carve, progress and the parked shards.
func TestStatusReportsQuarantine(t *testing.T) {
	plan := testPlan(t)
	c, err := New(plan, WithShards(2), WithMaxShardFailures(1))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := c.Lease("w")
	if err := c.Complete(g.LeaseID, nil); err == nil { // strike 1 → parked
		t.Fatal("short batch accepted")
	}
	hc := &http.Client{Transport: loopbackTransport{h: c.Handler()}}
	resp, err := hc.Get("http://loopback/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusReport
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.Epoch != c.Epoch() {
		t.Fatalf("status carve/epoch: %+v", st)
	}
	if len(st.Quarantined) != 1 || st.Quarantined[0] != g.Shard {
		t.Fatalf("status quarantine: %+v, want shard %d parked", st, g.Shard)
	}
}

// TestCompleteRejectsMisplacedCells pins the validator's cell checks on a
// batch whose count is right: a repeated cell Index, a cell from another
// shard, and cells on the shard's stride but outside the plan are each a
// protocol violation, rejected with one strike apiece, and the shard
// still completes from an honest batch afterwards.
func TestCompleteRejectsMisplacedCells(t *testing.T) {
	plan := testPlan(t)
	c, err := New(plan, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := c.Lease("w")
	if g.LeaseID == "" {
		t.Fatalf("no lease: %+v", g)
	}
	good := batchFor(plan, g.Shard, g.Shards)
	last := len(good) - 1
	swapLast := func(idx int) []wire.Run {
		b := append([]wire.Run(nil), good...)
		b[last].Index = idx
		return b
	}
	bad := map[string][]wire.Run{
		"repeated Index":      swapLast(good[0].Index),
		"other shard's cell":  swapLast(good[last].Index + 1),
		"past the plan's end": swapLast(plan.Size() + g.Shard),
		"negative Index":      swapLast(g.Shard - g.Shards),
	}
	strikes := 0
	for name, runs := range bad {
		if err := c.Complete(g.LeaseID, runs); err == nil {
			t.Fatalf("%s: batch accepted", name)
		}
		strikes++
		c.mu.Lock()
		got := c.strikes[g.Shard]
		c.mu.Unlock()
		if got != strikes {
			t.Fatalf("%s: shard has %d strikes, want %d", name, got, strikes)
		}
	}
	if err := c.Complete(g.LeaseID, good); err != nil {
		t.Fatalf("honest batch after rejections: %v", err)
	}
}
