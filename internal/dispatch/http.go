package dispatch

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"turbulence/internal/core"
	"turbulence/internal/obs"
	"turbulence/internal/wire"
)

// The HTTP wire: three POSTs and a status probe.
//
//	POST /lease     gob wire.LeaseRequest  → gob wire.LeaseGrant
//	POST /renew     gob wire.RenewRequest  → gob wire.Ack
//	POST /complete  EncodeRunsGob body     → gob wire.Ack
//	                (lease id and version travel in headers, so the body
//	                 is exactly the shard batch a shard process would
//	                 have written to a file)
//	GET  /status    → JSON StatusReport
//
// Rejections come in two flavours, told apart by the retriable header: a
// body that would not decode may be transport corruption (a chaos-injected
// truncation, a reset mid-stream), so the 4xx carries the header and the
// client retries with a fresh copy; version mismatches, unknown leases and
// oversized bodies are deterministic and fail fast without it. Request
// bodies are capped (Config.MaxBodyBytes) before decoding, so an oversized
// or malicious body is a clean 413, never a coordinator OOM.
// Observability rides the same mux read-only:
//
//	GET  /metrics   → Prometheus text exposition (always on)
//	GET  /events    → JSON EventsReport, the shard-lifecycle ring
//	     /debug/pprof/*  (only with Config.Pprof)
//
// and a completing worker may attach its self-measured WorkerStats as a
// JSON header on POST /complete. The header is optional and versioned
// independently of the gob envelopes: coordinators that predate it never
// look, coordinators that postdate the worker ignore unknown versions —
// either skew degrades to "no per-worker stats", never to an error.
const (
	leaseHeader     = "X-Turbulence-Lease"
	versionHeader   = "X-Turbulence-Wire-Version"
	retriableHeader = "X-Turbulence-Retriable"
	statsHeader     = "X-Turbulence-Worker-Stats"
)

// ErrUnreachable marks a client call that exhausted its retry budget
// without a conclusive answer. Workers treat it as "the coordinator is
// gone": drain gracefully instead of crashing — the sweep's state lives
// on the coordinator (and its checkpoint), not here.
var ErrUnreachable = errors.New("dispatch: coordinator unreachable")

// errTransient wraps response-parsing failures that a retry can plausibly
// cure (a grant or ack body that did not decode — truncated or reset by
// the network). Status-level retries (5xx, retriable 4xx) are handled
// before parsing; this is the body-level counterpart.
var errTransient = errors.New("dispatch: transient response error")

// StatusReport is the GET /status body. Its JSON shape is pinned by
// TestStatusReportShape: operators script against these keys, so a field
// rename is a breaking change even though the Go type is internal.
type StatusReport struct {
	Pending     int            `json:"pending"`
	Leased      int            `json:"leased"`
	Done        int            `json:"done"`
	Shards      int            `json:"shards"`
	Epoch       string         `json:"epoch"`
	Quarantined []int          `json:"quarantined,omitempty"`
	Failures    []ShardFailure `json:"failures,omitempty"`
}

// ShardFailure is the /status detail for one struck shard.
type ShardFailure struct {
	Shard       int    `json:"shard"`
	Strikes     int    `json:"strikes"`
	Quarantined bool   `json:"quarantined"`
	Reason      string `json:"reason,omitempty"`
}

// EventsReport is the GET /events body: the retained shard-lifecycle
// events oldest-first, plus how many were ever recorded (total > len
// means the ring wrapped and the oldest history was shed).
type EventsReport struct {
	Total  int         `json:"total"`
	Events []obs.Event `json:"events"`
}

// Handler exposes the coordinator over HTTP.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req wire.LeaseRequest
		if err := gob.NewDecoder(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)).Decode(&req); err != nil {
			w.Header().Set(retriableHeader, "1")
			http.Error(w, "dispatch: bad lease request: "+err.Error(), http.StatusBadRequest)
			return
		}
		if req.Version != wire.Version {
			http.Error(w, fmt.Sprintf("dispatch: wire version %d, coordinator speaks %d", req.Version, wire.Version), http.StatusBadRequest)
			return
		}
		grant, err := c.Lease(req.Worker)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if err := gob.NewEncoder(w).Encode(grant); err != nil {
			c.cfg.Logf("dispatch: encoding grant: %v", err)
		}
	})
	mux.HandleFunc("POST /renew", func(w http.ResponseWriter, r *http.Request) {
		ack := func(status int, err error) {
			a := wire.Ack{Version: wire.Version, OK: err == nil}
			if err != nil {
				a.Err = err.Error()
			}
			w.WriteHeader(status)
			if encErr := gob.NewEncoder(w).Encode(a); encErr != nil {
				c.cfg.Logf("dispatch: encoding ack: %v", encErr)
			}
		}
		var req wire.RenewRequest
		if err := gob.NewDecoder(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)).Decode(&req); err != nil {
			w.Header().Set(retriableHeader, "1")
			ack(http.StatusBadRequest, fmt.Errorf("dispatch: bad renew request: %w", err))
			return
		}
		if req.Version != wire.Version {
			ack(http.StatusBadRequest, fmt.Errorf("dispatch: wire version %d, coordinator speaks %d", req.Version, wire.Version))
			return
		}
		if err := c.Renew(req.LeaseID, req.Worker); err != nil {
			ack(http.StatusConflict, err)
			return
		}
		ack(http.StatusOK, nil)
	})
	mux.HandleFunc("POST /complete", func(w http.ResponseWriter, r *http.Request) {
		ack := func(status int, err error) {
			a := wire.Ack{Version: wire.Version, OK: err == nil}
			if err != nil {
				a.Err = err.Error()
			}
			w.WriteHeader(status)
			if encErr := gob.NewEncoder(w).Encode(a); encErr != nil {
				c.cfg.Logf("dispatch: encoding ack: %v", encErr)
			}
		}
		if v, err := strconv.Atoi(r.Header.Get(versionHeader)); err != nil || v != wire.Version {
			ack(http.StatusBadRequest, fmt.Errorf("dispatch: wire version %q, coordinator speaks %d", r.Header.Get(versionHeader), wire.Version))
			return
		}
		leaseID := r.Header.Get(leaseHeader)
		if leaseID == "" {
			ack(http.StatusBadRequest, errors.New("dispatch: complete without "+leaseHeader+" header"))
			return
		}
		runs, err := wire.ReadGob(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
		if err != nil {
			// The batch never decoded: requeue the shard (with a strike)
			// so the work is not stranded behind a lease nobody can
			// resolve. A truncated body may be the wire's fault — mark it
			// retriable so the worker re-sends its intact copy; an
			// oversized one is deterministic and is not.
			var tooBig *http.MaxBytesError
			oversized := errors.As(err, &tooBig)
			if rejErr := c.Reject(leaseID, err); rejErr != nil {
				err = fmt.Errorf("%v (%v)", err, rejErr)
			}
			if oversized {
				ack(http.StatusRequestEntityTooLarge, fmt.Errorf("dispatch: complete body over %d bytes", c.cfg.MaxBodyBytes))
				return
			}
			w.Header().Set(retriableHeader, "1")
			ack(http.StatusBadRequest, fmt.Errorf("dispatch: bad complete body: %w", err))
			return
		}
		// The optional worker-stats header: malformed or unknown-version
		// snapshots are dropped, never rejected — stats are telemetry,
		// and a skewed worker's batch is still good.
		var stats *wire.WorkerStats
		if h := r.Header.Get(statsHeader); h != "" {
			var ws wire.WorkerStats
			if json.Unmarshal([]byte(h), &ws) == nil && ws.Version == wire.StatsVersion {
				stats = &ws
			}
		}
		if err := c.CompleteStats(leaseID, runs, stats); err != nil {
			ack(http.StatusConflict, err)
			return
		}
		ack(http.StatusOK, nil)
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		pending, leased, done := c.Counts()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(StatusReport{
			Pending: pending, Leased: leased, Done: done,
			Shards: c.shards, Epoch: c.epoch, Quarantined: c.Quarantined(),
			Failures: c.Failures(),
		})
	})
	mux.Handle("GET /metrics", c.m.reg.Handler())
	mux.HandleFunc("GET /events", func(w http.ResponseWriter, r *http.Request) {
		events := c.m.ring.Snapshot()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(EventsReport{Total: c.m.ring.Total(), Events: events})
	})
	if c.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	}
	return mux
}

// Client speaks the coordinator's HTTP wire and implements Queue. Calls
// retry transient failures — transport errors, 5xx, retriable-marked 4xx,
// and response bodies that fail to decode — with jittered exponential
// backoff, bounded by both MaxAttempts and the MaxElapsed budget, and
// surface ErrUnreachable when the budget runs dry. Deterministic
// rejections (version mismatch, unknown lease) fail immediately.
type Client struct {
	base    string
	hc      *http.Client
	cfg     Config
	retries atomic.Uint64 // transport retries across all calls
}

// Retries reports how many retry attempts (beyond each call's first try)
// this client has spent, across all calls so far. Workers difference it
// around a shard to self-report retry pressure in WorkerStats.
func (cl *Client) Retries() uint64 { return cl.retries.Load() }

// NewClient builds a client for a coordinator at base ("http://host:port";
// a bare "host:port" gets the scheme prepended). Relevant options:
// WithRetry, WithMaxAttempts, WithRetryBudget, WithTransport, WithLogf.
func NewClient(base string, opts ...Option) *Client {
	cfg := newConfig(opts)
	hc := &http.Client{Timeout: requestTimeout, Transport: cfg.Transport}
	return &Client{base: NormalizeBase(base), hc: hc, cfg: cfg}
}

// NormalizeBase prepends http:// to a bare host:port, so -work addr and
// -serve addr can share spelling.
func NormalizeBase(base string) string {
	if base == "" {
		return base
	}
	for _, scheme := range []string{"http://", "https://"} {
		if len(base) >= len(scheme) && base[:len(scheme)] == scheme {
			return base
		}
	}
	return "http://" + base
}

// call sends one request with retry/backoff and hands conclusive
// responses to parse. Retried: transport errors, 5xx, 4xx carrying the
// retriable header, and parse results wrapping errTransient (a body that
// did not decode). The backoff doubles with equal jitter — half fixed,
// half uniform random — so a fleet of workers facing one flapping
// coordinator spreads its retries instead of synchronising into storms.
// Both MaxAttempts and the MaxElapsed wall-clock budget bound the loop;
// exhausting either yields an ErrUnreachable-wrapped error.
func (cl *Client) call(path string, header http.Header, body func() (io.Reader, error), parse func(*http.Response) error) error {
	backoff := cl.cfg.Retry
	start := time.Now()
	var lastErr error
	attempts := 0
	for ; attempts < cl.cfg.MaxAttempts; attempts++ {
		if attempts > 0 {
			d := backoff/2 + rand.N(backoff/2+1)
			if time.Since(start)+d > cl.cfg.MaxElapsed {
				break
			}
			cl.retries.Add(1)
			time.Sleep(d)
			if backoff < 8*time.Second {
				backoff *= 2
			}
		}
		b, err := body()
		if err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPost, cl.base+path, b)
		if err != nil {
			return err
		}
		for k, vs := range header {
			req.Header[k] = vs
		}
		resp, err := cl.hc.Do(req)
		if err != nil {
			lastErr = err
			cl.cfg.Logf("dispatch: %s %s attempt %d: %v", cl.cfg.Name, path, attempts+1, err)
			continue
		}
		if resp.StatusCode >= 500 || (resp.StatusCode >= 400 && resp.Header.Get(retriableHeader) != "") {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			lastErr = fmt.Errorf("dispatch: %s: %s", resp.Status, msg)
			cl.cfg.Logf("dispatch: %s %s attempt %d: %v", cl.cfg.Name, path, attempts+1, lastErr)
			continue
		}
		err = parse(resp)
		resp.Body.Close()
		if errors.Is(err, errTransient) {
			lastErr = err
			cl.cfg.Logf("dispatch: %s %s attempt %d: %v", cl.cfg.Name, path, attempts+1, err)
			continue
		}
		return err
	}
	return fmt.Errorf("%w: %s after %d attempts in %v: %v", ErrUnreachable, cl.base+path, attempts, time.Since(start).Round(time.Millisecond), lastErr)
}

// Lease implements Queue over the wire.
func (cl *Client) Lease(worker string) (wire.LeaseGrant, error) {
	var grant wire.LeaseGrant
	err := cl.call("/lease", nil,
		func() (io.Reader, error) {
			return encodeGob(wire.LeaseRequest{Version: wire.Version, Worker: worker})
		},
		func(resp *http.Response) error {
			if resp.StatusCode != http.StatusOK {
				msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
				return fmt.Errorf("dispatch: lease rejected: %s: %s", resp.Status, msg)
			}
			if err := gob.NewDecoder(resp.Body).Decode(&grant); err != nil {
				return fmt.Errorf("%w: bad grant: %v", errTransient, err)
			}
			return nil
		})
	if err != nil {
		return wire.LeaseGrant{}, err
	}
	return grant, nil
}

// Renew implements Queue over the wire. Only the coordinator's 409 — its
// lease-loss verdict — maps to ErrLeaseLost; any other conclusive
// rejection (a wire-version mismatch) is the coordinator refusing to talk
// to this worker at all, not a verdict on the claim, and reporting it as
// lease loss would make a version-skewed worker abort healthy shards as
// orphaned instead of surfacing the fatal mismatch.
func (cl *Client) Renew(leaseID, worker string) error {
	return cl.call("/renew", nil,
		func() (io.Reader, error) {
			return encodeGob(wire.RenewRequest{Version: wire.Version, LeaseID: leaseID, Worker: worker})
		},
		func(resp *http.Response) error {
			var a wire.Ack
			if err := gob.NewDecoder(resp.Body).Decode(&a); err != nil {
				return fmt.Errorf("%w: bad ack (%s): %v", errTransient, resp.Status, err)
			}
			if a.OK {
				return nil
			}
			if resp.StatusCode == http.StatusConflict {
				return fmt.Errorf("%w: %s", ErrLeaseLost, a.Err)
			}
			return fmt.Errorf("dispatch: renew rejected: %s", a.Err)
		})
}

// Complete implements Queue over the wire: the body is exactly
// wire.WriteGob of the batch (EncodeRunsGob at the facade), identity in
// headers. Retried deliveries of an already-accepted batch are absorbed
// idempotently server-side, so a lost ack costs nothing.
func (cl *Client) Complete(leaseID string, runs []wire.Run) error {
	return cl.CompleteStats(leaseID, runs, nil)
}

// CompleteStats is Complete with the worker's self-measured shard stats
// riding as an optional JSON header (see statsHeader). Implements
// StatsQueue, so a Worker driving this client ships its measurements
// without any envelope change.
func (cl *Client) CompleteStats(leaseID string, runs []wire.Run, stats *wire.WorkerStats) error {
	header := http.Header{
		leaseHeader:   []string{leaseID},
		versionHeader: []string{strconv.Itoa(wire.Version)},
	}
	if stats != nil {
		if js, err := json.Marshal(stats); err == nil {
			header.Set(statsHeader, string(js))
		}
	}
	return cl.call("/complete", header,
		func() (io.Reader, error) { return encodeGobRuns(runs) },
		func(resp *http.Response) error {
			var a wire.Ack
			if err := gob.NewDecoder(resp.Body).Decode(&a); err != nil {
				return fmt.Errorf("%w: bad ack (%s): %v", errTransient, resp.Status, err)
			}
			if !a.OK {
				return fmt.Errorf("dispatch: complete rejected: %s", a.Err)
			}
			return nil
		})
}

// encodeGob / encodeGobRuns materialise a gob body. Encoding to a buffer
// (not a pipe) keeps body() restartable for retries.
func encodeGob(v any) (io.Reader, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return &buf, nil
}

func encodeGobRuns(runs []wire.Run) (io.Reader, error) {
	var buf bytes.Buffer
	if err := wire.WriteGob(&buf, runs); err != nil {
		return nil, err
	}
	return &buf, nil
}

// Serve runs a coordinator for plan over HTTP on addr until the sweep
// completes or ctx cancels (which drains: workers stop being issued
// leases), then returns the merged results — the one-call server side of
// the dispatcher, behind cmd/turbulence -serve. After completion the
// server lingers briefly (Config.Linger) so workers sleeping through a
// wait hint observe Done instead of a dead socket.
func Serve(ctx context.Context, addr string, plan *core.Plan, opts ...Option) ([]wire.Run, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeListener(ctx, ln, plan, opts...)
}

// ServeListener is Serve on an existing listener (tests use an ephemeral
// port; Serve wraps it for the common addr case). The listener is closed
// on return.
func ServeListener(ctx context.Context, ln net.Listener, plan *core.Plan, opts ...Option) ([]wire.Run, error) {
	c, err := New(plan, opts...)
	if err != nil {
		ln.Close()
		return nil, err
	}
	defer c.Close()
	srv := &http.Server{Handler: c.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	c.cfg.Logf("dispatch: coordinator serving %d shards (%d cells) on %s (epoch %s)", c.shards, plan.Size(), ln.Addr(), c.epoch)
	runs, waitErr := c.Wait(ctx)
	if waitErr == nil {
		// Completed: linger so the other workers' next poll sees Done.
		t := time.NewTimer(c.cfg.Linger)
		select {
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
	} else {
		// Drained mid-sweep: workers honouring their own graceful drain
		// are finishing a shard right now — keep accepting completions
		// until the outstanding leases resolve (or the grace runs out),
		// then re-merge so those landed shards make it into the output.
		deadline := time.Now().Add(drainGrace)
		for time.Now().Before(deadline) {
			if _, leased, _ := c.Counts(); leased == 0 {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		runs = c.Collected()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			c.cfg.Logf("dispatch: server: %v", err)
		}
	default:
	}
	return runs, waitErr
}

// Work runs one worker loop against a coordinator at base until the sweep
// drains or ctx cancels — the one-call client side, behind cmd/turbulence
// -work. Returns how many shards this worker completed.
func Work(ctx context.Context, base string, opts ...Option) (int, error) {
	cl := NewClient(base, opts...)
	return NewWorker(cl, opts...).Run(ctx)
}
