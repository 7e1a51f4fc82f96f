package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names perfbench records. Every span wraps one call perfbench makes
// into a layer (or, for cells, one cell the Runner reports through its
// progress hook); nothing inside the program is instrumented.
const (
	spanSweep      = "sweep"            // one whole sweep or figures iteration
	spanRunner     = "core.Runner.Run"  // Runner.Run of a plan
	spanCell       = "cell"             // one simulated cell (Progress Start/Elapsed)
	spanExperiment = "experiments.Run"  // one experiments.Run call
	spanStoreOpen  = "resultstore.Open" // opening the restored store
	spanCarve      = "dispatch.New"     // coordinator construction (carve + store consult)
	spanWait       = "dispatch.Wait"    // coordinator Wait until merged
	spanLease      = "dispatch.Lease"   // a worker's Lease call that granted work
	spanShard      = "dispatch.shard"   // lease granted → completion shipped (the worker runs the shard)
	spanComplete   = "dispatch.Complete"
)

// span is one timed interval. Times are nanoseconds since the tracer's
// origin; Parent indexes the tracer's span list (-1 for a root); Cell is the
// plan cell Index, or for dispatch.shard spans the simulated cell count
// (-1 when not applicable).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Cell   int    `json:"cell"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans and named per-sweep counts in memory; write dumps them
// when the run ends. Its methods are safe for concurrent use, and a nil
// tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: make(map[string]float64)}
}

// record stores a finished interval and returns its id.
func (t *tracer) record(name string, parent, cell int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Cell: cell,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	})
	return len(t.spans) - 1
}

// begin opens a span that end closes; the span exists (with End = Start)
// from begin on, so children recorded meanwhile can name it as parent.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.record(name, parent, -1, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = int64(now.Sub(t.origin))
	t.mu.Unlock()
}

// add accumulates a named count.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// named returns the spans called name, in record order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durationsMs lists the named spans' durations in milliseconds.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, float64(s.dur())/float64(time.Millisecond))
	}
	return out
}

// selfTimes returns, for every span called name, its duration minus the
// part of its interval covered by its children (overlapping children, as
// cells on parallel workers are, count once).
func (t *tracer) selfTimes(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []time.Duration
	for id, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur()-covered(s, children[id]))
		}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// write dumps every span and count as one JSON document.
func (t *tracer) write(path string, env map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"env": env, "spans": t.spans, "counts": t.counts})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
