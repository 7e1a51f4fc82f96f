package main

import (
	"fmt"
	"math"
	"time"
)

// metricDef declares one reported metric. The tables below are the
// benchmark's definition; BENCHMARK.json mirrors them (a test keeps the two
// in step), and Moves records, before anything is measured, which
// end-to-end metric on which workload the layer metric should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
	Moves  string  // per-layer only
}

// endToEnd metrics are measured with tracing off. cells_per_s and
// cpu_ms_per_cell are medians over the timed sweeps of per-sweep totals;
// the allocation metrics are whole-window totals. None is a percentile
// over cells.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cells_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_cell", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_cell", Unit: "KiB", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_cell", Unit: "count", Better: "lower", Bound: 0.25},
	{Name: "max_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

const (
	testbedMoves  = "cpu_ms_per_cell on figures; setup_s on every workload"
	eventsimMoves = "cpu_ms_per_cell on paper-sweep"
	netemMoves    = "exact counts, fixed by the inputs: a pure speed change must not move them; queue and AQM drops occur only under scenarios"
	dispatchMoves = "cells_per_s on dispatch-warm"
)

// perLayer metrics come from the traced run. Metrics of a layer a workload
// does not exercise read 0 on it (dispatch.* outside dispatch-warm,
// experiments.reduce_ms outside figures).
var perLayer = []metricDef{
	{Name: "core.cell_ms.p50", Unit: "ms", Better: "lower", Moves: "cells_per_s on scenario-matrix"},
	{Name: "core.cell_ms.p95", Unit: "ms", Better: "lower", Moves: "cells_per_s on scenario-matrix (reported only with >= 200 cells)"},
	{Name: "core.busy_frac", Unit: "frac", Better: "higher", Moves: "cells_per_s on paper-sweep, not cpu_ms_per_cell"},
	{Name: "core.testbeds_built", Unit: "count", Better: "lower", Moves: testbedMoves},
	{Name: "core.testbeds_reused", Unit: "count", Better: "higher", Moves: testbedMoves},
	{Name: "core.testbed_build_ms", Unit: "ms", Better: "lower", Moves: testbedMoves},
	{Name: "core.testbed_reset_us", Unit: "us", Better: "lower", Moves: testbedMoves},
	{Name: "eventsim.events_per_cell", Unit: "count", Better: "lower", Moves: eventsimMoves},
	{Name: "eventsim.timers_per_cell", Unit: "count", Better: "lower", Moves: eventsimMoves},
	{Name: "eventsim.queue_peak", Unit: "count", Better: "lower", Moves: eventsimMoves},
	{Name: "eventsim.wheel_peak", Unit: "count", Better: "lower", Moves: eventsimMoves + " (0 under the shipped heap)"},
	{Name: "eventsim.ns_per_event", Unit: "ns", Better: "lower", Moves: eventsimMoves + "; per-hop netem cost shows on scenario-matrix"},
	{Name: "netsim.forwarded_per_cell", Unit: "count", Better: "lower", Moves: eventsimMoves},
	{Name: "netem.drop_loss_per_cell", Unit: "count", Better: "lower", Moves: netemMoves},
	{Name: "netem.drop_full_per_cell", Unit: "count", Better: "lower", Moves: netemMoves},
	{Name: "netem.drop_aqm_per_cell", Unit: "count", Better: "lower", Moves: netemMoves},
	{Name: "netem.ttl_expired_per_cell", Unit: "count", Better: "lower", Moves: netemMoves},
	{Name: "capture.packets_per_cell", Unit: "count", Better: "lower", Moves: eventsimMoves},
	{Name: "capture.bytes_per_cell", Unit: "bytes", Better: "lower", Moves: eventsimMoves},
	{Name: "experiments.reduce_ms", Unit: "ms", Better: "lower", Moves: "cells_per_s and cpu_ms_per_cell on figures"},
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower", Moves: "cpu_ms_per_cell on figures (retained traces) against paper-sweep"},
	{Name: "runtime.gc_cycles_per_cell", Unit: "count", Better: "lower", Moves: "cpu_ms_per_cell on figures against paper-sweep"},
	{Name: "dispatch.carve_ms", Unit: "ms", Better: "lower", Moves: dispatchMoves},
	{Name: "dispatch.leases_per_sweep", Unit: "count", Better: "lower", Moves: dispatchMoves},
	{Name: "dispatch.cached_cells_per_sweep", Unit: "count", Better: "lower", Moves: dispatchMoves},
	{Name: "dispatch.lease_us.p50", Unit: "us", Better: "lower", Moves: dispatchMoves},
	{Name: "dispatch.complete_us.p50", Unit: "us", Better: "lower", Moves: dispatchMoves},
	{Name: "dispatch.journal_fsyncs_per_sweep", Unit: "count", Better: "lower", Moves: dispatchMoves},
	{Name: "wire.complete_bytes_per_cell", Unit: "bytes", Better: "lower", Moves: dispatchMoves},
	{Name: "resultstore.open_ms", Unit: "ms", Better: "lower", Moves: dispatchMoves},
	{Name: "resultstore.hits_per_sweep", Unit: "count", Better: "higher", Moves: dispatchMoves},
	{Name: "resultstore.misses_per_sweep", Unit: "count", Better: "lower", Moves: dispatchMoves},
	{Name: "trace.cells_per_s_untraced", Unit: "1/s", Better: "higher", Moves: "cells_per_s of the same run with tracing off"},
	{Name: "trace.cells_per_s_traced", Unit: "1/s", Better: "higher", Moves: "cells_per_s of the same run with tracing on"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Moves: "share of cells_per_s that tracing costs"},
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cellCounts are exact per-cell totals from the counting pass.
type cellCounts struct {
	cells                int
	events, timers       uint64
	queuePeak, wheelPeak int
	forwarded            uint64
	loss, full, aqm, ttl uint64
	packets, bytes       uint64
}

// testbedTimes are medians of timed NewTestbed and Reset calls.
type testbedTimes struct {
	build, reset time.Duration
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	tr               *tracer
	workers          int
	sweeps           int
	traced, untraced window
	counts           cellCounts
	testbeds         testbedTimes
}

// cellSamplesMs are per-cell durations in milliseconds: the cell spans the
// Runner reported, or, where the cells run inside dispatch workers, each
// shard's run time divided evenly among its simulated cells.
func cellSamplesMs(tr *tracer) []float64 {
	xs := tr.durationsMs(spanCell)
	for _, s := range tr.named(spanShard) {
		if s.Cell <= 0 {
			continue
		}
		per := float64(s.dur()) / float64(time.Millisecond) / float64(s.Cell)
		for i := 0; i < s.Cell; i++ {
			xs = append(xs, per)
		}
	}
	return xs
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// layerMetrics computes every per-layer metric. A percentile refused for
// too few samples is left out, and its refusal returned in skipped.
func layerMetrics(in layerInputs) (out map[string]float64, skipped []string) {
	tr, n := in.tr, float64(in.sweeps)
	out = make(map[string]float64, len(perLayer))
	put := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = v
	}
	pct := func(name string, xs []float64, q float64) {
		if v, err := percentile(xs, q); err == nil {
			put(name, v)
		} else {
			skipped = append(skipped, name+": "+err.Error())
		}
	}
	perCell := func(v uint64) float64 { return float64(v) / float64(in.counts.cells) }

	cells := cellSamplesMs(tr)
	pct("core.cell_ms.p50", cells, 0.5)
	pct("core.cell_ms.p95", cells, 0.95)
	sweepMs := sum(tr.durationsMs(spanSweep))
	put("core.busy_frac", sum(cells)/(float64(in.workers)*sweepMs))
	put("core.testbeds_built", tr.count("core.testbeds_built")/n)
	put("core.testbeds_reused", tr.count("core.testbeds_reused")/n)
	put("core.testbed_build_ms", float64(in.testbeds.build)/float64(time.Millisecond))
	put("core.testbed_reset_us", float64(in.testbeds.reset)/float64(time.Microsecond))

	c := in.counts
	eventsPerCell := perCell(c.events)
	put("eventsim.events_per_cell", eventsPerCell)
	put("eventsim.timers_per_cell", perCell(c.timers))
	put("eventsim.queue_peak", float64(c.queuePeak))
	put("eventsim.wheel_peak", float64(c.wheelPeak))
	put("eventsim.ns_per_event", sum(cells)*1e6/(float64(len(cells))*eventsPerCell))
	put("netsim.forwarded_per_cell", perCell(c.forwarded))
	put("netem.drop_loss_per_cell", perCell(c.loss))
	put("netem.drop_full_per_cell", perCell(c.full))
	put("netem.drop_aqm_per_cell", perCell(c.aqm))
	put("netem.ttl_expired_per_cell", perCell(c.ttl))
	put("capture.packets_per_cell", perCell(c.packets))
	put("capture.bytes_per_cell", perCell(c.bytes))

	var reduce time.Duration
	for _, d := range tr.selfTimes(spanExperiment) {
		reduce += d
	}
	put("experiments.reduce_ms", float64(reduce)/float64(time.Millisecond)/n)
	put("runtime.gc_cpu_frac", in.traced.gcCPUFrac())
	put("runtime.gc_cycles_per_cell", in.traced.gcCyclesPerCell())

	put("dispatch.carve_ms", mean(tr.durationsMs(spanCarve)))
	put("dispatch.leases_per_sweep", tr.count("dispatch.leases")/n)
	put("dispatch.cached_cells_per_sweep", tr.count("dispatch.cached_cells")/n)
	put("dispatch.journal_fsyncs_per_sweep", tr.count("dispatch.journal_fsyncs")/n)
	put("wire.complete_bytes_per_cell", tr.count("wire.complete_bytes")/tr.count("wire.complete_cells"))
	put("resultstore.open_ms", mean(tr.durationsMs(spanStoreOpen)))
	put("resultstore.hits_per_sweep", tr.count("resultstore.hits")/n)
	put("resultstore.misses_per_sweep", tr.count("resultstore.misses")/n)
	if leases := tr.durationsMs(spanLease); len(leases) > 0 {
		pct("dispatch.lease_us.p50", scale(leases, 1e3), 0.5)
		pct("dispatch.complete_us.p50", scale(tr.durationsMs(spanComplete), 1e3), 0.5)
	} else {
		put("dispatch.lease_us.p50", 0)
		put("dispatch.complete_us.p50", 0)
	}

	untraced, traced := in.untraced.cellsPerS(), in.traced.cellsPerS()
	put("trace.cells_per_s_untraced", untraced)
	put("trace.cells_per_s_traced", traced)
	put("trace.overhead_frac", (untraced-traced)/untraced)
	return out, skipped
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// endToEndMetrics computes the untraced metrics of a timed window.
func endToEndMetrics(w window, setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":           setupS,
		"cells_per_s":       w.cellsPerS(),
		"cpu_ms_per_cell":   w.cpuMsPerCell(),
		"alloc_kb_per_cell": w.allocKBPerCell(),
		"allocs_per_cell":   w.allocsPerCell(),
		"max_rss_mb":        maxRSSMB(),
	}
}

// render attaches each declared metric's unit to its value, and fails when
// a declared metric is missing (unless optional) or an undeclared one was
// computed.
func render(defs []metricDef, vals map[string]float64, optional map[string]bool) (map[string]value, error) {
	out := make(map[string]value, len(vals))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			if optional[d.Name] {
				continue
			}
			return nil, fmt.Errorf("metric %s was not computed", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(out) != len(vals) {
		return nil, fmt.Errorf("computed %d metrics, %d declared", len(vals), len(out))
	}
	return out, nil
}
