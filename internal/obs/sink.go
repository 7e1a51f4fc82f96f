package obs

// A Sink aggregates sweep-level metrics from a running Runner: per-cell
// wall times from the Progress stream, eventsim scheduler counters,
// capture volume, and netem drop tallies. It is handed to the runner via
// a functional option; every feed method below is alloc-free so the
// runner can call them from its serialized finish path and the capture
// tap can bump the packet counters per packet.
//
// The Sink registers its metrics on the Registry passed to NewSink;
// serving that registry over HTTP (Registry.Handler) is the caller's
// choice — cmd/turbulence does it under the -metrics flag.
type Sink struct {
	// Cells.
	CellsDone   *Counter
	CellErrors  *Counter
	CellSeconds *Histogram

	// Eventsim scheduler totals, accumulated across cells.
	TimersScheduled *Counter
	EventsFired     *Counter
	HeapDepthPeak   *Gauge // high-water across all cells

	// Testbed economy under reset-reuse (fed once per sweep).
	TestbedsBuilt  *Counter
	TestbedsReused *Counter

	// Capture volume (fed per packet by capture.CounterTap).
	Packets *Counter
	Bytes   *Counter

	// Netem drops by cause.
	dropLoss *Counter
	dropFull *Counter
	dropAQM  *Counter
	dropTTL  *Counter
}

// NewSink registers the runner metric set on reg and returns the sink.
func NewSink(reg *Registry) *Sink {
	s := &Sink{
		CellsDone:   reg.Counter("turbulence_cells_completed_total", "Sweep cells finished (including failed ones)."),
		CellErrors:  reg.Counter("turbulence_cell_errors_total", "Sweep cells that finished with an error."),
		CellSeconds: reg.Histogram("turbulence_cell_seconds", "Wall-clock seconds per sweep cell.", DurationBuckets),

		TimersScheduled: reg.Counter("turbulence_sim_timers_scheduled_total", "Events pushed onto eventsim scheduler heaps."),
		EventsFired:     reg.Counter("turbulence_sim_events_fired_total", "Events dispatched by eventsim schedulers."),
		HeapDepthPeak:   reg.Gauge("turbulence_sim_heap_depth_peak", "High-water eventsim heap depth across all cells."),

		TestbedsBuilt:  reg.Counter("turbulence_testbeds_built_total", "Testbeds constructed from scratch by sweep workers."),
		TestbedsReused: reg.Counter("turbulence_testbeds_reused_total", "Sweep cells served by resetting a cached testbed instead of building one."),

		Packets: reg.Counter("turbulence_capture_packets_total", "Packets observed by the capture tap."),
		Bytes:   reg.Counter("turbulence_capture_bytes_total", "Payload bytes observed by the capture tap."),
	}
	drops := reg.CounterVec("turbulence_netem_drops_total", "Packets dropped in the network simulator, by cause.", "cause")
	s.dropLoss = drops.With("loss")
	s.dropFull = drops.With("full")
	s.dropAQM = drops.With("aqm")
	s.dropTTL = drops.With("ttl")
	return s
}

// ObserveCell records one finished cell: its wall time and whether it
// failed.
func (s *Sink) ObserveCell(seconds float64, failed bool) {
	s.CellsDone.Inc()
	if failed {
		s.CellErrors.Inc()
	}
	s.CellSeconds.Observe(seconds)
}

// AddSim folds in one cell's scheduler counters.
func (s *Sink) AddSim(scheduled, fired uint64, heapPeak int) {
	s.TimersScheduled.Add(scheduled)
	s.EventsFired.Add(fired)
	s.HeapDepthPeak.SetMax(int64(heapPeak))
}

// AddTestbeds folds in one sweep's testbed economy: testbeds constructed
// versus cells served by reset-reuse.
func (s *Sink) AddTestbeds(built, reused uint64) {
	s.TestbedsBuilt.Add(built)
	s.TestbedsReused.Add(reused)
}

// AddDrops folds in one cell's netem drop tallies.
func (s *Sink) AddDrops(loss, full, aqm, ttl uint64) {
	s.dropLoss.Add(loss)
	s.dropFull.Add(full)
	s.dropAQM.Add(aqm)
	s.dropTTL.Add(ttl)
}
