package eventsim

import (
	"errors"
	"fmt"
)

// Event is a unit of scheduled work. The callback runs exactly once, at the
// event's due time, unless the event is cancelled first. Events are owned
// and recycled by their Scheduler; model code holds Timer handles, never
// bare events.
type Event struct {
	when  Time
	seq   uint64 // tiebreak: FIFO among events at the same instant
	index int32  // position in the heap; -1 when not queued
	gen   uint32 // incremented on every recycle; validates Timer handles
	name  string

	// Exactly one of fn / afn is set. The afn+arg form lets hot paths
	// schedule work without allocating a closure per event.
	fn  func(now Time)
	afn func(now Time, arg any)
	arg any
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// valid and behaves as an already-fired event. Because events are pooled,
// the handle carries the generation it was issued at: a stale handle
// (fired or cancelled event, possibly recycled since) is detected and
// ignored rather than cancelling an unrelated event.
type Timer struct {
	e   *Event
	gen uint32
}

// Cancelled reports whether the timer's event is no longer pending (fired,
// cancelled, or never scheduled).
func (t Timer) Cancelled() bool { return t.e == nil || t.e.gen != t.gen }

// ErrInterrupted is returned by Run when the interrupt poll installed via
// SetInterrupt reported true between events (typically: a context was
// cancelled outside the simulation).
var ErrInterrupted = errors.New("eventsim: interrupted")

// interruptStride is how many events fire between interrupt polls. The
// poll may be as costly as a context.Context.Err call, so it stays off the
// per-event hot path; at simulation speed (millions of events per second of
// wall clock) a poll every 2048 events still aborts within microseconds.
const interruptStride = 2048

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; all model code runs inside event callbacks on one
// goroutine, which is what makes runs deterministic. (Concurrency in this
// repository happens one level up: independent experiment runs each own a
// private Scheduler and fan out across OS threads.)
//
// Run is the only loop that fires events, whether a simulation drains the
// queue in one call or the live transport's socket loop calls it once per
// wake-up with a wall-clock horizon. The pending queue is a 4-ary heap:
// shallower than a binary heap, so the common churn of scheduling and
// firing touches fewer cache lines per operation. Fired and cancelled
// events return to a free list, making the steady-state schedule/fire
// cycle allocation-free.
type Scheduler struct {
	now       Time
	q         heapQueue
	free      []*Event
	seq       uint64
	done      uint64 // events due at now with a lower seq have fired
	fired     uint64
	peak      int
	interrupt func() bool
}

// NewScheduler returns a scheduler positioned at the epoch.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Len reports the number of pending events.
func (s *Scheduler) Len() int { return s.q.len() }

// Fired reports how many events have run so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Scheduled reports how many events have ever been scheduled. Together
// with Fired it gives a cheap liveness meter: a large standing gap means
// timers are piling up faster than they run. It is also the sequence
// number the next scheduled event will get: the stamp a virtual event
// takes to sort, under Dispatched, exactly where a real event scheduled
// now would sort.
func (s *Scheduler) Scheduled() uint64 { return s.seq }

// Dispatched reports whether an event due at when with sequence number seq
// would already have fired: whether dispatch has passed (when, seq) in the
// scheduler's firing order. Stamping a virtual event with Scheduled and
// later asking Dispatched about it lets model code track a deadline it
// only needs to read, without paying for a scheduled event. Once Run
// returns by horizon or drain, every event due by Now counts as fired; an
// event due now but stamped after that return does not.
func (s *Scheduler) Dispatched(when Time, seq uint64) bool {
	return when < s.now || when == s.now && seq < s.done
}

// PeakQueue reports the high-water pending-event count — the deepest the
// queue has ever been. Deterministic for a given seed, so it doubles as a
// regression canary for scheduling blowups. Reset(nil) zeroes it along
// with the other per-run counters, so under testbed reuse each run reports
// its own high-water mark, not the maximum across every run so far.
func (s *Scheduler) PeakQueue() int { return s.peak }

// Reset returns the scheduler to its post-NewScheduler state — clock at the
// epoch, no pending events, counters zeroed — while retaining the event
// free list and the queue's backing array, so a reset scheduler schedules
// its next million events without allocating. Pending events are
// discarded; drain, if non-nil, observes each one first so owners of
// pooled per-event payloads (netsim's in-flight datagrams) can reclaim
// them.
func (s *Scheduler) Reset(drain func(name string, arg any)) {
	for {
		e := s.q.popMin()
		if e == nil {
			break
		}
		if drain != nil {
			drain(e.name, e.arg)
		}
		s.release(e)
	}
	s.q.reset()
	s.now = 0
	s.seq = 0
	s.done = 0
	s.fired = 0
	s.peak = 0
	s.interrupt = nil
}

// alloc takes an event from the free list, refilling it in batches so cold
// starts amortise to one allocation per 64 events.
func (s *Scheduler) alloc() *Event {
	if len(s.free) == 0 {
		batch := make([]Event, 64)
		for i := range batch {
			batch[i].index = -1
			s.free = append(s.free, &batch[i])
		}
	}
	e := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return e
}

// release invalidates outstanding Timer handles to e and returns it to the
// free list.
func (s *Scheduler) release(e *Event) {
	e.gen++
	e.index = -1
	e.name = ""
	e.fn = nil
	e.afn = nil
	e.arg = nil
	s.free = append(s.free, e)
}

func (s *Scheduler) schedule(when Time, name string, fn func(now Time), afn func(now Time, arg any), arg any) Timer {
	if when < s.now {
		panic(fmt.Sprintf("eventsim: scheduling %q at %v, before now %v", name, when, s.now))
	}
	e := s.alloc()
	e.when = when
	e.seq = s.seq
	e.name = name
	e.fn = fn
	e.afn = afn
	e.arg = arg
	s.seq++
	s.q.push(e)
	if n := s.q.len(); n > s.peak {
		s.peak = n
	}
	return Timer{e: e, gen: e.gen}
}

// At schedules fn to run at absolute time when. Scheduling in the past
// (before Now) panics: the simulation cannot rewind.
func (s *Scheduler) At(when Time, name string, fn func(now Time)) Timer {
	return s.schedule(when, name, fn, nil, nil)
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Duration, name string, fn func(now Time)) Timer {
	CheckNonNegative(d)
	return s.At(s.now.Add(d), name, fn)
}

// AtArg schedules fn(now, arg) at absolute time when. Passing context via
// arg instead of closing over it keeps hot paths free of per-event closure
// allocations; fn should be a static function.
func (s *Scheduler) AtArg(when Time, name string, fn func(now Time, arg any), arg any) Timer {
	return s.schedule(when, name, nil, fn, arg)
}

// AfterArg schedules fn(now, arg) to run d after the current time.
func (s *Scheduler) AfterArg(d Duration, name string, fn func(now Time, arg any), arg any) Timer {
	CheckNonNegative(d)
	return s.AtArg(s.now.Add(d), name, fn, arg)
}

// Cancel removes a pending event. Cancelling a timer whose event already
// fired or was already cancelled is a no-op, even if the underlying event
// has since been recycled for other work. An event is released before its
// callback runs, so a callback cancelling its own timer is a no-op too.
func (s *Scheduler) Cancel(t Timer) {
	if t.Cancelled() {
		return
	}
	s.q.remove(t.e)
	s.release(t.e)
}

// NextEventAt reports the due time of the earliest pending event. The
// second result is false when the queue is empty. This is the peek a
// wall-clock-driven loop needs: Run to the wall clock's now, then sleep
// exactly until the next event (or until external input arrives).
func (s *Scheduler) NextEventAt() (Time, bool) {
	e := s.q.peek()
	if e == nil {
		return 0, false
	}
	return e.when, true
}

// SetInterrupt installs a poll function Run consults between events, every
// interruptStride firings. A true return aborts Run with ErrInterrupted,
// leaving the pending queue intact. Pass nil to clear. This is the
// cooperative-cancellation seam the Runner uses to abort a simulation
// mid-run when its context is cancelled.
func (s *Scheduler) SetInterrupt(fn func() bool) { s.interrupt = fn }

// Run fires events in (when, seq) order until the queue drains or the
// next event is due after horizon (horizon <= 0 means no horizon). An
// event due exactly at horizon fires, as do the events its callbacks
// schedule at that instant. Run returns ErrInterrupted, leaving the
// pending queue intact, if an installed interrupt poll reports true.
//
// On return by horizon or drain the clock reads horizon (with no horizon,
// the last fired event's time), and everything scheduled so far that is
// due by then counts as fired under Dispatched. So a run sliced into
// Run(h1), Run(h2), ... over horizons that never fall before Now fires
// exactly the events, in exactly the order, that one Run(0) would: the
// live transport relies on this when it runs to the wall clock on every
// wake-up.
func (s *Scheduler) Run(horizon Time) error {
	sincePoll := 0
	for {
		head := s.q.peek()
		if head == nil {
			break
		}
		if s.interrupt != nil && sincePoll >= interruptStride {
			sincePoll = 0
			if s.interrupt() {
				return ErrInterrupted
			}
		}
		if horizon > 0 && head.when > horizon {
			s.now = horizon
			s.done = s.seq
			return nil
		}
		s.q.popMin()
		s.fire(head)
		sincePoll++
	}
	if horizon > 0 && s.now < horizon {
		s.now = horizon
	}
	s.done = s.seq
	return nil
}

// fire advances the clock to e, counts it, releases it (staling every
// handle to it) and runs its callback. It is the only place events fire.
func (s *Scheduler) fire(e *Event) {
	s.now = e.when
	s.done = e.seq + 1
	s.fired++
	fn, afn, arg := e.fn, e.afn, e.arg
	s.release(e)
	if afn != nil {
		afn(s.now, arg)
	} else if fn != nil {
		fn(s.now)
	}
}

// Ticker invokes fn every interval starting at the next interval boundary
// from now, until the returned stop function is called or fn returns false.
func (s *Scheduler) Ticker(interval Duration, name string, fn func(now Time) bool) (stop func()) {
	if interval <= 0 {
		panic("eventsim: Ticker interval must be positive")
	}
	var tm Timer
	stopped := false
	var tick func(now Time)
	tick = func(now Time) {
		if stopped {
			return
		}
		if !fn(now) {
			stopped = true
			return
		}
		tm = s.After(interval, name, tick)
	}
	tm = s.After(interval, name, tick)
	return func() {
		stopped = true
		s.Cancel(tm)
	}
}

// --- 4-ary heap ordered by (when, seq) ---

func eventLess(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// heapQueue is the Scheduler's pending set: a 4-ary heap on a flat slice,
// with each event carrying its own index for O(log n) removal.
type heapQueue struct {
	q []*Event
}

func (h *heapQueue) len() int { return len(h.q) }

// reset empties the heap, keeping its backing array; it must hold no events.
func (h *heapQueue) reset() { h.q = h.q[:0] }

// peek returns the earliest pending event without removing it, or nil.
func (h *heapQueue) peek() *Event {
	if len(h.q) == 0 {
		return nil
	}
	return h.q[0]
}

func (h *heapQueue) push(e *Event) {
	e.index = int32(len(h.q))
	h.q = append(h.q, e)
	h.siftUp(len(h.q) - 1)
}

// popMin removes the earliest pending event and returns it, or nil.
func (h *heapQueue) popMin() *Event {
	q := h.q
	if len(q) == 0 {
		return nil
	}
	e := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[0].index = 0
	q[n] = nil
	h.q = q[:n]
	if n > 0 {
		h.siftDown(0)
	}
	e.index = -1
	return e
}

// remove deletes event e, which must be resident at heap position e.index.
func (h *heapQueue) remove(e *Event) {
	i := int(e.index)
	q := h.q
	n := len(q) - 1
	if i != n {
		q[i] = q[n]
		q[i].index = int32(i)
	}
	q[n] = nil
	h.q = q[:n]
	if i < n {
		h.siftDown(i)
		h.siftUp(i)
	}
	e.index = -1
}

func (h *heapQueue) siftUp(i int) {
	q := h.q
	e := q[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(e, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = int32(i)
		i = parent
	}
	q[i] = e
	e.index = int32(i)
}

func (h *heapQueue) siftDown(i int) {
	q := h.q
	n := len(q)
	e := q[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(q[c], q[min]) {
				min = c
			}
		}
		if !eventLess(q[min], e) {
			break
		}
		q[i] = q[min]
		q[i].index = int32(i)
		i = min
	}
	q[i] = e
	e.index = int32(i)
}
