package eventsim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []Time
	for _, sec := range []float64{3, 1, 2, 0.5, 2.5} {
		s.At(At(sec), "e", func(now Time) { got = append(got, now) })
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	if s.Now() != At(3) {
		t.Fatalf("final clock %v, want 3s", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(At(1), "same", func(Time) { order = append(order, i) })
	}
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(At(1), "x", func(Time) {})
	s.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(At(0.5), "past", func(Time) {})
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.At(At(1), "x", func(Time) { fired = true })
	s.Cancel(e)
	s.Cancel(e)       // double cancel is a no-op
	s.Cancel(Timer{}) // zero handle is a no-op
	s.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
}

func TestSchedulerCancelFromCallback(t *testing.T) {
	s := NewScheduler()
	fired := false
	var victim Timer
	s.At(At(1), "killer", func(Time) { s.Cancel(victim) })
	victim = s.At(At(2), "victim", func(Time) { fired = true })
	s.Run(0)
	if fired {
		t.Fatal("victim fired despite cancellation from earlier event")
	}
}

func TestSchedulerHorizon(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(At(float64(i)), "e", func(Time) { count++ })
	}
	if err := s.Run(At(5)); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("fired %d events before horizon, want 5", count)
	}
	if s.Now() != At(5) {
		t.Fatalf("clock %v, want horizon 5s", s.Now())
	}
	if s.Len() != 5 {
		t.Fatalf("%d events pending, want 5", s.Len())
	}
}

func TestSchedulerHorizonAdvancesIdleClock(t *testing.T) {
	s := NewScheduler()
	if err := s.Run(At(7)); err != nil {
		t.Fatal(err)
	}
	if s.Now() != At(7) {
		t.Fatalf("idle run left clock at %v, want 7s", s.Now())
	}
}

func TestSchedulerReentrantScheduling(t *testing.T) {
	// Events scheduled from inside callbacks at the current instant run in
	// the same pass, after already-queued same-instant events.
	s := NewScheduler()
	var order []string
	s.At(At(1), "a", func(now Time) {
		order = append(order, "a")
		s.At(now, "c", func(Time) { order = append(order, "c") })
	})
	s.At(At(1), "b", func(Time) { order = append(order, "b") })
	s.Run(0)
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestTicker(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	s.Ticker(time.Second, "tick", func(now Time) bool {
		ticks = append(ticks, now)
		return len(ticks) < 4
	})
	s.Run(0)
	if len(ticks) != 4 {
		t.Fatalf("got %d ticks, want 4", len(ticks))
	}
	for i, tk := range ticks {
		if want := At(float64(i + 1)); tk != want {
			t.Fatalf("tick %d at %v, want %v", i, tk, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	s := NewScheduler()
	n := 0
	stop := s.Ticker(time.Second, "tick", func(Time) bool { n++; return true })
	s.At(At(2.5), "stopper", func(Time) { stop() })
	if err := s.Run(At(10)); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("ticker fired %d times, want 2", n)
	}
}

func TestTickerZeroIntervalPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval did not panic")
		}
	}()
	s.Ticker(0, "bad", func(Time) bool { return true })
}

// Property: for any batch of scheduled offsets, firing order is a stable
// sort by time.
func TestSchedulerOrderingProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewScheduler()
		type rec struct {
			at  Time
			idx int
		}
		var fired []rec
		for i, off := range offsets {
			i := i
			at := Time(time.Duration(off) * time.Millisecond)
			s.At(at, "p", func(now Time) { fired = append(fired, rec{now, i}) })
		}
		s.Run(0)
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].idx < fired[i-1].idx {
				return false // FIFO violated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStaleTimerDoesNotCancelRecycledEvent(t *testing.T) {
	// Events are pooled: after a timer's event fires, the Event object may
	// be reissued for unrelated work. A stale handle must not cancel it.
	s := NewScheduler()
	first := s.At(At(1), "first", func(Time) {})
	s.Run(0) // first fires; its Event returns to the pool
	fired := false
	s.At(At(2), "second", func(Time) { fired = true })
	s.Cancel(first) // stale: must be a no-op even if the Event was recycled
	s.Run(0)
	if !fired {
		t.Fatal("stale Cancel killed a recycled event")
	}
	if !first.Cancelled() {
		t.Fatal("fired timer does not report cancelled")
	}
}

func TestAtArg(t *testing.T) {
	s := NewScheduler()
	got := 0
	bump := func(_ Time, arg any) { *arg.(*int) += 2 }
	s.AtArg(At(1), "arg", bump, &got)
	s.AfterArg(2*time.Second, "arg", bump, &got)
	s.Run(0)
	if got != 4 {
		t.Fatalf("arg callbacks produced %d, want 4", got)
	}
}

func TestSchedulerSteadyStateAllocFree(t *testing.T) {
	// Once the pool is warm, a schedule/fire cycle must not allocate.
	s := NewScheduler()
	var tick func(now Time)
	n := 0
	tick = func(now Time) {
		if n++; n < 100 {
			s.After(time.Millisecond, "tick", tick)
		}
	}
	s.After(time.Millisecond, "tick", tick)
	horizon := Time(time.Millisecond)
	s.Run(horizon) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		horizon = horizon.Add(time.Millisecond)
		s.Run(horizon)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Run allocates %.1f times per event, want 0", allocs)
	}
}

func TestTimeHelpers(t *testing.T) {
	a := At(1.5)
	b := a.Add(500 * time.Millisecond)
	if b != At(2) {
		t.Fatalf("Add: %v", b)
	}
	if d := b.Sub(a); d != 500*time.Millisecond {
		t.Fatalf("Sub: %v", d)
	}
	if !a.Before(b) || !b.After(a) {
		t.Fatal("Before/After inconsistent")
	}
	if a.Seconds() != 1.5 {
		t.Fatalf("Seconds: %v", a.Seconds())
	}
}

func TestCheckNonNegative(t *testing.T) {
	if CheckNonNegative(time.Second) != time.Second {
		t.Fatal("positive duration altered")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration did not panic")
		}
	}()
	CheckNonNegative(-time.Second)
}

func TestSchedulerFiredCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.After(time.Duration(i)*time.Millisecond, "e", func(Time) {})
	}
	s.Run(0)
	if s.Fired() != 7 {
		t.Fatalf("Fired()=%d, want 7", s.Fired())
	}
}

func TestEventAccessors(t *testing.T) {
	s := NewScheduler()
	e := s.At(At(3), "named", func(Time) {})
	if e.Cancelled() {
		t.Fatal("fresh event reports cancelled")
	}
}

func TestHeapRandomCancel(t *testing.T) {
	// Exercise push/pop/remove on the 4-ary heap with random data to cover
	// the slice bookkeeping (index maintenance on removal).
	r := rand.New(rand.NewSource(1))
	s := NewScheduler()
	events := make([]Timer, 0, 64)
	for i := 0; i < 64; i++ {
		e := s.At(Time(time.Duration(r.Intn(1000))*time.Millisecond), "h", func(Time) {})
		events = append(events, e)
	}
	// Cancel a random half; indices must stay consistent.
	for _, i := range r.Perm(64)[:32] {
		s.Cancel(events[i])
	}
	if s.Len() != 32 {
		t.Fatalf("Len=%d after cancelling half, want 32", s.Len())
	}
	s.Run(0)
	if s.Len() != 0 {
		t.Fatalf("queue not drained: %d", s.Len())
	}
}

// TestSchedulerInterrupt exercises the cooperative-cancellation seam: an
// interrupt poll that trips mid-run aborts with ErrInterrupted after at
// most interruptStride further events, leaving the rest of the queue
// intact, and a cleared poll lets Run resume where it left off.
func TestSchedulerInterrupt(t *testing.T) {
	s := NewScheduler()
	const total = 3 * interruptStride
	fired := 0
	for i := 0; i < total; i++ {
		s.At(At(float64(i)), "e", func(now Time) { fired++ })
	}
	tripAt := interruptStride / 2
	s.SetInterrupt(func() bool { return fired > tripAt })
	if err := s.Run(0); err != ErrInterrupted {
		t.Fatalf("Run returned %v, want ErrInterrupted", err)
	}
	if fired <= tripAt || fired > tripAt+interruptStride {
		t.Fatalf("interrupt after %d events, want within one stride past %d", fired, tripAt)
	}
	if s.Len() != total-fired {
		t.Fatalf("pending queue %d, want %d", s.Len(), total-fired)
	}
	s.SetInterrupt(nil)
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != total {
		t.Fatalf("resumed run fired %d, want %d", fired, total)
	}
}

// TestSchedulerResetDrainsPending pins Reset's drain contract: every
// pending event is surfaced to the drain callback exactly once, with its
// name and argument, and the scheduler comes back empty at the epoch.
func TestSchedulerResetDrainsPending(t *testing.T) {
	s := NewScheduler()
	payload := &struct{ n int }{7}
	s.AtArg(Time(time.Millisecond), "drainme", func(Time, any) {}, payload)
	s.At(Time(2*time.Second), "faraway", func(Time) {})
	var drained []string
	var gotArg any
	s.Reset(func(name string, arg any) {
		drained = append(drained, name)
		if arg != nil {
			gotArg = arg
		}
	})
	if len(drained) != 2 {
		t.Fatalf("drained %d events, want 2", len(drained))
	}
	if gotArg != payload {
		t.Fatal("drain did not surface the event argument")
	}
	if s.Len() != 0 || s.Now() != 0 || s.Scheduled() != 0 || s.Fired() != 0 {
		t.Fatalf("Reset left state behind: len=%d now=%v sched=%d fired=%d",
			s.Len(), s.Now(), s.Scheduled(), s.Fired())
	}
}

// TestPeakQueueAndReset pins PeakQueue as the current run's high-water
// pending count: Reset zeroes it, and the reset scheduler still orders
// correctly from the epoch.
func TestPeakQueueAndReset(t *testing.T) {
	s := NewScheduler()
	for i := 1; i <= 10; i++ {
		s.After(Duration(i)*time.Millisecond, "e", func(Time) {})
	}
	if s.PeakQueue() != 10 {
		t.Fatalf("PeakQueue %d with 10 pending events, want 10", s.PeakQueue())
	}
	s.Run(0)
	if s.PeakQueue() != 10 {
		t.Fatalf("PeakQueue %d after draining, want 10", s.PeakQueue())
	}
	s.Reset(nil)
	if s.PeakQueue() != 0 {
		t.Fatalf("PeakQueue %d survives Reset", s.PeakQueue())
	}
	var got []Time
	s.After(Duration(2*time.Millisecond), "b", func(now Time) { got = append(got, now) })
	s.After(Duration(time.Millisecond), "a", func(now Time) { got = append(got, now) })
	s.Run(0)
	if len(got) != 2 || got[0] != Time(time.Millisecond) || got[1] != Time(2*time.Millisecond) {
		t.Fatalf("post-Reset firing order wrong: %v", got)
	}
	if s.PeakQueue() != 2 {
		t.Fatalf("PeakQueue %d after a two-event run, want 2", s.PeakQueue())
	}
}

// firing is one entry of a recorded firing sequence.
type firing struct {
	at   Time
	name string
}

// slicedWorkload schedules a seeded random workload on s and returns the
// firing record it appends to: self-rescheduling AfterArg chains whose
// delays include zero and a coarse 250 µs grid (so same-instant ties are
// common), victims that callbacks cancel, and a Ticker that a chain stops.
// The workload draws from rng inside callbacks, so two runs record the
// same sequence only if they fire the same events in the same order.
func slicedWorkload(s *Scheduler, seed int64) *[]firing {
	rng := rand.New(rand.NewSource(seed))
	rec := new([]firing)
	delay := func() Duration {
		if rng.Intn(4) == 0 {
			return 0
		}
		return Duration(rng.Intn(12)) * 250 * time.Microsecond
	}
	var victims []Timer
	var stopTicker func()
	names := []string{"chain0", "chain1", "chain2", "chain3", "chain4", "chain5"}
	left := make([]int, len(names))
	var step func(now Time, arg any)
	step = func(now Time, arg any) {
		i := arg.(int)
		*rec = append(*rec, firing{now, names[i]})
		switch rng.Intn(6) {
		case 0:
			victims = append(victims, s.After(delay(), "victim", func(now Time) {
				*rec = append(*rec, firing{now, "victim"})
			}))
		case 1:
			if len(victims) > 0 {
				k := rng.Intn(len(victims))
				s.Cancel(victims[k]) // may already have fired: then a no-op
				victims = append(victims[:k], victims[k+1:]...)
			}
		case 2:
			if stopTicker != nil && rng.Intn(20) == 0 {
				stopTicker()
			}
		}
		if left[i]--; left[i] > 0 {
			s.AfterArg(delay(), names[i], step, i)
		}
	}
	for i := range names {
		left[i] = 50 + rng.Intn(100)
		s.AtArg(Time(Duration(rng.Intn(8))*250*time.Microsecond), names[i], step, i)
	}
	ticks := 0
	stopTicker = s.Ticker(time.Millisecond, "tick", func(now Time) bool {
		*rec = append(*rec, firing{now, "tick"})
		ticks++
		return ticks < 40
	})
	return rec
}

// TestSlicedRunEqualsOneRun pins what the live transport's loop relies on:
// running to a sequence of increasing horizons, some landing exactly on a
// pending event's time, fires exactly what one Run(0) fires, in the same
// order, with the same Fired and Scheduled counts.
func TestSlicedRunEqualsOneRun(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		whole := NewScheduler()
		want := slicedWorkload(whole, seed)
		if err := whole.Run(0); err != nil {
			t.Fatal(err)
		}

		sliced := NewScheduler()
		got := slicedWorkload(sliced, seed)
		pick := rand.New(rand.NewSource(-seed))
		var horizon Time
		slices := 0
		for sliced.Len() > 0 {
			next, _ := sliced.NextEventAt()
			switch pick.Intn(3) {
			case 0:
				horizon = next // exactly on an event
			case 1:
				horizon += Time(pick.Intn(100)) * Time(time.Microsecond) // often short of the next event
			default:
				horizon = next.Add(Duration(pick.Intn(5000)) * time.Microsecond)
			}
			if horizon < sliced.Now() {
				horizon = sliced.Now()
			}
			if horizon == 0 {
				horizon = 1 // Run(0) means no horizon
			}
			if err := sliced.Run(horizon); err != nil {
				t.Fatal(err)
			}
			if sliced.Now() != horizon {
				t.Fatalf("seed %d: Run(%v) left the clock at %v", seed, horizon, sliced.Now())
			}
			slices++
		}

		if len(*got) != len(*want) {
			t.Fatalf("seed %d: %d slices fired %d events, one Run fired %d", seed, slices, len(*got), len(*want))
		}
		for i := range *want {
			if (*got)[i] != (*want)[i] {
				t.Fatalf("seed %d: firing %d is %v in slices, %v in one Run", seed, i, (*got)[i], (*want)[i])
			}
		}
		if sliced.Fired() != whole.Fired() || sliced.Scheduled() != whole.Scheduled() {
			t.Fatalf("seed %d: sliced fired/scheduled %d/%d, one Run %d/%d",
				seed, sliced.Fired(), sliced.Scheduled(), whole.Fired(), whole.Scheduled())
		}
		ties := 0
		for i := 1; i < len(*want); i++ {
			if (*want)[i].at == (*want)[i-1].at {
				ties++
			}
		}
		if slices < 50 || ties < 50 {
			t.Fatalf("seed %d: %d slices, %d same-instant ties; the workload is too tame to test slicing", seed, slices, ties)
		}
	}
}

// onHeap runs fn as the "heap" subtest against a fresh scheduler, keeping
// the Dispatched checks named by the queue they exercise.
func onHeap(t *testing.T, fn func(t *testing.T, s *Scheduler)) {
	t.Run("heap", func(t *testing.T) { fn(t, NewScheduler()) })
}

// TestDispatchedSameInstantTies pins where a virtual event stamped with
// Scheduled sorts against a real event due at the same instant: before one
// scheduled after the stamp, after one scheduled before it.
func TestDispatchedSameInstantTies(t *testing.T) {
	onHeap(t, func(t *testing.T, s *Scheduler) {
		at := Time(time.Millisecond)
		before := s.Scheduled() // stamped, then a real event: the stamp sorts first
		var sawBefore, sawAfter []bool
		var after uint64
		s.At(at, "stamped-before", func(Time) {
			sawBefore = append(sawBefore, s.Dispatched(at, before))
		})
		s.At(at, "stamped-after", func(Time) {
			sawAfter = append(sawAfter, s.Dispatched(at, after))
			s.At(at, "later", func(Time) { sawAfter = append(sawAfter, s.Dispatched(at, after)) })
		})
		after = s.Scheduled() // a real event, then the stamp: the stamp sorts last
		if s.Dispatched(at, before) || s.Dispatched(at, after) {
			t.Fatal("stamps due in the future report fired before Run")
		}
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		if len(sawBefore) != 1 || !sawBefore[0] {
			t.Fatalf("stamp taken before the real event: fired while it ran = %v, want [true]", sawBefore)
		}
		if len(sawAfter) != 2 || sawAfter[0] || !sawAfter[1] {
			t.Fatalf("stamp taken after the real event: fired = %v, want [false true]", sawAfter)
		}
	})
}

// TestDispatchedZeroDelaySameInstant covers a stamp due at the current
// instant (zero serialisation time): it sorts after every event already
// queued for that instant and before one a callback schedules there after
// taking it.
func TestDispatchedZeroDelaySameInstant(t *testing.T) {
	onHeap(t, func(t *testing.T, s *Scheduler) {
		at := Time(2 * time.Millisecond)
		var stamp uint64
		var got []bool
		for i := 0; i < 4; i++ {
			i := i
			s.At(at, "queued", func(now Time) {
				switch {
				case i == 1:
					stamp = s.Scheduled()
					s.At(now, "rescheduled", func(Time) { got = append(got, s.Dispatched(now, stamp)) })
				case i > 1:
					got = append(got, s.Dispatched(now, stamp))
				}
			})
		}
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		want := []bool{false, false, true}
		if len(got) != len(want) {
			t.Fatalf("observed %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("observed %v, want %v", got, want)
			}
		}
	})
}

// TestDispatchedAfterRunReturns: once Run returns at its horizon or by
// draining, everything due by Now has fired, but a stamp taken after the
// return — due now — would only fire in the next Run.
func TestDispatchedAfterRunReturns(t *testing.T) {
	onHeap(t, func(t *testing.T, s *Scheduler) {
		horizon := Time(10 * time.Millisecond)
		atHorizon := s.Scheduled()
		s.At(horizon+1, "beyond", func(Time) {})
		if err := s.Run(horizon); err != nil {
			t.Fatal(err)
		}
		if !s.Dispatched(horizon, atHorizon) || !s.Dispatched(horizon-1, atHorizon+5) {
			t.Fatal("stamps due by the horizon do not count as fired after Run stopped there")
		}
		if s.Dispatched(horizon+1, atHorizon) {
			t.Fatal("stamp due past the horizon counts as fired")
		}
		if late := s.Scheduled(); s.Dispatched(horizon, late) {
			t.Fatal("stamp taken after Run returned counts as fired")
		}
		// Drain: the clock stops at the last event, which has fired.
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		if s.Now() != horizon+1 {
			t.Fatalf("drained at %v, want %v", s.Now(), horizon+1)
		}
		if !s.Dispatched(horizon+1, atHorizon) || !s.Dispatched(horizon+1, s.Scheduled()-1) {
			t.Fatal("stamps due by the drained clock do not count as fired")
		}
		if s.Dispatched(horizon+1, s.Scheduled()) {
			t.Fatal("stamp taken after draining counts as fired")
		}
	})
}

// TestDispatchedAfterReset: Reset rewinds dispatch with the clock.
func TestDispatchedAfterReset(t *testing.T) {
	onHeap(t, func(t *testing.T, s *Scheduler) {
		s.At(Time(time.Millisecond), "a", func(Time) {})
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		if !s.Dispatched(0, 0) {
			t.Fatal("epoch stamp not fired after Run")
		}
		s.Reset(nil)
		if s.Scheduled() != 0 || s.Dispatched(0, 0) {
			t.Fatalf("Reset left dispatch state: next seq %d, epoch stamp fired %t", s.Scheduled(), s.Dispatched(0, 0))
		}
	})
}
