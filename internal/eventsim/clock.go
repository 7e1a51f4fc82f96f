// Package eventsim provides the discrete-event simulation engine that the
// turbulence network and player models run on: a virtual clock, an event
// scheduler backed by a pooled 4-ary heap, and deterministic random number
// utilities. Everything in the repository that "takes time" is an event on a
// Scheduler; no wall-clock time is ever consulted, so runs are exactly
// reproducible for a given seed. Each Scheduler is single-threaded;
// concurrency lives one level up, where independent experiment runs each
// own a private Scheduler and fan out across OS threads.
package eventsim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, measured as a Duration since the start
// of the simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Duration re-exports time.Duration for call-site clarity.
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// String formats the time like "12.345s".
func (t Time) String() string { return time.Duration(t).String() }

// At builds a Time from floating-point seconds since the epoch.
func At(seconds float64) Time {
	return Time(time.Duration(seconds * float64(time.Second)))
}

// CheckNonNegative panics if d is negative; schedule distances must not go
// backwards in time. It returns d so it can be used inline.
func CheckNonNegative(d Duration) Duration {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative duration %v", d))
	}
	return d
}
