package transport

import (
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/netsim"
)

// Sim adapts a *netsim.Host to the Transport interface. Every method is a
// one-line delegation to the host or the network's shared scheduler — the
// exact calls the protocol stacks made before the seam existed — so a
// stack running over Sim is byte-identical to the pre-seam code, including
// event ordering, RNG stream labels and the 0-allocs/packet steady state.
type Sim struct {
	h *netsim.Host
}

// NewSim wraps a simulated host.
func NewSim(h *netsim.Host) *Sim { return &Sim{h: h} }

// Host exposes the wrapped host for callers that need simulator-only
// surface (taps, counters, the network itself).
func (s *Sim) Host() *netsim.Host { return s.h }

// Addr returns the host's address.
func (s *Sim) Addr() inet.Addr { return s.h.Addr() }

// MTU returns the host's interface MTU.
func (s *Sim) MTU() int { return s.h.MTU() }

// Now returns the current simulated time.
func (s *Sim) Now() eventsim.Time { return s.h.Now() }

// SendUDP delegates to the host's IP layer (pooled wire buffers,
// RFC 791 fragmentation).
func (s *Sim) SendUDP(srcPort inet.Port, dst inet.Endpoint, payload []byte) (int, error) {
	return s.h.SendUDP(srcPort, dst, payload)
}

// BindUDP routes payloads addressed to port to fn; binding a bound port
// replaces the handler.
func (s *Sim) BindUDP(port inet.Port, fn UDPHandler) { s.h.BindUDP(port, fn) }

// UnbindUDP removes a port binding.
func (s *Sim) UnbindUDP(port inet.Port) { s.h.UnbindUDP(port) }

// SendTCP transmits a raw TCP segment datagram.
func (s *Sim) SendTCP(dst inet.Addr, seg []byte) error { return s.h.SendTCP(dst, seg) }

// OnTCP registers the host's TCP segment consumer.
func (s *Sim) OnTCP(fn TCPHandler) { s.h.OnTCP(fn) }

// After schedules fn on the network's shared event loop.
func (s *Sim) After(d time.Duration, name string, fn func(now eventsim.Time)) eventsim.Timer {
	return s.h.After(d, name, fn)
}

// AfterArg is After's closure-free form for per-packet cadences.
func (s *Sim) AfterArg(d time.Duration, name string, fn func(now eventsim.Time, arg any), arg any) eventsim.Timer {
	return s.h.AfterArg(d, name, fn, arg)
}

// Ticker repeats fn on the shared scheduler until stopped.
func (s *Sim) Ticker(interval time.Duration, name string, fn func(now eventsim.Time) bool) (stop func()) {
	return s.h.Network().Sched.Ticker(interval, name, fn)
}

// Cancel revokes a pending timer.
func (s *Sim) Cancel(t eventsim.Timer) { s.h.Network().Sched.Cancel(t) }

// RNGInto splits the labelled stream off the network's root RNG into
// child; see Transport.
func (s *Sim) RNGInto(label string, child *eventsim.RNG) *eventsim.RNG {
	return s.h.Network().RNG().SplitInto(label, child)
}

var _ Transport = (*Sim)(nil)
