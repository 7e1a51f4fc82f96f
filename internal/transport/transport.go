// Package transport is the seam between the protocol stacks (wms, rdt,
// tcplite) and the thing that carries their packets. The stacks speak the
// small Transport interface — exactly what they use of *netsim.Host —
// and *netsim.Host or *transport.Live is the Transport:
//
//   - *netsim.Host implements it directly: every method is the host's own
//     IP layer or a one-line call into the network's shared scheduler and
//     root RNG, so simulated runs are pinned by the repo's golden digests.
//   - Live drives real net.UDPConn sockets: a private event loop mirrors
//     the simulator's single-threaded discipline over wall-clock time, so
//     the same protocol code streams over localhost — or a real network —
//     unchanged.
//
// The interface is deliberately host-shaped rather than idealised: the
// point is that the protocol port is mechanical (s/­*netsim.Host/
// transport.Transport/) and the sim path keeps its 0-allocs/packet steady
// state.
package transport

import (
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/netsim"
)

// UDPHandler consumes a reassembled UDP payload addressed to a bound port.
// The payload view is only valid for the duration of the call on either
// implementation (the simulator recycles wire buffers; the live loop
// recycles frame buffers).
type UDPHandler = netsim.UDPHandler

// TCPHandler consumes reassembled TCP segments; tcplite registers one per
// transport and demultiplexes by port internally.
type TCPHandler = netsim.TCPHandler

var _ Transport = (*netsim.Host)(nil)

// Transport is what the protocol stacks use of a host: UDP send and port
// binding, the raw-TCP seam tcplite needs, a clock, timers on the owning
// event loop, and a labelled deterministic RNG. All methods must be called
// from the transport's event loop (simulation callbacks on a netsim.Host;
// the run loop on Live — use Live.Do to get there), which is what keeps
// protocol state single-threaded and runs deterministic.
type Transport interface {
	// Addr returns the local address.
	Addr() inet.Addr
	// MTU returns the interface MTU (1500 on both implementations unless
	// overridden; Live uses it only to estimate fragment-train lengths —
	// the kernel does the actual fragmenting).
	MTU() int
	// Now returns the current time on the transport's clock: simulated
	// time on a netsim.Host, wall time since the transport started on Live.
	Now() eventsim.Time

	// SendUDP transmits payload from srcPort to dst and reports the
	// fragment-train length (wire packets emitted, or an estimate on
	// Live). The payload may be reused immediately after the call.
	SendUDP(srcPort inet.Port, dst inet.Endpoint, payload []byte) (int, error)
	// BindUDP routes payloads addressed to port to fn. Binding a bound
	// port replaces the handler (servers rebind between runs).
	BindUDP(port inet.Port, fn UDPHandler)
	// UnbindUDP removes a port binding; traffic to the port is dropped
	// until it is bound again.
	UnbindUDP(port inet.Port)

	// SendTCP transmits a raw TCP segment to dst; OnTCP registers the
	// single per-transport segment consumer. Live tunnels segments over a
	// dedicated UDP port (both ends must use the same tunnel port).
	SendTCP(dst inet.Addr, seg []byte) error
	OnTCP(fn TCPHandler)

	// After, AfterArg and Ticker schedule work on the transport's event
	// loop; Cancel revokes a pending timer. Semantics match
	// eventsim.Scheduler.
	After(d time.Duration, name string, fn func(now eventsim.Time)) eventsim.Timer
	AfterArg(d time.Duration, name string, fn func(now eventsim.Time, arg any), arg any) eventsim.Timer
	Ticker(interval time.Duration, name string, fn func(now eventsim.Time) bool) (stop func())
	Cancel(t eventsim.Timer)

	// RNGInto derives the labelled deterministic stream for a protocol
	// component (netsim.Host: a split of the network root RNG; Live: a
	// split of a private seeded root), rewinding child in place instead of
	// allocating a new source, so a stack's Reset re-arms its stream
	// allocation-free. A nil child allocates.
	RNGInto(label string, child *eventsim.RNG) *eventsim.RNG
}
