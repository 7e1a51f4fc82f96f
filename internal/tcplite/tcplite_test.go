package tcplite

import (
	"bytes"
	"testing"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/netsim"
)

var (
	clientAddr = inet.MakeAddr(130, 215, 10, 5)
	serverAddr = inet.MakeAddr(207, 46, 1, 9)
)

func buildNet(t *testing.T, seed int64, loss float64, bw float64) (*netsim.Network, *Stack, *Stack) {
	t.Helper()
	n := netsim.New(seed)
	c := n.AddHost(clientAddr)
	s := n.AddHost(serverAddr)
	specs := []netsim.HopSpec{
		{Addr: inet.MakeAddr(10, 7, 0, 1), Bandwidth: 10e6, PropDelay: 3 * time.Millisecond},
		{Addr: inet.MakeAddr(10, 7, 0, 2), Bandwidth: bw, PropDelay: 10 * time.Millisecond, Loss: loss},
		{Addr: inet.MakeAddr(10, 7, 0, 3), Bandwidth: 45e6, PropDelay: 3 * time.Millisecond},
	}
	n.ConnectDuplex(clientAddr, serverAddr, specs)
	return n, NewStack(c), NewStack(s)
}

func TestHandshakeAndTransfer(t *testing.T) {
	n, cs, ss := buildNet(t, 1, 0, 10e6)
	var received bytes.Buffer
	var serverConn *Conn
	ss.Listen(80, func(c *Conn) {
		serverConn = c
		c.OnData(func(_ eventsim.Time, b []byte) { received.Write(b) })
	})
	payload := make([]byte, 100_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var connected bool
	conn, err := cs.Dial(0, inet.Endpoint{Addr: serverAddr, Port: 80}, func(eventsim.Time) {
		connected = true
	})
	if err != nil {
		t.Fatal(err)
	}
	conn.Send(payload)
	n.Run(eventsim.At(30))
	if !connected {
		t.Fatal("never connected")
	}
	if serverConn == nil || serverConn.State() != Established {
		t.Fatal("server side not established")
	}
	if !bytes.Equal(received.Bytes(), payload) {
		t.Fatalf("received %d bytes, want %d, equal=%t",
			received.Len(), len(payload), bytes.Equal(received.Bytes(), payload))
	}
	if conn.Retransmits != 0 {
		t.Fatalf("retransmits on a clean path: %d", conn.Retransmits)
	}
	if conn.SRTT() < 30*time.Millisecond || conn.SRTT() > 60*time.Millisecond {
		t.Fatalf("SRTT=%v, path RTT ~32ms + queueing", conn.SRTT())
	}
}

func TestReliableUnderLoss(t *testing.T) {
	n, cs, ss := buildNet(t, 2, 0.03, 10e6)
	var received bytes.Buffer
	ss.Listen(80, func(c *Conn) {
		c.OnData(func(_ eventsim.Time, b []byte) { received.Write(b) })
	})
	payload := make([]byte, 300_000)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	conn, err := cs.Dial(0, inet.Endpoint{Addr: serverAddr, Port: 80}, nil)
	if err != nil {
		t.Fatal(err)
	}
	conn.Send(payload)
	n.Run(eventsim.At(300))
	if !bytes.Equal(received.Bytes(), payload) {
		t.Fatalf("lossy transfer corrupt: got %d bytes want %d", received.Len(), len(payload))
	}
	if conn.Retransmits == 0 {
		t.Fatal("no retransmissions on a 3% lossy path")
	}
	if conn.FastRetrans == 0 {
		t.Fatal("fast retransmit never triggered")
	}
}

func TestCongestionControlRespectsBottleneck(t *testing.T) {
	// Through a 1 Mbps bottleneck, a bulk transfer must pace itself: its
	// goodput approaches but does not exceed the link rate.
	n, cs, ss := buildNet(t, 3, 0, 1e6)
	var lastByteAt eventsim.Time
	var got int
	ss.Listen(80, func(c *Conn) {
		c.OnData(func(now eventsim.Time, b []byte) {
			got += len(b)
			lastByteAt = now
		})
	})
	payload := make([]byte, 1_000_000) // 8 Mbit through 1 Mbps ~ 8s minimum
	conn, _ := cs.Dial(0, inet.Endpoint{Addr: serverAddr, Port: 80}, nil)
	conn.Send(payload)
	n.Run(eventsim.At(120))
	if got != len(payload) {
		t.Fatalf("transferred %d/%d", got, len(payload))
	}
	rate := float64(got*8) / lastByteAt.Seconds()
	if rate > 1.05e6 {
		t.Fatalf("goodput %v exceeds the bottleneck", rate)
	}
	if rate < 0.5e6 {
		t.Fatalf("goodput %v too low; window never opened", rate)
	}
}

func TestCloseHandshake(t *testing.T) {
	n, cs, ss := buildNet(t, 4, 0, 10e6)
	var serverClosed, clientClosed bool
	var received int
	ss.Listen(80, func(c *Conn) {
		c.OnData(func(_ eventsim.Time, b []byte) { received += len(b) })
		c.OnClose(func(eventsim.Time) { serverClosed = true })
	})
	conn, _ := cs.Dial(0, inet.Endpoint{Addr: serverAddr, Port: 80}, nil)
	conn.OnClose(func(eventsim.Time) { clientClosed = true })
	conn.Send(make([]byte, 5000))
	conn.Close()
	n.Run(eventsim.At(30))
	if received != 5000 {
		t.Fatalf("short delivery before close: %d", received)
	}
	if !serverClosed || !clientClosed {
		t.Fatalf("close callbacks: server=%t client=%t", serverClosed, clientClosed)
	}
	if conn.State() != Closed {
		t.Fatalf("client state=%v", conn.State())
	}
	if err := conn.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
}

func TestConnectTimeoutToNowhere(t *testing.T) {
	n := netsim.New(5)
	c := n.AddHost(clientAddr)
	cs := NewStack(c)
	var closed bool
	conn, err := cs.Dial(0, inet.Endpoint{Addr: serverAddr, Port: 80}, nil)
	if err != nil {
		t.Fatal(err)
	}
	conn.OnClose(func(eventsim.Time) { closed = true })
	n.Run(eventsim.At(120))
	if !closed || conn.State() != Closed {
		t.Fatalf("unreachable dial never gave up: %v", conn.State())
	}
}

func TestListenerErrors(t *testing.T) {
	n, cs, ss := buildNet(t, 6, 0, 10e6)
	_ = n
	if _, err := ss.Listen(80, func(*Conn) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Listen(80, func(*Conn) {}); err != ErrInUse {
		t.Fatalf("duplicate listen: %v", err)
	}
	// Dial to a non-listening port gets no reply and eventually dies.
	conn, _ := cs.Dial(0, inet.Endpoint{Addr: serverAddr, Port: 81}, nil)
	n.Run(eventsim.At(120))
	if conn.State() != Closed {
		t.Fatalf("dial to closed port: %v", conn.State())
	}
}

func TestSegmentsNeverFragment(t *testing.T) {
	n, cs, ss := buildNet(t, 7, 0, 10e6)
	ss.Listen(80, func(c *Conn) { c.OnData(func(eventsim.Time, []byte) {}) })
	frags := 0
	ss.Host().(*netsim.Host).Tap(func(_ eventsim.Time, dir netsim.Direction, d *inet.Datagram) {
		if dir == netsim.Recv && d.Header.IsFragment() {
			frags++
		}
	})
	conn, _ := cs.Dial(0, inet.Endpoint{Addr: serverAddr, Port: 80}, nil)
	conn.Send(make([]byte, 200_000))
	n.Run(eventsim.At(60))
	if frags != 0 {
		t.Fatalf("TCP produced %d IP fragments; MSS must fit the MTU", frags)
	}
}

func TestTwoConnectionsShareStack(t *testing.T) {
	n, cs, ss := buildNet(t, 8, 0, 10e6)
	got := map[inet.Port]int{}
	ss.Listen(80, func(c *Conn) {
		local := c.Remote().Port
		c.OnData(func(_ eventsim.Time, b []byte) { got[local] += len(b) })
	})
	c1, _ := cs.Dial(1001, inet.Endpoint{Addr: serverAddr, Port: 80}, nil)
	c2, _ := cs.Dial(1002, inet.Endpoint{Addr: serverAddr, Port: 80}, nil)
	c1.Send(make([]byte, 40_000))
	c2.Send(make([]byte, 60_000))
	n.Run(eventsim.At(60))
	if got[1001] != 40_000 || got[1002] != 60_000 {
		t.Fatalf("demux broken: %v", got)
	}
}

func TestDialErrors(t *testing.T) {
	_, cs, _ := buildNet(t, 9, 0, 10e6)
	if _, err := cs.Dial(1001, inet.Endpoint{Addr: serverAddr, Port: 80}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Dial(1001, inet.Endpoint{Addr: serverAddr, Port: 80}, nil); err != ErrInUse {
		t.Fatalf("duplicate dial: %v", err)
	}
}

func TestStateStrings(t *testing.T) {
	for _, st := range []State{SynSent, SynReceived, Established, FinWait, Closed} {
		if st.String() == "" {
			t.Fatal("state string")
		}
	}
	_, cs, _ := buildNet(t, 10, 0, 10e6)
	conn, _ := cs.Dial(0, inet.Endpoint{Addr: serverAddr, Port: 80}, nil)
	if conn.String() == "" || conn.Local().Addr != clientAddr || conn.Cwnd() <= 0 {
		t.Fatal("accessors")
	}
	if conn.Buffered() != 0 {
		t.Fatal("fresh conn buffered")
	}
}
