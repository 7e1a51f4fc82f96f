package transport

import (
	"testing"
	"time"

	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/netsim"
)

// The conformance harness abstracts the one thing the simulated host and
// Live differ on: how the world makes progress. Everything a stack does
// between runs — bind, rebind, unbind, rebind again — must behave
// identically on both, because the servers rebind their ports between
// sessions and a semantic drift here would only surface as a live-only
// hang.
type confEnv struct {
	// do runs fn in the transport's execution context (the run loop for
	// Live, directly for the single-threaded simulated host).
	do func(fn func())
	// send transmits payload from the sender to the receiver's test port.
	send func(payload []byte)
	// settle lets in-flight traffic drain. With want=true it returns once
	// check (evaluated in the transport's context) holds, failing the test
	// if it never does; with want=false it waits out a grace period and
	// asserts check stayed false throughout.
	settle    func(check func() bool, want bool)
	bindUDP   func(fn UDPHandler)
	unbindUDP func()
}

const confPort inet.Port = 47121

// testRebindSemantics drives the shared conformance scenario.
func testRebindSemantics(t *testing.T, env *confEnv) {
	var got1, got2, got3 int
	bind := func(counter *int) UDPHandler {
		return func(eventsim.Time, inet.Endpoint, []byte) { *counter++ }
	}

	// A fresh bind delivers.
	env.do(func() { env.bindUDP(bind(&got1)) })
	env.send([]byte("one"))
	env.settle(func() bool { return got1 == 1 }, true)

	// Rebinding replaces the handler: the old one sees nothing more.
	env.do(func() { env.bindUDP(bind(&got2)) })
	env.send([]byte("two"))
	env.settle(func() bool { return got2 == 1 }, true)
	env.do(func() {
		if got1 != 1 {
			t.Errorf("replaced handler saw %d packets, want 1", got1)
		}
	})

	// Unbinding drops traffic on the floor — no handler runs.
	env.do(func() { env.unbindUDP() })
	env.send([]byte("three"))
	env.settle(func() bool { return got1 > 1 || got2 > 1 || got3 > 0 }, false)

	// A rebind after unbind works again (server restart between runs).
	env.do(func() { env.bindUDP(bind(&got3)) })
	env.send([]byte("four"))
	env.settle(func() bool { return got3 == 1 }, true)
}

func TestRebindSemanticsSim(t *testing.T) {
	n := netsim.New(1)
	src := inet.MakeAddr(10, 0, 0, 1)
	dst := inet.MakeAddr(10, 0, 0, 2)
	a := n.AddHost(src)
	b := n.AddHost(dst)
	n.ConnectDuplex(src, dst, []netsim.HopSpec{
		{Addr: inet.MakeAddr(10, 0, 1, 1), Bandwidth: 100e6, PropDelay: time.Millisecond},
	})

	horizon := eventsim.Time(0)
	env := &confEnv{
		do:        func(fn func()) { fn() },
		send:      func(p []byte) { a.SendUDP(confPort, inet.Endpoint{Addr: dst, Port: confPort}, p) },
		bindUDP:   func(fn UDPHandler) { b.BindUDP(confPort, fn) },
		unbindUDP: func() { b.UnbindUDP(confPort) },
	}
	env.settle = func(check func() bool, want bool) {
		horizon = horizon.Add(100 * time.Millisecond)
		if err := n.Run(horizon); err != nil {
			t.Fatal(err)
		}
		if check() != want {
			t.Fatalf("sim settle: condition = %v, want %v", !want, want)
		}
	}
	testRebindSemantics(t, env)
}

func TestRebindSemanticsLive(t *testing.T) {
	lo := inet.MakeAddr(127, 0, 0, 1)
	a, err := NewLive(Config{BindIP: lo, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewLive(Config{BindIP: lo, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	env := &confEnv{
		do: func(fn func()) { b.DoWait(func(eventsim.Time) { fn() }) },
		send: func(p []byte) {
			a.DoWait(func(eventsim.Time) {
				if _, err := a.SendUDP(confPort+1, inet.Endpoint{Addr: lo, Port: confPort}, p); err != nil {
					t.Errorf("live send: %v", err)
				}
			})
		},
		bindUDP:   func(fn UDPHandler) { b.BindUDP(confPort, fn) },
		unbindUDP: func() { b.UnbindUDP(confPort) },
	}
	env.settle = func(check func() bool, want bool) {
		if !want {
			// Negative condition: wait out a grace period, then assert.
			time.Sleep(150 * time.Millisecond)
			var ok bool
			b.DoWait(func(eventsim.Time) { ok = check() })
			if ok {
				t.Fatal("live settle: condition became true during grace period")
			}
			return
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			var ok bool
			b.DoWait(func(eventsim.Time) { ok = check() })
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("live settle: condition never held")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	testRebindSemantics(t, env)
}

// timerEnv drives the timer and RNG half of the seam on one transport.
type timerEnv struct {
	// tr is the transport under test; twin is a second transport seeded
	// like tr, used only for RNGInto.
	tr, twin Transport
	// do and doTwin run fn in tr's and twin's execution contexts.
	do, doTwin func(fn func())
	// await advances time until check (evaluated in tr's context) holds,
	// failing the test if it never does; idle lets a grace period pass.
	await func(check func() bool)
	idle  func()
}

// confTick is the timer cadence of the scenario: about 10 ms keeps the
// live run short.
const confTick = 10 * time.Millisecond

// testTimerSemantics drives the shared timer and RNG scenario.
func testTimerSemantics(t *testing.T, env *timerEnv) {
	tr := env.tr

	// RNGInto rewinds a non-nil child in place to the stream a nil child
	// gets from an identically seeded transport.
	child := eventsim.NewRNG(99)
	var got, want [4]float64
	env.do(func() {
		if r := tr.RNGInto("conf.rng", child); r != child {
			t.Errorf("RNGInto returned %p, want the child %p", r, child)
		}
		for i := range got {
			got[i] = child.Float64()
		}
	})
	env.doTwin(func() {
		ref := env.twin.RNGInto("conf.rng", nil)
		for i := range want {
			want[i] = ref.Float64()
		}
	})
	if got != want {
		t.Errorf("RNGInto child draws %v, want %v", got, want)
	}

	// A ticker whose callback returns false on its third tick fires
	// exactly three times.
	var ticks int
	env.do(func() {
		tr.Ticker(confTick, "conf.tick", func(eventsim.Time) bool {
			ticks++
			return ticks < 3
		})
	})
	env.await(func() bool { return ticks >= 3 })
	env.idle()
	env.do(func() {
		if ticks != 3 {
			t.Errorf("ticker fired %d times, want 3", ticks)
		}
	})

	// A timer cancelled before its deadline never fires.
	var fired, cancelled bool
	env.do(func() {
		victim := tr.After(5*confTick, "conf.victim", func(eventsim.Time) { fired = true })
		tr.After(confTick, "conf.cancel", func(eventsim.Time) {
			tr.Cancel(victim)
			cancelled = true
		})
	})
	env.await(func() bool { return cancelled })
	env.idle()
	env.do(func() {
		if fired {
			t.Error("cancelled timer fired")
		}
	})
}

func TestTimerSemanticsSim(t *testing.T) {
	addr := inet.MakeAddr(10, 0, 0, 1)
	n := netsim.New(1)
	h := n.AddHost(addr)
	twin := netsim.New(1).AddHost(addr)

	horizon := eventsim.Time(0)
	advance := func() {
		horizon = horizon.Add(confTick)
		if err := n.Run(horizon); err != nil {
			t.Fatal(err)
		}
	}
	direct := func(fn func()) { fn() }
	testTimerSemantics(t, &timerEnv{
		tr: h, twin: twin, do: direct, doTwin: direct,
		await: func(check func() bool) {
			for i := 0; !check(); i++ {
				if i == 100 {
					t.Fatal("sim await: condition never held")
				}
				advance()
			}
		},
		idle: func() {
			for i := 0; i < 20; i++ {
				advance()
			}
		},
	})
}

func TestTimerSemanticsLive(t *testing.T) {
	lo := inet.MakeAddr(127, 0, 0, 1)
	a, err := NewLive(Config{BindIP: lo, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	twin, err := NewLive(Config{BindIP: lo, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()

	do := func(fn func()) { a.DoWait(func(eventsim.Time) { fn() }) }
	testTimerSemantics(t, &timerEnv{
		tr: a, twin: twin, do: do,
		doTwin: func(fn func()) { twin.DoWait(func(eventsim.Time) { fn() }) },
		await: func(check func() bool) {
			deadline := time.Now().Add(5 * time.Second)
			for {
				var ok bool
				do(func() { ok = check() })
				if ok {
					return
				}
				if time.Now().After(deadline) {
					t.Fatal("live await: condition never held")
				}
				time.Sleep(confTick / 2)
			}
		},
		idle: func() { time.Sleep(20 * confTick) },
	})
}
