package core

import (
	"fmt"
	"time"

	"turbulence/internal/capture"
	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/media"
	"turbulence/internal/netsim"
	"turbulence/internal/rdt"
	"turbulence/internal/segment"
	"turbulence/internal/transport"
	"turbulence/internal/wms"
)

// liveServerAddr is the simulated server address WMSPayloadDigest uses for
// the reference run. Arbitrary but fixed: the digest covers payload bytes,
// not addresses.
var liveServerAddr = inet.MakeAddr(207, 46, 1, 9)

// WMSPayloadDigest streams clip over a clean (impairment-free) simulated
// path and returns the order-independent digest of the delivered data
// units. This is the parity reference for a live loopback session: with
// no loss on either path, the live client must deliver exactly the same
// (seq, payload) set the simulated client does, whatever the packet
// timing looked like.
func WMSPayloadDigest(clip media.Clip) (digest string, units int, err error) {
	n := netsim.New(1)
	client := n.AddHost(ClientAddr)
	srv := n.AddHost(liveServerAddr)
	// A clean fat path: no loss, jitter or queue pressure — nothing that
	// could drop a unit and make the reference diverge from lossless
	// loopback delivery.
	n.ConnectDuplex(ClientAddr, liveServerAddr, []netsim.HopSpec{
		{Addr: inet.MakeAddr(10, 99, 0, 1), Bandwidth: 100e6, PropDelay: time.Millisecond},
		{Addr: inet.MakeAddr(10, 99, 0, 2), Bandwidth: 100e6, PropDelay: time.Millisecond},
	})
	server := wms.NewServer(transport.NewSim(srv))
	server.Register(clip.Name(), clip)
	var dig wms.UnitDigest
	player := wms.NewPlayer(transport.NewSim(client), liveServerAddr, clip.Name(), WMPCtlPort, WMPDataPort, wms.PlayerEvents{
		DataUnit: func(_ eventsim.Time, seq uint32, payload []byte) { dig.Add(seq, payload) },
	})
	player.Start()
	horizon := eventsim.Time(clip.Duration + segment.Preroll + time.Minute)
	if err := n.Run(horizon); err != nil {
		return "", 0, err
	}
	if player.State() != wms.Done {
		return "", 0, fmt.Errorf("core: reference session stalled in state %v", player.State())
	}
	return dig.Sum(), dig.Units(), nil
}

// LiveServers are the protocol servers ServeLive attached to a live
// transport.
type LiveServers struct {
	WMS *wms.Server
	RDT *rdt.Server
}

// ServeLive attaches a WMS and an RDT server to the live transport and
// registers the full clip library on both. It returns an error if the WMS
// control port cannot be bound (the primary live path is unusable);
// lesser failures — the RTSP control port is privileged (554) and
// typically needs root — are reported through logf and leave that server
// reachable only in theory.
func ServeLive(lt *transport.Live, logf func(format string, args ...any)) (*LiveServers, error) {
	var ls LiveServers
	lt.DoWait(func(eventsim.Time) {
		ls.WMS = wms.NewServer(lt)
		ls.RDT = rdt.NewServer(lt)
		for _, clip := range media.AllClips() {
			if clip.Format == media.WindowsMedia {
				ls.WMS.Register(clip.Name(), clip)
			} else {
				ls.RDT.Register(clip.Name(), clip)
			}
		}
	})
	if err := lt.BindErr(inet.PortMMSCtl); err != nil {
		return nil, fmt.Errorf("core: wms control port: %w", err)
	}
	if err := lt.BindErr(inet.PortRTSPCtl); err != nil && logf != nil {
		logf("rdt control port %d unavailable (privileged port?): %v", inet.PortRTSPCtl, err)
	}
	return &ls, nil
}

// LiveReport is the outcome of one live client session.
type LiveReport struct {
	Clip       media.Clip
	Digest     string // order-independent payload digest (wms.UnitDigest)
	Units      int    // data units delivered
	UnitsLost  int    // sequence gaps the player observed
	Bytes      int    // payload bytes received
	SendErrors int    // control-plane send failures
	Elapsed    time.Duration
	Profile    FlowProfile // online analyzer profile of the data flow
}

// PlayLive streams clip from a live WMS server at the given address and
// blocks until the session completes (or timeout expires). The receive
// path feeds the same online flow analyzer the simulator uses, so the
// report's Profile is directly comparable to a sim Comparison's WMP
// column; the Digest is comparable to WMSPayloadDigest of the same clip.
func PlayLive(lt *transport.Live, server inet.Addr, clip media.Clip, timeout time.Duration, logf func(format string, args ...any)) (*LiveReport, error) {
	var (
		dig     wms.UnitDigest
		metrics capture.FlowMetrics
		player  *wms.Player
		done    = make(chan struct{})
	)
	started := time.Now()
	lt.DoWait(func(now eventsim.Time) {
		lt.SetRecvTap(func(now eventsim.Time, local inet.Port, from inet.Endpoint, payloadLen int) {
			if local != WMPDataPort || from.Addr != server {
				return
			}
			// Synthesize the capture record a simulated tap would produce
			// for an unfragmented datagram of this payload (loopback's
			// 64 KB MTU means the kernel does not fragment these).
			metrics.Observe(&capture.Record{
				At:      time.Duration(now),
				WireLen: payloadLen + inet.UDPHeaderLen + inet.IPv4HeaderLen + inet.EthernetOverhead,
			})
		})
		lt.TrackSeqs(WMPDataPort, 4096, func(payload []byte) (uint32, bool) {
			h, _, err := wms.ParseData(payload)
			return h.Seq, err == nil
		})
		player = wms.NewPlayer(lt, server, clip.Name(), WMPCtlPort, WMPDataPort, wms.PlayerEvents{
			DataUnit: func(_ eventsim.Time, seq uint32, payload []byte) { dig.Add(seq, payload) },
			SendError: func(_ eventsim.Time, err error) {
				if logf != nil {
					logf("send error: %v", err)
				}
			},
			Done: func(eventsim.Time) { close(done) },
		})
		player.Start()
	})
	select {
	case <-done:
	case <-time.After(timeout):
		return nil, fmt.Errorf("core: live session timed out after %v (server %s unreachable or clip stalled)", timeout, server)
	}
	rep := &LiveReport{Clip: clip, Elapsed: time.Since(started)}
	lt.DoWait(func(eventsim.Time) {
		rep.Digest = dig.Sum()
		rep.Units = dig.Units()
		rep.UnitsLost = player.UnitsLost
		rep.Bytes = player.BytesReceived
		rep.SendErrors = player.SendErrors
		rep.Profile = ProfileFromMetrics(&metrics)
	})
	return rep, nil
}
