package experiments

import (
	"time"

	"turbulence/internal/capture"
	"turbulence/internal/core"
	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/media"
	"turbulence/internal/netsim"
	"turbulence/internal/stats"
	"turbulence/internal/tcplite"
	"turbulence/internal/wms"
)

func init() {
	register("ext-tcp", "Extension (§II.D/§I): the same media workload over UDP vs TCP", extTCP)
}

// extTCP makes the paper's motivating claim measurable: §I argues that
// streaming prefers UDP because window-based transports deliver "bursty"
// rates. Both players could stream over TCP (§II.D); the paper forced UDP.
// Here the same CBR media workload (the set 1 high WMP clip) crosses the
// same mildly lossy path twice — once over the WMS UDP stack, once written
// into a tcplite connection at the encoding rate — and the two deliveries'
// turbulence is compared.
func extTCP(ctx *Context) (*Result, error) {
	clip, _ := media.FindClip(1, media.WindowsMedia, media.High) // 323.1 Kbps CBR
	const pathLoss = 0.005                                       // enough to provoke TCP recovery

	udpFlow, err := extTCPRunUDP(ctx.Seed+701, clip, pathLoss)
	if err != nil {
		return nil, err
	}
	tcpFlow, err := extTCPRunTCP(ctx.Seed+702, clip, pathLoss)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:      "ext-tcp",
		Title:   "Same media workload over UDP (WMS) vs TCP (set 1 high clip, 0.5% path loss)",
		Columns: []string{"transport", "packets", "group ia CV", "rate CV (1s)", "longest gap (ms)", "frag %"},
	}
	for _, v := range []struct {
		name string
		flow *capture.FlowTrace
	}{{"UDP (WMS)", udpFlow}, {"TCP (tcplite)", tcpFlow}} {
		prof := core.ProfileFlow(v.flow)
		res.Rows = append(res.Rows, []string{
			v.name,
			fmtInt(prof.Packets),
			fmtF(prof.InterarrivalCV),
			fmtF(rateCV(v.flow)),
			fmtF(longestGap(v.flow).Seconds() * 1000),
			fmtPct(prof.FragShare),
		})
	}
	udpProf, tcpProf := core.ProfileFlow(udpFlow), core.ProfileFlow(tcpFlow)
	res.AddNote("TCP interarrival CV %.2f vs UDP %.2f: window-based delivery is the burstier transport (paper §I)",
		tcpProf.InterarrivalCV, udpProf.InterarrivalCV)
	res.AddNote("longest delivery gap: TCP %.0f ms vs UDP %.0f ms — loss recovery stalls the ordered byte stream",
		longestGap(tcpFlow).Seconds()*1000, longestGap(udpFlow).Seconds()*1000)
	res.AddNote("TCP never IP-fragments (MSS fits the MTU); WMS over UDP fragments %.0f%% of packets", udpProf.FragShare*100)
	return res, nil
}

// extTCPPath builds the shared test path with the given loss.
func extTCPPath(seed int64, loss float64) (*netsim.Network, *netsim.Host, *netsim.Host) {
	n := netsim.New(seed)
	client := n.AddHost(inet.MakeAddr(130, 215, 10, 5))
	server := n.AddHost(inet.MakeAddr(207, 46, 1, 9))
	site, _ := core.SiteFor(1)
	specs := site.HopSpecs()
	// Concentrate the experiment's loss at the bottleneck hop.
	specs[len(specs)-1].Loss = loss
	n.ConnectDuplex(client.Addr(), server.Addr(), specs)
	return n, client, server
}

// extTCPRunUDP streams the clip via the WMS stack and returns the data
// flow from the client capture.
func extTCPRunUDP(seed int64, clip media.Clip, loss float64) (*capture.FlowTrace, error) {
	n, client, server := extTCPPath(seed, loss)
	srv := wms.NewServer(server)
	srv.Register(clip.Name(), clip)
	sniff := capture.Attach(client)
	sniff.RecvOnly = true
	p := wms.NewPlayer(client, server.Addr(), clip.Name(), 4001, 4002, wms.PlayerEvents{})
	p.Start()
	if err := n.Run(eventsim.At(clip.Duration.Seconds() + 60)); err != nil {
		return nil, err
	}
	return sniff.Trace().FlowTo(4002), nil
}

// extTCPRunTCP writes the clip's byte stream into a TCP connection at the
// encoding rate — a server streaming "over TCP" as §II.D describes — and
// returns the client-side data flow.
func extTCPRunTCP(seed int64, clip media.Clip, loss float64) (*capture.FlowTrace, error) {
	n, client, server := extTCPPath(seed, loss)
	clientStack := tcplite.NewStack(client)
	serverStack := tcplite.NewStack(server)
	sniff := capture.Attach(client)
	sniff.RecvOnly = true

	// Server: on accept, pace clip bytes into the connection.
	bytesPerTick := int(clip.EncodedBps() * 0.1 / 8)
	totalBytes := int(clip.EncodedBps() / 8 * clip.Duration.Seconds())
	serverStack.Listen(inet.PortMMSData, func(conn *tcplite.Conn) {
		sent := 0
		chunk := make([]byte, bytesPerTick)
		server.Ticker(100*time.Millisecond, "tcp.mediaWriter", func(eventsim.Time) bool {
			if sent >= totalBytes || conn.State() == tcplite.Closed {
				conn.Close()
				return false
			}
			conn.Send(chunk)
			sent += len(chunk)
			return true
		})
	})
	if _, err := clientStack.Dial(4002, inet.Endpoint{Addr: server.Addr(), Port: inet.PortMMSData}, nil); err != nil {
		return nil, err
	}
	if err := n.Run(eventsim.At(clip.Duration.Seconds() + 120)); err != nil {
		return nil, err
	}
	// The data flow runs server->client from the MMS port.
	for _, ft := range sniff.Trace().SplitFlows() {
		if ft.Flow.Src.Port == inet.PortMMSData {
			return dataOnly(ft), nil
		}
	}
	return nil, errNoTCPFlow
}

var errNoTCPFlow = errTCP("ext-tcp: no TCP data flow captured")

type errTCP string

func (e errTCP) Error() string { return string(e) }

// dataOnly strips pure-ACK segments so the comparison covers media
// delivery, not control chatter.
func dataOnly(ft *capture.FlowTrace) *capture.FlowTrace {
	return ft.Where(func(r *capture.Record) bool { return r.PayloadLen > 0 })
}

// rateCV is the coefficient of variation of the one-second delivery rate
// over the flow's active middle (trimming the first and last 5 seconds).
func rateCV(ft *capture.FlowTrace) float64 {
	series := ft.BandwidthSeries(time.Second)
	if len(series) < 12 {
		return 0
	}
	var ys []float64
	for _, p := range series[5 : len(series)-5] {
		ys = append(ys, p.Y)
	}
	s := stats.Summarize(ys)
	if s.Mean == 0 {
		return 0
	}
	return s.StdDev / s.Mean
}

// longestGap returns the maximum spacing between consecutive deliveries.
func longestGap(ft *capture.FlowTrace) time.Duration {
	var max time.Duration
	for i := 1; i < ft.Len(); i++ {
		if gap := ft.At(i).At - ft.At(i-1).At; gap > max {
			max = gap
		}
	}
	return max
}
