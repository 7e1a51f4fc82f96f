package capture

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
	cliEP      = inet.Endpoint{Addr: clientAddr, Port: 4000}
	srvEP      = inet.Endpoint{Addr: serverAddr, Port: inet.PortMMSData}
)

// mkRecord fabricates a received UDP record without a network.
func mkRecord(t testing.TB, at float64, payloadLen int, id uint16) Record {
	t.Helper()
	d, err := inet.BuildUDP(srvEP, cliEP, id, make([]byte, payloadLen))
	if err != nil {
		t.Fatal(err)
	}
	return parseRecord(time.Duration(at*float64(time.Second)), netsim.Recv, d)
}

// mkFragTrain fabricates the records of one fragmented datagram.
func mkFragTrain(t testing.TB, at float64, payloadLen int, id uint16) []Record {
	t.Helper()
	d, err := inet.BuildUDP(srvEP, cliEP, id, make([]byte, payloadLen))
	if err != nil {
		t.Fatal(err)
	}
	frags, err := inet.Fragment(d, inet.DefaultMTU)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Record, len(frags))
	for i, f := range frags {
		// Fragments arrive back-to-back 1 ms apart.
		out[i] = parseRecord(time.Duration((at+float64(i)*0.001)*float64(time.Second)), netsim.Recv, f)
	}
	return out
}

func TestParseRecordFields(t *testing.T) {
	r := mkRecord(t, 1.5, 500, 42)
	if r.WireLen != 500+inet.UDPHeaderLen+inet.IPv4HeaderLen+inet.EthernetOverhead {
		t.Fatalf("WireLen=%d", r.WireLen)
	}
	if !r.HasPorts || r.SrcPort != srvEP.Port || r.DstPort != cliEP.Port {
		t.Fatalf("ports: %+v", r)
	}
	if r.PayloadLen != 500 || r.IPID != 42 || r.Proto != inet.ProtoUDP {
		t.Fatalf("fields: %+v", r)
	}
	if r.IsFragment() || r.IsContinuationFragment() {
		t.Fatal("whole datagram flagged as fragment")
	}
	flow, ok := r.Flow()
	if !ok || flow.Src != srvEP || flow.Dst != cliEP {
		t.Fatalf("flow: %v", flow)
	}
	if r.String() == "" {
		t.Fatal("String")
	}
}

func TestFragmentRecordConventions(t *testing.T) {
	train := mkFragTrain(t, 0, 4000, 7)
	if len(train) != 3 {
		t.Fatalf("train=%d", len(train))
	}
	first, mid, last := train[0], train[1], train[2]
	if !first.IsFragment() || first.IsContinuationFragment() {
		t.Fatal("first fragment conventions")
	}
	if !first.HasPorts {
		t.Fatal("first fragment should expose ports")
	}
	if !mid.IsContinuationFragment() || mid.HasPorts {
		t.Fatal("middle fragment conventions")
	}
	if !last.IsContinuationFragment() || last.MoreFrag {
		t.Fatal("last fragment conventions")
	}
	if first.WireLen != inet.MaxWirePacket {
		t.Fatalf("first fragment wire len=%d", first.WireLen)
	}
}

func buildTestTrace(t testing.TB) *Trace {
	tr := &Trace{}
	// Flow A: 10 unfragmented 900-byte-payload packets, 100 ms apart.
	for i := 0; i < 10; i++ {
		tr.Append(mkRecord(t, float64(i)*0.1, 900, uint16(i+1)))
	}
	// Flow B (different port): 5 fragmented datagrams 200 ms apart.
	srvB := inet.Endpoint{Addr: serverAddr, Port: inet.PortRDTData}
	for i := 0; i < 5; i++ {
		d, _ := inet.BuildUDP(srvB, cliEP, uint16(100+i), make([]byte, 4000))
		frags, _ := inet.Fragment(d, inet.DefaultMTU)
		for j, f := range frags {
			at := time.Duration((float64(i)*0.2 + float64(j)*0.001) * float64(time.Second))
			tr.Append(parseRecord(at, netsim.Recv, f))
		}
	}
	return tr
}

func TestSplitFlows(t *testing.T) {
	tr := buildTestTrace(t)
	flows := tr.SplitFlows()
	if len(flows) != 2 {
		t.Fatalf("flows=%d", len(flows))
	}
	a, b := flows[0], flows[1]
	if a.Flow.Src.Port != inet.PortMMSData {
		a, b = b, a
	}
	if a.Len() != 10 {
		t.Fatalf("flow A packets=%d", a.Len())
	}
	if b.Len() != 15 { // 5 datagrams x 3 fragments
		t.Fatalf("flow B packets=%d", b.Len())
	}
	// Continuation fragments were attributed via IP ID.
	fs := b.Fragmentation()
	if fs.Datagrams != 5 || fs.Continuations != 10 {
		t.Fatalf("fragmentation: %+v", fs)
	}
	if got := fs.ContinuationShare(); got < 0.66 || got > 0.67 {
		t.Fatalf("continuation share=%v", got)
	}
}

func TestOrphanFragmentsSkipped(t *testing.T) {
	tr := &Trace{}
	train := mkFragTrain(t, 0, 3000, 9)
	// Drop the first fragment: the rest cannot be attributed.
	for _, r := range train[1:] {
		tr.Append(r)
	}
	if flows := tr.SplitFlows(); len(flows) != 0 {
		t.Fatalf("orphans created %d flows", len(flows))
	}
}

func TestFlowTo(t *testing.T) {
	tr := buildTestTrace(t)
	if f := tr.FlowTo(cliEP.Port); f == nil {
		t.Fatal("FlowTo by destination port failed")
	}
	if f := tr.FlowTo(9999); f != nil {
		t.Fatal("FlowTo invented a flow")
	}
}

func TestInterarrivals(t *testing.T) {
	tr := buildTestTrace(t)
	a := tr.SplitFlows()[0]
	ia := a.Interarrivals()
	if len(ia) != 9 {
		t.Fatalf("interarrivals=%d", len(ia))
	}
	for _, v := range ia {
		if v < 0.099 || v > 0.101 {
			t.Fatalf("interarrival %v, want ~0.1", v)
		}
	}
	var empty FlowTrace
	if empty.Interarrivals() != nil {
		t.Fatal("empty interarrivals")
	}
}

func TestGroupInterarrivalsCollapseTrains(t *testing.T) {
	tr := buildTestTrace(t)
	flows := tr.SplitFlows()
	b := flows[1]
	if b.Flow.Src.Port != inet.PortRDTData {
		b = flows[0]
	}
	raw := b.Interarrivals()
	grouped := b.GroupInterarrivals()
	if len(grouped) != 4 {
		t.Fatalf("grouped=%d, want 4", len(grouped))
	}
	for _, v := range grouped {
		if v < 0.19 || v > 0.21 {
			t.Fatalf("group interarrival %v, want ~0.2", v)
		}
	}
	// Raw interarrivals include the 1 ms intra-train gaps.
	short := 0
	for _, v := range raw {
		if v < 0.01 {
			short++
		}
	}
	if short != 10 {
		t.Fatalf("raw intra-train gaps=%d, want 10", short)
	}
}

func TestPacketSizesAndDistinct(t *testing.T) {
	tr := buildTestTrace(t)
	a := tr.SplitFlows()[0]
	sizes := a.PacketSizes()
	if len(sizes) != 10 {
		t.Fatalf("sizes=%d", len(sizes))
	}
	distinct, counts := a.DistinctSizes()
	if len(distinct) != 1 || counts[0] != 10 {
		t.Fatalf("CBR flow has %d distinct sizes", len(distinct))
	}
}

func TestBandwidthSeriesAndAverageRate(t *testing.T) {
	tr := &Trace{}
	// 10 packets of 1000 wire bytes in the first second, none in the next.
	for i := 0; i < 10; i++ {
		r := mkRecord(t, float64(i)*0.1, 1000-inet.UDPHeaderLen-inet.IPv4HeaderLen-inet.EthernetOverhead, uint16(i))
		tr.Append(r)
	}
	f := tr.SplitFlows()[0]
	bw := f.BandwidthSeries(time.Second)
	if len(bw) != 1 {
		t.Fatalf("buckets=%d", len(bw))
	}
	if bw[0].Y != 80000 { // 10 kB/s = 80 kbit/s
		t.Fatalf("bandwidth=%v", bw[0].Y)
	}
	if ar := f.AverageRate(); ar < 80000 || ar > 90000 {
		t.Fatalf("average rate=%v", ar)
	}
	var empty FlowTrace
	if empty.AverageRate() != 0 {
		t.Fatal("empty average rate")
	}
}

func TestSequencePointsAndWindow(t *testing.T) {
	tr := buildTestTrace(t)
	a := tr.SplitFlows()[0]
	pts := a.SequencePoints(200*time.Millisecond, 600*time.Millisecond)
	if len(pts) != 4 {
		t.Fatalf("sequence points=%d", len(pts))
	}
	if pts[0].Y != 2 {
		t.Fatalf("first index=%v", pts[0].Y)
	}
	w := a.Window(0, 300*time.Millisecond)
	if w.Len() != 3 {
		t.Fatalf("window=%d", w.Len())
	}
}

func TestTrainLengths(t *testing.T) {
	tr := buildTestTrace(t)
	flows := tr.SplitFlows()
	b := flows[1]
	tl := b.TrainLengths()
	if len(tl) != 5 {
		t.Fatalf("trains=%d", len(tl))
	}
	for _, n := range tl {
		if n != 3 {
			t.Fatalf("train length=%d, want 3", n)
		}
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	tr := buildTestTrace(t)
	var buf bytes.Buffer
	if err := WriteFile(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip len=%d, want %d", got.Len(), tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		a, b := tr.At(i), got.At(i)
		if a.At != b.At || a.WireLen != b.WireLen || a.IPID != b.IPID ||
			a.FragOff != b.FragOff || a.HasPorts != b.HasPorts || a.Dir != b.Dir {
			t.Fatalf("record %d mismatch:\n%+v\n%+v", i, a, b)
		}
	}
	// Analysis over the reloaded trace matches.
	if len(got.SplitFlows()) != 2 {
		t.Fatal("reloaded trace flows")
	}
}

func TestTraceFileErrors(t *testing.T) {
	if _, err := ReadFile(bytes.NewReader([]byte("BOGUS!!!"))); err != ErrBadMagic {
		t.Fatalf("magic: %v", err)
	}
	if _, err := ReadFile(bytes.NewReader(nil)); err != ErrBadMagic {
		t.Fatalf("empty: %v", err)
	}
	// Truncated record.
	tr := buildTestTrace(t)
	var buf bytes.Buffer
	WriteFile(&buf, tr)
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadFile(bytes.NewReader(trunc)); err != ErrCorrupt {
		t.Fatalf("truncated: %v", err)
	}
	// Bad version.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[4], bad[5] = 0xFF, 0xFF
	if _, err := ReadFile(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestSnifferIntegration(t *testing.T) {
	n := netsim.New(1)
	c := n.AddHost(clientAddr)
	s := n.AddHost(serverAddr)
	n.ConnectDuplex(clientAddr, serverAddr, []netsim.HopSpec{{
		Addr: inet.MakeAddr(10, 0, 0, 1), Bandwidth: 10e6, PropDelay: time.Millisecond,
	}})
	c.BindUDP(5000, func(eventsim.Time, inet.Endpoint, []byte) {})
	sniff := Attach(c)
	// Server streams 20 oversize frames to the client.
	for i := 0; i < 20; i++ {
		i := i
		n.Sched.At(eventsim.At(float64(i)*0.1), "send", func(eventsim.Time) {
			s.SendUDP(inet.PortMMSData, inet.Endpoint{Addr: clientAddr, Port: 5000}, make([]byte, 3000))
		})
	}
	n.Run(0)
	tr := sniff.Trace().Recv()
	if tr.Len() != 60 { // 20 datagrams x 3 fragments
		t.Fatalf("captured %d", tr.Len())
	}
	flows := tr.SplitFlows()
	if len(flows) != 1 {
		t.Fatalf("flows=%d", len(flows))
	}
	fs := flows[0].Fragmentation()
	if fs.Datagrams != 20 || fs.Continuations != 40 {
		t.Fatalf("fragmentation %+v", fs)
	}
}

func TestSnifferRecvOnly(t *testing.T) {
	n := netsim.New(1)
	c := n.AddHost(clientAddr)
	s := n.AddHost(serverAddr)
	n.ConnectDuplex(clientAddr, serverAddr, []netsim.HopSpec{{
		Addr: inet.MakeAddr(10, 0, 0, 1), Bandwidth: 10e6, PropDelay: time.Millisecond,
	}})
	s.BindUDP(inet.PortMMSData, func(eventsim.Time, inet.Endpoint, []byte) {})
	sniff := Attach(c)
	sniff.RecvOnly = true
	c.SendUDP(5000, inet.Endpoint{Addr: serverAddr, Port: inet.PortMMSData}, []byte("x"))
	n.Run(0)
	if sniff.Trace().Len() != 0 {
		t.Fatal("RecvOnly captured an outbound packet")
	}
}

func TestTraceDuration(t *testing.T) {
	tr := buildTestTrace(t)
	if tr.Duration() <= 0 {
		t.Fatal("duration")
	}
	var empty Trace
	if empty.Duration() != 0 {
		t.Fatal("empty duration")
	}
}

func TestTCPRecordsAnalyzable(t *testing.T) {
	// TCP segments (for the transport-comparison experiments) flow through
	// the same capture pipeline: ports parsed, flows split, files round-
	// tripped.
	tr := &Trace{}
	for i := 0; i < 5; i++ {
		d, err := inet.BuildTCP(srvEP, cliEP, uint16(i+1), inet.TCPHeader{
			Seq: uint32(1000 + i*1460), Ack: 55, Flags: inet.TCPAck,
			Window: 65535,
		}, make([]byte, 1460))
		if err != nil {
			t.Fatal(err)
		}
		tr.Append(parseRecord(time.Duration(i)*50*time.Millisecond, netsim.Recv, d))
	}
	flows := tr.SplitFlows()
	if len(flows) != 1 {
		t.Fatalf("flows=%d", len(flows))
	}
	ft := flows[0]
	if ft.Flow.Src != srvEP || ft.Flow.Dst != cliEP {
		t.Fatalf("flow=%v", ft.Flow)
	}
	if ft.At(0).PayloadLen != 1460 {
		t.Fatalf("payload len=%d", ft.At(0).PayloadLen)
	}
	// File round trip preserves TCP records.
	var buf bytes.Buffer
	if err := WriteFile(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.SplitFlows()) != 1 {
		t.Fatal("reloaded TCP flows")
	}
	// Display filters match TCP by protocol.
	f, err := Compile("ip.proto == tcp")
	if err != nil {
		t.Fatal(err)
	}
	if f.Apply(tr).Len() != 5 {
		t.Fatal("proto filter missed TCP records")
	}
}
