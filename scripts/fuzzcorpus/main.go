// Command fuzzcorpus regenerates the seed corpora of the packet-decoder
// fuzz targets from a golden pair run: the set 2 / high pair at the
// reference seed 2002, the run TestPairRunGoldenDigest pins. It captures
// the run's packets, reassembles fragment trains, and writes the first
// captured datagram of each kind (ICMP echo reply and time exceeded, a
// whole UDP datagram, a first and a continuation fragment) with a TCP
// segment carrying the first RTSP response (the run has no TCP), the
// first datagram of every UDP flow, the first reassembled Windows Media
// data unit, the first few segment lists of each player, every RTSP response
// the client received, lists of RealPlayer data-packet sequence numbers
// (NAK "Seqs" headers), the first RDT data-channel packet of each kind
// (a data packet, a probe, the end marker), every Windows Media control
// message the client received and its first data unit, the first Windows
// Media fragment train as timed fragment sets (whole, and with a fragment
// lost and the train resent after the reassembly timeout) and three small
// trace files cut from the capture (its first records, that fragment
// train, the first RealPlayer data packet), in the `go test fuzz v1`
// format, to
//
//	internal/inet/testdata/fuzz/FuzzIPv4Parsers/
//	internal/inet/testdata/fuzz/FuzzChecksum/
//	internal/inet/testdata/fuzz/FuzzParseUDP/
//	internal/inet/testdata/fuzz/FuzzReassembly/
//	internal/segment/testdata/fuzz/FuzzDecodeListInto/
//	internal/rdt/testdata/fuzz/FuzzParseRTSP/
//	internal/rdt/testdata/fuzz/FuzzSeqList/
//	internal/rdt/testdata/fuzz/FuzzParseData/
//	internal/wms/testdata/fuzz/FuzzWMSProtocol/
//	internal/capture/testdata/fuzz/FuzzReadFile/
//
// The golden run loses no RealPlayer packet, so the RDT corpus takes its
// retransmitted (FlagRetrans) data packet from the forced-overflow cell
// BenchmarkNAKRecovery runs: the same pair and seed under the flash-crowd
// scenario, whose bottleneck queue overflows.
//
// Run from the repository root: go run ./scripts/fuzzcorpus
// The output is deterministic, so a rerun rewrites identical files.
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"turbulence/internal/capture"
	"turbulence/internal/core"
	"turbulence/internal/inet"
	"turbulence/internal/media"
	"turbulence/internal/netem"
	"turbulence/internal/rdt"
	"turbulence/internal/wms"
)

// listsPerPlayer bounds the segment lists taken from each player's data
// channel.
const listsPerPlayer = 3

// rdtSeqs is how many RealPlayer data-packet sequence numbers seed the
// NAK list corpus.
const rdtSeqs = 8

func main() {
	key := core.PairKey{Set: 2, Class: media.High}
	seed := core.SeedFor(2002, key)
	run, err := core.NewRunner().RunPair(seed, key.Set, key.Class, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	var (
		reasm    = inet.NewReassembler()
		flows    = map[[2]inet.Port]bool{}
		fragUnit bool
		lists    = map[inet.Port]int{}
		udp      = map[string][]any{}
		seglists = map[string][]any{}
		rtsp     = map[string][]any{}
		rdtData  = map[string][]any{}
		wmsProto = map[string][]any{}
		ipv4     = map[string][]any{}
		seqs     []uint32
	)
	for i := 0; i < run.Trace.Len(); i++ {
		rec := run.Trace.At(i)
		raw := rec.Raw()
		d, err := inet.ParseDatagram(raw)
		if err != nil {
			continue
		}
		if name := datagramKind(d); name != "" && ipv4[name] == nil {
			ipv4[name] = []any{raw}
		}
		if d.Header.Protocol != inet.ProtoUDP {
			continue
		}
		fragmented := d.Header.IsFragment()
		if d, err = reasm.Add(d, rec.At); err != nil || d == nil {
			continue
		}
		h, payload, err := inet.ParseUDP(d.Header.Src, d.Header.Dst, d.Payload)
		if err != nil {
			log.Fatalf("packet %d: %v", i, err)
		}
		flow := [2]inet.Port{h.SrcPort, h.DstPort}
		name := ""
		switch {
		case fragmented && !fragUnit:
			fragUnit = true
			name = fmt.Sprintf("golden-%d-%d-reassembled", h.SrcPort, h.DstPort)
		case !fragmented && !flows[flow]:
			flows[flow] = true
			name = fmt.Sprintf("golden-%d-%d", h.SrcPort, h.DstPort)
		}
		if name != "" {
			src, dst := d.Header.Src, d.Header.Dst
			udp[name] = []any{binary.BigEndian.Uint32(src[:]), binary.BigEndian.Uint32(dst[:]), d.Payload}
		}
		if list, ok := segmentList(h.SrcPort, payload); ok && lists[h.SrcPort] < listsPerPlayer {
			seglists[fmt.Sprintf("golden-%d-list-%d", h.SrcPort, lists[h.SrcPort])] = []any{list}
			lists[h.SrcPort]++
		}
		switch h.SrcPort {
		case inet.PortMMSCtl:
			wmsProto[fmt.Sprintf("golden-control-%d", len(wmsProto))] = []any{payload}
		case inet.PortMMSData:
			if wmsProto["golden-data"] == nil {
				wmsProto["golden-data"] = []any{payload}
			}
		case inet.PortRTSPCtl:
			if len(rtsp) == 0 {
				ipv4["golden-tcp-rtsp-response"] = []any{tcpDatagram(d, h, payload)}
			}
			rtsp[fmt.Sprintf("golden-response-%d", len(rtsp))] = []any{payload}
		case inet.PortRDTData:
			if dh, _, err := rdt.ParseData(payload); err == nil && len(seqs) < rdtSeqs {
				seqs = append(seqs, dh.Seq)
			}
			if name := rdtPacketName(payload); name != "" && rdtData[name] == nil {
				rdtData[name] = []any{payload}
			}
		}
	}
	var gaps []uint32
	for i := 0; i < len(seqs); i += 2 {
		gaps = append(gaps, seqs[i])
	}
	seqlists := map[string][]any{}
	for name, list := range map[string][]uint32{"one": seqs[:1], "run": seqs[:4], "gaps": gaps} {
		raw := make([]byte, 0, 4*len(list))
		for _, s := range list {
			raw = binary.BigEndian.AppendUint32(raw, s)
		}
		seqlists["golden-rdt-seqs-"+name] = []any{rdt.FormatSeqList(list), raw}
	}
	if len(ipv4) != 6 {
		log.Fatalf("found %d of the 6 IPv4 datagram kinds", len(ipv4))
	}
	write("internal/inet/testdata/fuzz/FuzzIPv4Parsers", ipv4)
	write("internal/inet/testdata/fuzz/FuzzParseUDP", udp)
	sums := map[string][]any{}
	for name, args := range udp {
		seg := args[2].([]byte)
		sums[name] = []any{pseudoHeaderSum(args[0].(uint32), args[1].(uint32), len(seg)), seg}
	}
	write("internal/inet/testdata/fuzz/FuzzChecksum", sums)
	write("internal/segment/testdata/fuzz/FuzzDecodeListInto", seglists)
	write("internal/rdt/testdata/fuzz/FuzzParseRTSP", rtsp)
	write("internal/rdt/testdata/fuzz/FuzzSeqList", seqlists)
	write("internal/wms/testdata/fuzz/FuzzWMSProtocol", wmsProto)
	flashCrowd, err := netem.Find("flash-crowd")
	if err != nil {
		log.Fatal(err)
	}
	overflow, err := core.NewRunner().RunPair(seed, key.Set, key.Class, core.Options{Scenario: flashCrowd})
	if err != nil {
		log.Fatal(err)
	}
	if resent := firstRetransmission(overflow); resent != nil {
		rdtData["golden-rdt-retrans"] = []any{resent}
	}
	if len(rdtData) != 4 {
		log.Fatalf("found %d of the 4 RDT data-channel packet kinds", len(rdtData))
	}
	write("internal/rdt/testdata/fuzz/FuzzParseData", rdtData)
	train := firstFragmentTrain(run.Trace)
	write("internal/inet/testdata/fuzz/FuzzReassembly", reassemblyPlans(train))
	write("internal/capture/testdata/fuzz/FuzzReadFile", traceFiles(run.Trace, train))
}

// datagramKind names a captured datagram's FuzzIPv4Parsers corpus entry
// by its kind ("" for a kind the corpus does not take).
func datagramKind(d *inet.Datagram) string {
	switch {
	case d.Header.Protocol == inet.ProtoICMP:
		switch m, err := inet.ParseICMP(d.Payload); {
		case err != nil:
		case m.Type == inet.ICMPEchoReply:
			return "golden-icmp-echo-reply"
		case m.Type == inet.ICMPTimeExceeded:
			return "golden-icmp-time-exceeded"
		}
	case d.Header.Protocol != inet.ProtoUDP:
	case !d.Header.IsFragment():
		return "golden-udp"
	case d.Header.FragOff == 0:
		return "golden-udp-first-fragment"
	default:
		return "golden-udp-continuation-fragment"
	}
	return ""
}

// tcpDatagram returns the IP wire bytes of a TCP segment between the
// endpoints of the UDP datagram d (header h) that carries payload.
func tcpDatagram(d *inet.Datagram, h inet.UDPHeader, payload []byte) []byte {
	seg, err := inet.BuildTCP(
		inet.Endpoint{Addr: d.Header.Src, Port: h.SrcPort},
		inet.Endpoint{Addr: d.Header.Dst, Port: h.DstPort},
		d.Header.ID, inet.TCPHeader{Seq: 1, Ack: 1, Flags: inet.TCPPsh | inet.TCPAck, Window: 17520}, payload)
	if err != nil {
		log.Fatal(err)
	}
	b, err := seg.Marshal()
	if err != nil {
		log.Fatal(err)
	}
	return b
}

// headRecords is how many leading capture records the first trace-file
// seed holds: the ping, tracert and RTSP exchanges that open a run.
const headRecords = 8

// firstFragmentTrain returns the golden capture's first Windows Media
// fragment train: its first fragment plus the continuations, matched by
// IP ID.
func firstFragmentTrain(tr *capture.Trace) []capture.Record {
	var train []capture.Record
	for i := 0; i < tr.Len(); i++ {
		r := tr.At(i)
		switch {
		case train == nil && r.MoreFrag && r.FragOff == 0 && r.SrcPort == inet.PortMMSData:
			train = append(train, r)
		case train != nil && train[len(train)-1].MoreFrag && r.FragOff != 0 && r.IPID == train[0].IPID:
			train = append(train, r)
		}
	}
	if len(train) < 2 || train[len(train)-1].MoreFrag {
		log.Fatal("golden capture lacks a complete fragment train")
	}
	return train
}

// reassemblyPlans turns the golden capture's first fragment train into
// FuzzReassembly inputs: the train's IP payload and one plan record per
// fragment (train 0, the fragment's offset and length in 8-byte units, its
// arrival gap in milliseconds), once whole and once with its second
// fragment lost and the whole train resent after the reassembly timeout,
// under the same IP ID.
func reassemblyPlans(train []capture.Record) map[string][]any {
	var payload, plan []byte
	prev := train[0].At
	for _, r := range train {
		d, err := inet.ParseDatagram(r.Raw())
		if err != nil {
			log.Fatal(err)
		}
		payload = append(payload, d.Payload...)
		plan = append(plan, 0)
		plan = binary.BigEndian.AppendUint16(plan, r.FragOff)
		plan = binary.BigEndian.AppendUint16(plan, uint16((len(d.Payload)+7)/8-1))
		plan = binary.BigEndian.AppendUint16(plan, uint16((r.At-prev)/time.Millisecond))
		prev = r.At
	}
	const recordLen = 7
	resent := bytes.Clone(plan)
	binary.BigEndian.PutUint16(resent[5:], 30000)
	lost := append(append(bytes.Clone(plan[:recordLen]), plan[2*recordLen:]...), resent...)
	return map[string][]any{
		"golden-wmp-fragment-train":            {payload, plan},
		"golden-wmp-fragment-lost-then-resent": {payload, lost},
	}
}

// traceFiles cuts three trace files from the golden capture: its first
// headRecords records, its first Windows Media fragment train and the
// first RealPlayer data packet.
func traceFiles(tr *capture.Trace, train []capture.Record) map[string][]any {
	var head, rdtPkt []capture.Record
	for i := 0; i < tr.Len(); i++ {
		r := tr.At(i)
		if i < headRecords {
			head = append(head, r)
		}
		if rdtPkt == nil && r.HasPorts && r.SrcPort == inet.PortRDTData && rdtPacketName(r.Wire()[inet.UDPHeaderLen:]) == "golden-rdt-data" {
			rdtPkt = append(rdtPkt, r)
		}
	}
	if rdtPkt == nil {
		log.Fatal("golden capture lacks a RealPlayer data packet")
	}
	out := map[string][]any{}
	for name, recs := range map[string][]capture.Record{"golden-head": head, "golden-wmp-fragment-train": train, "golden-rdt-data": rdtPkt} {
		var t capture.Trace
		for _, r := range recs {
			t.Append(r)
		}
		var buf bytes.Buffer
		if err := capture.WriteFile(&buf, &t); err != nil {
			log.Fatal(err)
		}
		out[name] = []any{buf.Bytes()}
	}
	return out
}

// firstRetransmission returns the first FlagRetrans RDT data packet the
// client received in run, or nil. RDT packets stay below the MTU, so none
// is fragmented.
func firstRetransmission(run *core.PairRun) []byte {
	for i := 0; i < run.Trace.Len(); i++ {
		d, err := inet.ParseDatagram(run.Trace.At(i).Raw())
		if err != nil || d.Header.Protocol != inet.ProtoUDP || d.Header.IsFragment() {
			continue
		}
		h, payload, err := inet.ParseUDP(d.Header.Src, d.Header.Dst, d.Payload)
		if err != nil || h.SrcPort != inet.PortRDTData {
			continue
		}
		if dh, _, err := rdt.ParseData(payload); err == nil && dh.Flags&rdt.FlagRetrans != 0 {
			return payload
		}
	}
	return nil
}

// rdtPacketName names an RDT data-channel packet's corpus entry by its
// kind ("" for an undecodable packet).
func rdtPacketName(payload []byte) string {
	if h, _, err := rdt.ParseData(payload); err == nil && h.Flags&rdt.FlagRetrans == 0 {
		return "golden-rdt-data"
	}
	if _, err := rdt.ParseProbe(payload); err == nil {
		return "golden-rdt-probe"
	}
	if _, err := rdt.ParseEnd(payload); err == nil {
		return "golden-rdt-end"
	}
	return ""
}

// segmentList extracts the encoded segment list from a data-channel
// payload of either player.
func segmentList(srcPort inet.Port, payload []byte) ([]byte, bool) {
	switch srcPort {
	case inet.PortMMSData:
		if _, list, err := wms.ParseData(payload); err == nil {
			return list, true
		}
	case inet.PortRDTData:
		if _, list, err := rdt.ParseData(payload); err == nil {
			return list, true
		}
	}
	return nil, false
}

// pseudoHeaderSum is the unfolded UDP pseudo-header sum for addresses
// src and dst (as big-endian words) and a segment of n bytes — the
// initial value the UDP checksum folds a segment into.
func pseudoHeaderSum(src, dst uint32, n int) uint32 {
	return src>>16 + src&0xFFFF + dst>>16 + dst&0xFFFF + uint32(inet.ProtoUDP) + uint32(n)
}

// write replaces dir's contents with one corpus file per entry.
func write(dir string, entries map[string][]any) {
	if err := os.RemoveAll(dir); err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for name, args := range entries {
		b := []byte("go test fuzz v1\n")
		for _, a := range args {
			switch v := a.(type) {
			case uint32:
				b = fmt.Appendf(b, "uint32(%d)\n", v)
			case []byte:
				b = fmt.Appendf(b, "[]byte(%q)\n", v)
			case string:
				b = fmt.Appendf(b, "string(%q)\n", v)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			log.Fatal(err)
		}
	}
}
