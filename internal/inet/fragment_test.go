package inet

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
	"time"
)

func buildTestUDP(t testing.TB, payloadLen int) *Datagram {
	t.Helper()
	payload := make([]byte, payloadLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	d, err := BuildUDP(srcEP, dstEP, 0x1234, payload)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFragmentSmallPacketUntouched(t *testing.T) {
	d := buildTestUDP(t, 500)
	frags, err := Fragment(d, DefaultMTU)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 || frags[0] != d {
		t.Fatal("small datagram should pass through unfragmented")
	}
}

func TestFragmentTrainShape(t *testing.T) {
	// A 3000-byte application frame at 250 Kbps-style encoding: the paper
	// observes trains of 1514-byte wire packets plus a remainder.
	d := buildTestUDP(t, 3000)
	frags, err := Fragment(d, DefaultMTU)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 3 {
		t.Fatalf("train length=%d, want 3", len(frags))
	}
	// All but the last are full MTU (1514 on the wire), same size.
	for i, f := range frags[:len(frags)-1] {
		if f.WireLen() != MaxWirePacket {
			t.Fatalf("fragment %d wire len=%d, want %d", i, f.WireLen(), MaxWirePacket)
		}
		if !f.Header.MoreFragments() {
			t.Fatalf("fragment %d missing MF", i)
		}
	}
	last := frags[len(frags)-1]
	if last.Header.MoreFragments() {
		t.Fatal("last fragment has MF set")
	}
	if last.WireLen() >= MaxWirePacket {
		t.Fatal("last fragment should be the remainder")
	}
	// First fragment carries the UDP header and parseable ports.
	if flow, ok := frags[0].FlowOf(); !ok || flow.Src.Port != srcEP.Port {
		t.Fatal("first fragment lost the UDP ports")
	}
	// Non-first fragments have no UDP header.
	if _, ok := frags[1].FlowOf(); ok {
		t.Fatal("middle fragment claims a flow")
	}
	// Offsets are 8-byte aligned and contiguous.
	next := 0
	for _, f := range frags {
		if int(f.Header.FragOff)*8 != next {
			t.Fatalf("offset gap at %d", f.Header.FragOff)
		}
		next += len(f.Payload)
	}
	// All fragments share the IP ID.
	for _, f := range frags {
		if f.Header.ID != 0x1234 {
			t.Fatal("fragment train lost its IP ID")
		}
	}
}

func TestFragmentReassembleIdentity(t *testing.T) {
	d := buildTestUDP(t, 9000)
	orig := append([]byte(nil), d.Payload...)
	frags, err := Fragment(d, DefaultMTU)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReassembler()
	var whole *Datagram
	for i, f := range frags {
		got, err := r.Add(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i < len(frags)-1 && got != nil {
			t.Fatal("reassembled before last fragment")
		}
		whole = got
	}
	if whole == nil {
		t.Fatal("no datagram reassembled")
	}
	if !bytes.Equal(whole.Payload, orig) {
		t.Fatal("reassembled payload differs")
	}
	if whole.Header.IsFragment() {
		t.Fatal("reassembled datagram still flagged as fragment")
	}
	if _, appData, err := whole.UDP(); err != nil || len(appData) != 9000 {
		t.Fatalf("UDP extract after reassembly: %v len=%d", err, len(appData))
	}
	if r.Completed != 1 {
		t.Fatalf("Completed=%d", r.Completed)
	}
}

func TestReassembleOutOfOrder(t *testing.T) {
	d := buildTestUDP(t, 5000)
	orig := append([]byte(nil), d.Payload...)
	frags, _ := Fragment(d, DefaultMTU)
	if len(frags) < 3 {
		t.Fatalf("need >=3 fragments, got %d", len(frags))
	}
	// Deliver in reverse.
	r := NewReassembler()
	var whole *Datagram
	for i := len(frags) - 1; i >= 0; i-- {
		got, err := r.Add(frags[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != nil {
			whole = got
		}
	}
	if whole == nil || !bytes.Equal(whole.Payload, orig) {
		t.Fatal("out-of-order reassembly failed")
	}
}

// pooledTrain builds a pooled UDP datagram and fragments it at the
// default MTU the way a host's send path does.
func pooledTrain(t *testing.T, pool *BufPool, id uint16, payload []byte) []*Datagram {
	t.Helper()
	d, err := BuildUDPPooled(pool, srcEP, dstEP, id, payload)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := AppendFragments(nil, d, DefaultMTU)
	if err != nil {
		t.Fatal(err)
	}
	SetFragmentRefs(frags)
	d.Recycle()
	return frags
}

// allFree fails unless every buffer and struct pool made is back on its
// free lists.
func allFree(t *testing.T, pool *BufPool) {
	t.Helper()
	if c := pool.Census(); c.FreeBufs != c.Bufs || c.FreeDatagrams != c.Datagrams {
		t.Fatalf("pool census %+v: not every buffer and datagram came back", c)
	}
}

// TestReassembleMissingFragmentDiscards pins the reassembly timer: a
// train missing a fragment is abandoned reassemblyTimeout after its first
// fragment arrived, at the first Add from then on, its wire buffer
// returns to the pool, and Discarded counts it.
func TestReassembleMissingFragmentDiscards(t *testing.T) {
	var pool BufPool
	r := NewReassemblerPooled(&pool)
	frags := pooledTrain(t, &pool, 7, make([]byte, 5000))
	opened := time.Second
	for i, f := range frags {
		if i == 1 {
			f.Release() // lost in transit
			continue
		}
		if got, err := r.Add(f, opened+time.Duration(i)*time.Millisecond); err != nil || got != nil {
			t.Fatalf("fragment %d: %v, %v", i, got, err)
		}
	}
	if r.PendingDatagrams() != 1 {
		t.Fatalf("pending=%d, want 1", r.PendingDatagrams())
	}
	whole := buildTestUDP(t, 100)
	if _, err := r.Add(whole, opened+reassemblyTimeout-1); err != nil {
		t.Fatal(err)
	}
	if r.PendingDatagrams() != 1 || r.Discarded != 0 {
		t.Fatalf("train expired early: pending=%d discarded=%d", r.PendingDatagrams(), r.Discarded)
	}
	if _, err := r.Add(whole, opened+reassemblyTimeout); err != nil {
		t.Fatal(err)
	}
	if r.PendingDatagrams() != 0 || r.Discarded != 1 || r.Completed != 0 {
		t.Fatalf("after the timeout: pending=%d discarded=%d completed=%d, want 0, 1, 0",
			r.PendingDatagrams(), r.Discarded, r.Completed)
	}
	allFree(t, &pool)
}

// TestReassemblyIDReuseAfterTimeout pins what the timer buys a host whose
// 16-bit IP ID wrapped: a datagram reusing a stale train's (src, dst,
// proto, id) key after the timeout assembles from its own fragments
// instead of joining the stale ones.
func TestReassemblyIDReuseAfterTimeout(t *testing.T) {
	var pool BufPool
	r := NewReassemblerPooled(&pool)
	stale := pooledTrain(t, &pool, 9, make([]byte, 5000))
	for i, f := range stale {
		if i == len(stale)-1 {
			f.Release() // the tail is lost
			continue
		}
		if _, err := r.Add(f, 0); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got *Datagram
	for _, f := range pooledTrain(t, &pool, 9, payload) {
		whole, err := r.Add(f, 40*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if whole != nil {
			got = whole
		}
	}
	if got == nil {
		t.Fatal("the reused ID's datagram never assembled")
	}
	if _, app, err := got.UDP(); err != nil || !bytes.Equal(app, payload) {
		t.Fatalf("reassembled payload differs (err %v)", err)
	}
	got.Release()
	if r.Discarded != 1 || r.Completed != 1 || r.PendingDatagrams() != 0 {
		t.Fatalf("discarded=%d completed=%d pending=%d, want 1, 1, 0", r.Discarded, r.Completed, r.PendingDatagrams())
	}
	allFree(t, &pool)
}

// fuzzRecordLen is the size of one FuzzReassembly plan record: a train id
// byte, then the fragment's offset and length in 8-byte units and its
// arrival delay in milliseconds after the previous fragment, each two
// bytes big-endian.
const fuzzRecordLen = 7

// FuzzReassembly feeds arbitrary timed fragment sets through a pooled
// Reassembler. payload is the source datagram's IP payload; train id k
// carries it XORed with k, so up to four trains interleave. Each plan
// record cuts one fragment of its train's source, at any offset and
// length (gaps, overlaps and duplicates included), and delivers it after
// its delay. It checks that nothing panics, that every datagram the
// reassembler returns equals its source bytes, that no pending train is
// older than the timeout after an Add, and that after Reset every buffer
// and datagram struct is back in the pool. The seed corpus holds the
// golden pair run's first Windows Media fragment train with its arrival
// gaps, whole and with a fragment lost and the train resent.
func FuzzReassembly(f *testing.F) {
	f.Add([]byte("0123456789abcdefghijklmnopqrstuv"), []byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 1, 0, 1})
	f.Add([]byte("0123456789abcdefghijklmnopqrstuv"), []byte{1, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0x75, 0x30})
	f.Fuzz(func(t *testing.T, payload, plan []byte) {
		if len(payload) == 0 || len(payload) > 1<<15 || len(plan) > 256*fuzzRecordLen {
			return
		}
		var src [4][]byte
		for k := range src {
			src[k] = make([]byte, len(payload))
			for i, b := range payload {
				src[k][i] = b ^ byte(k)
			}
		}
		units := (len(payload) + 7) / 8
		var pool BufPool
		r := NewReassemblerPooled(&pool)
		var now time.Duration
		for ; len(plan) >= fuzzRecordLen; plan = plan[fuzzRecordLen:] {
			k := int(plan[0] & 3)
			off := int(binary.BigEndian.Uint16(plan[1:])) % units
			n := int(binary.BigEndian.Uint16(plan[3:]))%(units-off) + 1
			now += time.Duration(binary.BigEndian.Uint16(plan[5:])) * time.Millisecond
			start, end := off*8, min((off+n)*8, len(payload))
			wb := pool.get(end - start)
			wb.b = append(wb.b, src[k][start:end]...)
			d := pool.getDatagram()
			d.Header = IPv4Header{ID: uint16(k), TTL: DefaultTTL, Protocol: ProtoUDP, Src: srcEP.Addr, Dst: dstEP.Addr, FragOff: uint16(off)}
			if end < len(payload) {
				d.Header.Flags = FlagMoreFrags
			}
			d.Payload, d.owner = wb.b, wb
			d.Header.TotalLen = uint16(d.Len())
			whole, err := r.Add(d, now)
			if err != nil {
				t.Fatal(err)
			}
			if whole != nil {
				if !bytes.Equal(whole.Payload, src[whole.Header.ID]) {
					t.Fatalf("train %d reassembled to %d bytes that differ from its source", whole.Header.ID, len(whole.Payload))
				}
				whole.Release()
			}
			linked := 0
			for buf := r.oldest; buf != nil; buf = buf.next {
				if r.pending[buf.key] != buf {
					t.Fatalf("train %+v in the opening order is not pending", buf.key)
				}
				if now-buf.opened >= reassemblyTimeout {
					t.Fatalf("train opened at %v still pending at %v", buf.opened, now)
				}
				linked++
			}
			if linked != len(r.pending) {
				t.Fatalf("%d trains pending, %d in the opening order", len(r.pending), linked)
			}
		}
		r.Reset()
		allFree(t, &pool)
	})
}

func TestReassemblerPassesWholeDatagrams(t *testing.T) {
	d := buildTestUDP(t, 100)
	r := NewReassembler()
	got, err := r.Add(d, 0)
	if err != nil || got != d {
		t.Fatalf("whole datagram not passed through: %v %v", got, err)
	}
}

func TestInterleavedTrains(t *testing.T) {
	// Two datagrams with different IDs fragment and interleave on the wire;
	// both must reassemble correctly.
	p1 := make([]byte, 4000)
	p2 := make([]byte, 4000)
	for i := range p1 {
		p1[i], p2[i] = 0xAA, 0x55
	}
	d1, _ := BuildUDP(srcEP, dstEP, 1, p1)
	d2, _ := BuildUDP(srcEP, dstEP, 2, p2)
	f1, _ := Fragment(d1, DefaultMTU)
	f2, _ := Fragment(d2, DefaultMTU)
	r := NewReassembler()
	var done []*Datagram
	for i := 0; i < len(f1) || i < len(f2); i++ {
		for _, fs := range [][]*Datagram{f1, f2} {
			if i < len(fs) {
				if got, err := r.Add(fs[i], 0); err != nil {
					t.Fatal(err)
				} else if got != nil {
					done = append(done, got)
				}
			}
		}
	}
	if len(done) != 2 {
		t.Fatalf("reassembled %d datagrams, want 2", len(done))
	}
	if r.Completed != 2 {
		t.Fatalf("Completed=%d", r.Completed)
	}
}

func TestFragmentDFError(t *testing.T) {
	d := buildTestUDP(t, 3000)
	d.Header.Flags |= FlagDontFragment
	if _, err := Fragment(d, DefaultMTU); err == nil {
		t.Fatal("DF oversize datagram fragmented")
	}
}

func TestFragmentTinyMTUError(t *testing.T) {
	d := buildTestUDP(t, 100)
	if _, err := Fragment(d, 20); err == nil {
		t.Fatal("absurd MTU accepted")
	}
}

func TestFragmentTrainLen(t *testing.T) {
	cases := []struct {
		payload, want int
	}{
		{100, 1},
		{1472, 1}, // exactly fits: 20+8+1472 = 1500
		{1473, 2}, // one byte over
		{3000, 3}, // ~paper's 250 Kbps case
		{9000, 7}, // ~637-731 Kbps very high rate case
		{0, 1},
	}
	for _, c := range cases {
		if got := FragmentTrainLen(c.payload, DefaultMTU); got != c.want {
			t.Fatalf("FragmentTrainLen(%d)=%d, want %d", c.payload, got, c.want)
		}
	}
}

// Property: fragmentation at any sane MTU followed by reassembly is the
// identity on the payload, offsets stay 8-byte aligned, and every fragment
// respects the MTU.
func TestFragmentReassemblyProperty(t *testing.T) {
	f := func(sizeSeed uint16, mtuSeed uint8) bool {
		payloadLen := int(sizeSeed)%20000 + 1
		mtu := 576 + int(mtuSeed)*4 // classic minimum up to ~1596
		payload := make([]byte, payloadLen)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		d, err := BuildUDP(srcEP, dstEP, sizeSeed, payload)
		if err != nil {
			return false
		}
		frags, err := Fragment(d, mtu)
		if err != nil {
			return false
		}
		r := NewReassembler()
		var whole *Datagram
		for _, fr := range frags {
			if fr.Len() > mtu {
				return false
			}
			if fr.Header.FragOff != 0 && int(fr.Header.FragOff)*8%8 != 0 {
				return false
			}
			got, err := r.Add(fr, 0)
			if err != nil {
				return false
			}
			if got != nil {
				whole = got
			}
		}
		if whole == nil {
			return false
		}
		_, appData, err := whole.UDP()
		return err == nil && bytes.Equal(appData, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDatagramMarshalParseRoundTrip(t *testing.T) {
	d := buildTestUDP(t, 333)
	b, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseDatagram(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, d.Payload) || got.Header.ID != d.Header.ID {
		t.Fatal("datagram round trip mismatch")
	}
	if got.String() == "" || d.WireLen() != d.Len()+EthernetOverhead {
		t.Fatal("accessors")
	}
}

func TestDatagramClone(t *testing.T) {
	d := buildTestUDP(t, 10)
	c := d.Clone()
	c.Payload[0] ^= 0xFF
	c.Header.TTL--
	if d.Payload[0] == c.Payload[0] || d.Header.TTL == c.Header.TTL {
		t.Fatal("clone shares state")
	}
}

func TestUDPExtractErrors(t *testing.T) {
	d := buildTestUDP(t, 2000)
	frags, _ := Fragment(d, DefaultMTU)
	if _, _, err := frags[1].UDP(); err != ErrBadFragment {
		t.Fatalf("UDP on fragment: %v", err)
	}
	notUDP := &Datagram{Header: IPv4Header{Protocol: ProtoICMP}}
	if _, _, err := notUDP.UDP(); err == nil {
		t.Fatal("UDP on ICMP datagram accepted")
	}
}

func TestBuildUDPTooBig(t *testing.T) {
	if _, err := BuildUDP(srcEP, dstEP, 1, make([]byte, 70000)); err == nil {
		t.Fatal("oversize UDP build accepted")
	}
}
