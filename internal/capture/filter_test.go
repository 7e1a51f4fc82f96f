package capture

import (
	"testing"
	"testing/quick"
	"time"

	"turbulence/internal/inet"
	"turbulence/internal/netsim"
)

func compile(t *testing.T, expr string) *Filter {
	t.Helper()
	f, err := Compile(expr)
	if err != nil {
		t.Fatalf("Compile(%q): %v", expr, err)
	}
	return f
}

// filterCase is one expression and its match count on buildTestTrace.
type filterCase struct {
	expr string
	want int
}

var basicFilterCases = []filterCase{
	{"udp.srcport == 1755", 10},
	{"udp.srcport == 6970", 5}, // only first fragments expose ports
	{"udp.port == 4000", 15},   // matches dst port incl. first frags
	{"ip.contfrag", 10},
	{"ip.frag", 15},
	{"!ip.frag", 10},
	{"ip.mf", 10},
	{"size == 1514", 10},
	{"size > 1000", 15},
	{"size >= 1514", 10},
	{"size < 1000", 10},
	{"size <= 962", 10},
	{"ip.proto == udp", 25},
	{"ip.proto == icmp", 0},
	{"ip.proto == 17", 25},
	{"time < 0.35", 10},
	{"ip.id == 101", 3},
	{"ip.id != 101", 22},
	{"ip.len > 1400", 10},
	{"ip.fragoff > 0", 10},
	{"ip.src == 207.46.1.9", 25},
	{"ip.src != 207.46.1.9", 0},
	{"ip.dst == 130.215.10.5", 25},
	{"recv", 25},
	{"send", 0},
}

func TestFilterBasicComparisons(t *testing.T) {
	tr := buildTestTrace(t)
	for _, c := range basicFilterCases {
		f := compile(t, c.expr)
		got := f.Apply(tr).Len()
		if got != c.want {
			t.Errorf("%q matched %d, want %d", c.expr, got, c.want)
		}
	}
}

var booleanFilterCases = []filterCase{
	{"udp.srcport == 1755 && size < 1000", 10},
	{"udp.srcport == 1755 && size > 1000", 0},
	{"udp.srcport == 1755 || ip.contfrag", 20},
	{"!(udp.srcport == 1755) && !ip.frag", 0},
	{"(ip.frag || size < 1000) && recv", 25},
	{"!!recv", 25},
	{"ip.frag && ip.mf && ip.fragoff > 0", 5}, // middle fragments only
}

func TestFilterBooleanStructure(t *testing.T) {
	tr := buildTestTrace(t)
	for _, c := range booleanFilterCases {
		f := compile(t, c.expr)
		if got := f.Apply(tr).Len(); got != c.want {
			t.Errorf("%q matched %d, want %d", c.expr, got, c.want)
		}
	}
}

var badFilterExprs = []string{
	"",
	"size ==",
	"size = 5",
	"bogusfield == 3",
	"size == abc && ",
	"(size == 5",
	"size == 5)",
	"ip.src == 999.0.0.1",
	"ip.src > 1.2.3.4",
	"size & 5",
	"size | 5",
	"ip.proto == banana",
	"udp.port == banana",
	"size == 5 extra",
	"== 5",
	"ip.len == twelve",
	"#",
}

func TestFilterParseErrors(t *testing.T) {
	for _, expr := range badFilterExprs {
		if _, err := Compile(expr); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", expr)
		}
	}
}

func TestFilterStringRoundTrip(t *testing.T) {
	f := compile(t, "size > 100 && recv")
	if f.String() != "size > 100 && recv" {
		t.Fatalf("String=%q", f.String())
	}
}

func TestFilterPrecedence(t *testing.T) {
	tr := buildTestTrace(t)
	// && binds tighter than ||: A || B && C == A || (B && C).
	a := compile(t, "ip.contfrag || udp.srcport == 1755 && size > 9999")
	if got := a.Apply(tr).Len(); got != 10 {
		t.Fatalf("precedence: %d, want 10 (contfrag only)", got)
	}
	b := compile(t, "(ip.contfrag || udp.srcport == 1755) && size > 9999")
	if got := b.Apply(tr).Len(); got != 0 {
		t.Fatalf("parenthesised: %d, want 0", got)
	}
}

// Property: De Morgan — !(A && B) matches exactly !A || !B.
func TestFilterDeMorganProperty(t *testing.T) {
	tr := buildTestTrace(t)
	pairs := [][2]string{
		{"!(ip.frag && size > 1000)", "!ip.frag || size <= 1000"},
		{"!(recv && ip.mf)", "!recv || !ip.mf"},
	}
	for _, p := range pairs {
		a, b := compile(t, p[0]), compile(t, p[1])
		for i := 0; i < tr.Len(); i++ {
			r := tr.At(i)
			if a.Match(&r) != b.Match(&r) {
				t.Fatalf("De Morgan violated for %q vs %q on %v", p[0], p[1], r)
			}
		}
	}
}

// Property: numeric thresholds partition the trace: count(size < x) +
// count(size >= x) == len for random x.
func TestFilterPartitionProperty(t *testing.T) {
	tr := buildTestTrace(t)
	f := func(x uint16) bool {
		lt, err1 := Compile("size < " + itoa(int(x)))
		ge, err2 := Compile("size >= " + itoa(int(x)))
		if err1 != nil || err2 != nil {
			return false
		}
		return lt.Apply(tr).Len()+ge.Apply(tr).Len() == tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// fuzzRecords is the fixed record set FuzzCompile evaluates accepted
// filters on: an unfragmented datagram, the first and a continuation
// fragment of a fragmented one, and a synthetic record without wire bytes
// (as the Section IV flow generator emits).
func fuzzRecords(t testing.TB) []Record {
	t.Helper()
	d, err := inet.BuildUDP(srvEP, cliEP, 1, make([]byte, 900))
	if err != nil {
		t.Fatal(err)
	}
	big, err := inet.BuildUDP(srvEP, cliEP, 2, make([]byte, 4000))
	if err != nil {
		t.Fatal(err)
	}
	frags, err := inet.Fragment(big, inet.DefaultMTU)
	if err != nil {
		t.Fatal(err)
	}
	return []Record{
		parseRecord(100*time.Millisecond, netsim.Recv, d),
		parseRecord(200*time.Millisecond, netsim.Recv, frags[0]),
		parseRecord(200*time.Millisecond, netsim.Recv, frags[1]),
		{At: 2 * time.Second, Dir: netsim.Recv, WireLen: 1514, Src: serverAddr, Dst: clientAddr,
			Proto: inet.ProtoUDP, IPID: 7, IPLen: 1500, HasPorts: true,
			SrcPort: inet.PortMMSData, DstPort: 4000, PayloadLen: 1472},
	}
}

// FuzzCompile feeds arbitrary expressions to the display-filter compiler,
// which the ethereal CLI hands user input: a rejected expression must come
// back as an error, never a panic, and an accepted filter must evaluate
// every record without panicking and deterministically — two compiles of
// the same expression agree everywhere. Seeded with the expressions the
// filter tests use.
func FuzzCompile(f *testing.F) {
	for _, c := range basicFilterCases {
		f.Add(c.expr)
	}
	for _, c := range booleanFilterCases {
		f.Add(c.expr)
	}
	for _, expr := range badFilterExprs {
		f.Add(expr)
	}
	recs := fuzzRecords(f)
	f.Fuzz(func(t *testing.T, expr string) {
		a, err := Compile(expr)
		if err != nil {
			if a != nil {
				t.Fatalf("Compile(%q) returned a filter with error %v", expr, err)
			}
			return
		}
		if a.String() != expr {
			t.Fatalf("String() = %q, want %q", a.String(), expr)
		}
		b, err := Compile(expr)
		if err != nil {
			t.Fatalf("second Compile(%q) failed: %v", expr, err)
		}
		for i := range recs {
			if a.Match(&recs[i]) != b.Match(&recs[i]) {
				t.Fatalf("Compile(%q) is not deterministic on record %d", expr, i)
			}
		}
	})
}
