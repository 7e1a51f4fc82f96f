package rdt

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"

	"turbulence/internal/segment"
)

// FuzzParseRTSP feeds arbitrary bytes to both RTSP decoders (live mode
// hands them socket bytes). Neither may panic, and each must match its
// string-splitting oracle (oracle_test.go) exactly: the same accept or
// reject decision, and on accept the same method, URL, CSeq and headers,
// duplicate header lines included. The request decoder must match it also
// when parsing into a Request whose header map holds a stale parse, as
// the server's does. Any accepted message must re-marshal to the oracle's
// bytes and survive a second parse unchanged. The seed corpus holds the
// server responses of a golden pair run; its capture sees only what the
// client receives, so the requests the player sends are seeded here.
func FuzzParseRTSP(f *testing.F) {
	url := "rtsp://209.247.1.20/clip.rm"
	for _, req := range []Request{
		{Method: MethodDescribe, URL: url, CSeq: 1},
		{Method: MethodSetup, URL: url, CSeq: 2, Headers: map[string]string{"Client-Port": "5002"}},
		{Method: MethodPlay, URL: url, CSeq: 3, Headers: map[string]string{"Bandwidth": "1500000"}},
		{Method: MethodReport, URL: url, CSeq: 4, Headers: map[string]string{"Loss": "12"}},
		{Method: MethodNAK, URL: url, CSeq: 5, Headers: map[string]string{"Seqs": "3,7,9"}},
		{Method: MethodTeardown, URL: url, CSeq: 6},
	} {
		f.Add(marshalRequestOracle(req))
	}
	f.Add([]byte("NAK " + url + " RTSP/1.0\r\nSeqs: 1\r\nCSeq: 7\r\n Seqs : 2,3\r\n\r\n"))
	f.Add([]byte("RTSP/1.0 404\r\n\r\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := IsRequest(b), isRequestOracle(b); got != want {
			t.Fatalf("IsRequest(%q) = %t, oracle %t", b, got, want)
		}

		req, err := ParseRequest(b)
		want, wantErr := parseRequestOracle(b)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ParseRequest(%q) error %v, oracle %v", b, err, wantErr)
		}
		reused := Request{Method: "STALE", URL: "stale", CSeq: 9, Headers: map[string]string{"Stale": "x", "CSeq": "9"}}
		if err := ParseRequestInto(&reused, b); (err == nil) != (wantErr == nil) {
			t.Fatalf("ParseRequestInto(%q) error %v, oracle %v", b, err, wantErr)
		}
		if err == nil {
			if !reflect.DeepEqual(req, want) {
				t.Fatalf("ParseRequest(%q):\n got %+v\nwant %+v", b, req, want)
			}
			if !reflect.DeepEqual(reused, want) {
				t.Fatalf("ParseRequestInto(%q) over a stale parse:\n got %+v\nwant %+v", b, reused, want)
			}
			enc := MarshalRequest(req)
			if wantEnc := marshalRequestOracle(req); !bytes.Equal(enc, wantEnc) {
				t.Fatalf("MarshalRequest(%+v):\n got %q\nwant %q", req, enc, wantEnc)
			}
			again, err := ParseRequest(enc)
			if err != nil {
				t.Fatalf("accepted request does not re-parse: %v", err)
			}
			if !reflect.DeepEqual(again, req) {
				t.Fatalf("request round trip changed it:\n got %+v\nwant %+v", again, req)
			}
		}

		// Encode a request built from arbitrary fields, CR and LF included,
		// which no accepted parse would produce.
		method, rest, _ := bytes.Cut(b, []byte(" "))
		k, v, _ := strings.Cut(string(rest), ":")
		arb := Request{Method: string(method), URL: string(rest), CSeq: len(b) - 8,
			Headers: map[string]string{k: v, "Seqs": string(method)}}
		if enc, wantEnc := MarshalRequest(arb), marshalRequestOracle(arb); !bytes.Equal(enc, wantEnc) {
			t.Fatalf("MarshalRequest(%+v):\n got %q\nwant %q", arb, enc, wantEnc)
		}

		resp, err := ParseResponse(b)
		wantResp, wantErr := parseResponseOracle(b)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ParseResponse(%q) error %v, oracle %v", b, err, wantErr)
		}
		if err == nil {
			if !reflect.DeepEqual(resp, wantResp) {
				t.Fatalf("ParseResponse(%q):\n got %+v\nwant %+v", b, resp, wantResp)
			}
			again, err := ParseResponse(MarshalResponse(resp))
			if err != nil {
				t.Fatalf("accepted response does not re-parse: %v", err)
			}
			if !reflect.DeepEqual(again, resp) {
				t.Fatalf("response round trip changed it:\n got %+v\nwant %+v", again, resp)
			}
		}
	})
}

// FuzzSeqList checks the NAK "Seqs" header codec against its oracle
// (oracle_test.go). ParseSeqList must not panic on any header value and
// must return what the oracle returns, nil included; ParseSeqListInto
// must append the same values after whatever dst holds. For a sequence
// list raw (read as big-endian uint32s), FormatSeqList, AppendSeqList and
// the player's NAK encoding must produce the oracle's bytes, and
// FormatSeqList → ParseSeqList must return the list unchanged. The seed
// corpus holds data-packet sequence numbers of a golden pair run, the
// numbers a NAK would list.
func FuzzSeqList(f *testing.F) {
	f.Add("3,7,9", []byte{0, 0, 0, 3, 0, 0, 0, 7, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add("", []byte{})
	f.Add(" 1, junk ,5,,4294967296,007", []byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, s string, raw []byte) {
		want := parseSeqListOracle(s)
		if got := ParseSeqList(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseSeqList(%q) = %#v, oracle %#v", s, got, want)
		}
		prefix := []uint32{1, 2}
		if got := ParseSeqListInto(prefix, s); !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
			t.Fatalf("ParseSeqListInto(%v, %q) = %v, want the prefix then %v", prefix, s, got, want)
		}

		seqs := make([]uint32, len(raw)/4)
		for i := range seqs {
			seqs[i] = binary.BigEndian.Uint32(raw[4*i:])
		}
		text := formatSeqListOracle(seqs)
		if got := FormatSeqList(seqs); got != text {
			t.Fatalf("FormatSeqList(%v) = %q, oracle %q", seqs, got, text)
		}
		if got := AppendSeqList([]byte("Seqs: "), seqs); string(got) != "Seqs: "+text {
			t.Fatalf("AppendSeqList(%v) = %q, want %q", seqs, got, "Seqs: "+text)
		}
		const url = "rtsp://209.247.1.20/clip.rm"
		nak := AppendRequest(nil, MethodNAK, url, 5, Header{Key: "Seqs", Value: AppendSeqList(nil, seqs)})
		wantNAK := marshalRequestOracle(Request{Method: MethodNAK, URL: url, CSeq: 5, Headers: map[string]string{"Seqs": text}})
		if !bytes.Equal(nak, wantNAK) {
			t.Fatalf("NAK for %v:\n got %q\nwant %q", seqs, nak, wantNAK)
		}
		if got := ParseSeqList(FormatSeqList(seqs)); !slices.Equal(got, seqs) {
			t.Fatalf("round trip of %v returned %v", seqs, got)
		}
	})
}

// FuzzParseData feeds arbitrary bytes to the data-channel decoders
// (ParseData, ParseProbe, ParseEnd), which live mode hands socket bytes.
// None may panic and at most one may accept, the one the kind byte names.
// An accepted probe or end marker must re-encode to its own leading bytes.
// An accepted data packet whose segment list decodes, as the player
// decodes it, must re-encode through AppendDataHeader + segment.AppendList
// to a packet of the same length with the same header bytes, that parses
// back to the same header and segments. The list's filler, its reserved
// bytes and its unused flag bits are not checked by the decoder, so only
// those may differ. The seed corpus holds the first data packet, probe
// and end marker of a golden pair run and a retransmitted (FlagRetrans)
// data packet of a forced-overflow run.
func FuzzParseData(f *testing.F) {
	f.Add(AppendDataHeader(nil, DataHeader{Seq: 7, TSms: 1234, Flags: FlagRetrans}))
	f.Add(MarshalProbe(3))
	f.Add(MarshalEnd(99))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, list, dataErr := ParseData(b)
		idx, probeErr := ParseProbe(b)
		final, endErr := ParseEnd(b)
		accepted := 0
		for _, err := range []error{dataErr, probeErr, endErr} {
			if err == nil {
				accepted++
			}
		}
		if accepted > 1 {
			t.Fatalf("%q accepted by %d decoders", b, accepted)
		}
		if kind, err := PacketKind(b); accepted == 1 && (err != nil ||
			(dataErr == nil) != (kind == KindData) ||
			(probeErr == nil) != (kind == KindProbe) ||
			(endErr == nil) != (kind == KindEnd)) {
			t.Fatalf("%q accepted by the decoder its kind byte %q does not name", b, kind)
		}
		if probeErr == nil && !bytes.Equal(MarshalProbe(idx)[:3], b[:3]) {
			t.Fatalf("probe %d re-encodes to %q, input %q", idx, MarshalProbe(idx)[:3], b[:3])
		}
		if endErr == nil && !bytes.Equal(MarshalEnd(final), b[:5]) {
			t.Fatalf("end marker %d re-encodes to %q, input %q", final, MarshalEnd(final), b[:5])
		}
		if dataErr != nil {
			return
		}
		segs, err := segment.DecodeListInto(nil, list)
		if err != nil {
			return
		}
		enc := segment.AppendList(AppendDataHeader(nil, h), segs)
		if len(enc) != len(b) || !bytes.Equal(enc[:dataHeaderLen], b[:dataHeaderLen]) {
			t.Fatalf("data packet re-encodes to %d bytes with header %q, input %d bytes with header %q",
				len(enc), enc[:dataHeaderLen], len(b), b[:dataHeaderLen])
		}
		h2, list2, err := ParseData(enc)
		if err != nil {
			t.Fatalf("re-encoded data packet does not parse: %v", err)
		}
		segs2, err := segment.DecodeListInto(nil, list2)
		if err != nil || h2 != h || !reflect.DeepEqual(segs2, segs) {
			t.Fatalf("data packet round trip changed it: header %+v → %+v, segments %+v → %+v (%v)",
				h, h2, segs, segs2, err)
		}
	})
}
