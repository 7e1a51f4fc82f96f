package rdt

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzParseRTSP feeds arbitrary bytes to both RTSP decoders (live mode
// hands them socket bytes): neither may panic, and any message one
// accepts must survive MarshalRequest/MarshalResponse and a second parse
// unchanged. The seed corpus holds the server responses of a golden pair
// run; its capture sees only what the client receives, so the requests
// the player sends are seeded here.
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
		f.Add(MarshalRequest(req))
	}
	f.Add([]byte("RTSP/1.0 404\r\n\r\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		if req, err := ParseRequest(b); err == nil {
			again, err := ParseRequest(MarshalRequest(req))
			if err != nil {
				t.Fatalf("accepted request does not re-parse: %v", err)
			}
			if !reflect.DeepEqual(again, req) {
				t.Fatalf("request round trip changed it:\n got %+v\nwant %+v", again, req)
			}
		}
		if resp, err := ParseResponse(b); err == nil {
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

// FuzzSeqList checks the NAK "Seqs" header codec: ParseSeqList must not
// panic on any header value, and FormatSeqList → ParseSeqList must return
// any sequence list unchanged. The list is raw read as big-endian uint32s.
// The seed corpus holds data-packet sequence numbers of a golden pair run,
// the numbers a NAK would list.
func FuzzSeqList(f *testing.F) {
	f.Add("3,7,9", []byte{0, 0, 0, 3, 0, 0, 0, 7, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add("", []byte{})
	f.Fuzz(func(t *testing.T, s string, raw []byte) {
		ParseSeqList(s)
		seqs := make([]uint32, len(raw)/4)
		for i := range seqs {
			seqs[i] = binary.BigEndian.Uint32(raw[4*i:])
		}
		got := ParseSeqList(FormatSeqList(seqs))
		if len(got) != len(seqs) {
			t.Fatalf("round trip of %v returned %v", seqs, got)
		}
		for i := range seqs {
			if got[i] != seqs[i] {
				t.Fatalf("round trip of %v returned %v", seqs, got)
			}
		}
	})
}
