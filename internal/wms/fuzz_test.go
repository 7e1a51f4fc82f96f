package wms

import (
	"bytes"
	"testing"
)

// FuzzWMSProtocol feeds arbitrary bytes to every decoder of the Windows
// Media control and data channels: the ones the player runs on socket
// bytes in live mode (MsgType, ParseDescribeResp, ParsePlayResp,
// ParseData) and the ones the server runs (ParseDescribe, ParsePlay,
// ParseFeedback). None may panic, at most one may accept an input, and
// only the one its type byte names. Every accepted message, re-marshalled
// with the matching Marshal function, must parse back to the same value.
// The seed corpus holds the control responses and the first data unit
// the client of a golden pair run received; its capture sees only what
// the client receives, so the messages the player sends are seeded here.
func FuzzWMSProtocol(f *testing.F) {
	f.Add(MarshalDescribe(Describe{ClipRef: "2/M-h"}))
	f.Add(MarshalPlay(Play{ClipRef: "2/M-h", DataPort: 4002}))
	f.Add(MarshalFeedback(Feedback{LossPermille: 125}))
	f.Add(MarshalStop(Stop{}))
	f.Fuzz(func(t *testing.T, b []byte) {
		typ, err := MsgType(b)
		if (err != nil) != (len(b) == 0) || (err == nil && typ != b[0]) {
			t.Fatalf("MsgType(%q) = %d, %v", b, typ, err)
		}
		var accepted []byte
		if m, err := ParseDescribe(b); err == nil {
			accepted = append(accepted, MsgDescribe)
			reparse(t, b, m, MarshalDescribe(m), ParseDescribe)
		}
		if m, err := ParseDescribeResp(b); err == nil {
			accepted = append(accepted, MsgDescribeResp)
			reparse(t, b, m, MarshalDescribeResp(m), ParseDescribeResp)
		}
		if m, err := ParsePlay(b); err == nil {
			accepted = append(accepted, MsgPlay)
			reparse(t, b, m, MarshalPlay(m), ParsePlay)
		}
		if m, err := ParsePlayResp(b); err == nil {
			accepted = append(accepted, MsgPlayResp)
			reparse(t, b, m, MarshalPlayResp(m), ParsePlayResp)
		}
		if m, err := ParseFeedback(b); err == nil {
			accepted = append(accepted, MsgFeedback)
			reparse(t, b, m, MarshalFeedback(m), ParseFeedback)
		}
		if h, seg, err := ParseData(b); err == nil {
			accepted = append(accepted, MsgData)
			enc := MarshalData(h, seg)
			h2, seg2, err := ParseData(enc)
			if err != nil || h2 != h || !bytes.Equal(seg2, seg) {
				t.Fatalf("data unit %+v with %d-byte payload re-marshals to %q, which parses to %+v, %d bytes (err %v)",
					h, len(seg), enc, h2, len(seg2), err)
			}
		}
		if len(accepted) > 1 || (len(accepted) == 1 && accepted[0] != typ) {
			t.Fatalf("%q of type %d accepted as types %v", b, typ, accepted)
		}
	})
}

// reparse checks that m, parsed from in and re-marshalled as enc, parses
// back to m.
func reparse[T comparable](t *testing.T, in []byte, m T, enc []byte, parse func([]byte) (T, error)) {
	t.Helper()
	got, err := parse(enc)
	if err != nil || got != m {
		t.Fatalf("%q parses to %+v, which re-marshals to %q and parses back to %+v (err %v)", in, m, enc, got, err)
	}
}
