// Package rdt is the behavioural model of the RealNetworks streaming stack
// (RealOne Player against RealServer) reconstructed from the paper's
// observations:
//
//   - Control runs over an RTSP-style text protocol; data rides an RDT-like
//     UDP channel (the paper forces UDP transport).
//   - The server packetises below the MTU, so RealPlayer traces contain no
//     IP fragments at any rate (paper §3.C).
//   - Packet sizes vary widely, roughly 0.6-1.8x the mean, and interarrival
//     times vary correspondingly (paper §3.D, §3.E, Figures 6-9).
//   - At startup the server streams a buffering burst at up to three times
//     the playout rate; the achievable multiple falls with the encoding
//     rate because the path bottleneck caps it — the client measures the
//     bottleneck with a packet-train probe during SETUP and reports it in
//     the PLAY request (paper §3.F, Figures 10-11).
//   - Average playback bandwidth exceeds the encoding rate (paper §3.B,
//     Figure 3), from protocol overhead plus the buffering burst.
//   - At low encoding rates RealVideo keeps the frame rate high (~19 fps)
//     at reduced spatial quality (paper §3.H, Figures 13-15).
//   - Lost data packets are NAK'd and retransmitted once, feeding the
//     "packets recovered" statistic RealTracker-class tools expose. The
//     round trip allocates nothing per missing sequence number or per
//     retransmitted packet: the player encodes each NAK in reused scratch,
//     and the server parses it into a reused request and sends every
//     retransmission from one reused buffer.
package rdt

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// RTSP methods used by the model. NAK is a protocol extension carrying
// retransmission requests (real RDT encodes NAKs in its transport framing;
// a control-channel request models the same round trip).
const (
	MethodDescribe = "DESCRIBE"
	MethodSetup    = "SETUP"
	MethodPlay     = "PLAY"
	MethodTeardown = "TEARDOWN"
	MethodNAK      = "NAK"
	// MethodReport carries periodic reception-quality reports ("Loss"
	// header, permille); SureStream-style media scaling consumes them.
	MethodReport = "REPORT"
)

// Version is the protocol version string on every message.
const Version = "RTSP/1.0"

// Request is an RTSP request.
type Request struct {
	Method  string
	URL     string
	CSeq    int
	Headers map[string]string
}

// Response is an RTSP response.
type Response struct {
	Status  int
	Reason  string
	CSeq    int
	Headers map[string]string
}

// Errors returned by the text codec.
var (
	ErrMalformed = errors.New("rdt: malformed RTSP message")
	ErrVersion   = errors.New("rdt: unsupported RTSP version")
)

// Header returns a request header value ("" when absent).
func (r *Request) Header(k string) string { return r.Headers[k] }

// IntHeader parses an integer header, returning def when absent or bad.
func (r *Request) IntHeader(k string, def int) int {
	v, err := strconv.Atoi(strings.TrimSpace(r.Headers[k]))
	if err != nil {
		return def
	}
	return v
}

// Header returns a response header value ("" when absent).
func (r *Response) Header(k string) string { return r.Headers[k] }

// IntHeader parses an integer response header.
func (r *Response) IntHeader(k string, def int) int {
	v, err := strconv.Atoi(strings.TrimSpace(r.Headers[k]))
	if err != nil {
		return def
	}
	return v
}

// FloatHeader parses a float response header.
func (r *Response) FloatHeader(k string, def float64) float64 {
	v, err := strconv.ParseFloat(strings.TrimSpace(r.Headers[k]), 64)
	if err != nil {
		return def
	}
	return v
}

// Header is one request header line: "Key: Value".
type Header struct {
	Key   string
	Value []byte
}

// AppendRequest appends a request's wire form to dst and returns the
// extended slice: the request line, CSeq, the headers in the order given,
// and the blank line that ends the message. It uses neither fmt nor a
// header map, so a caller encoding into a reused buffer (the player's
// NAKs and REPORTs) allocates nothing.
func AppendRequest(dst []byte, method, url string, cseq int, headers ...Header) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, url...)
	dst = append(dst, " "+Version+"\r\nCSeq: "...)
	dst = strconv.AppendInt(dst, int64(cseq), 10)
	dst = append(dst, "\r\n"...)
	for _, h := range headers {
		dst = append(dst, h.Key...)
		dst = append(dst, ": "...)
		dst = append(dst, h.Value...)
		dst = append(dst, "\r\n"...)
	}
	return append(dst, "\r\n"...)
}

// MarshalRequest renders the request in wire form, headers in key order.
func MarshalRequest(r Request) []byte {
	keys := sortedKeys(r.Headers)
	headers := make([]Header, len(keys))
	for i, k := range keys {
		headers[i] = Header{Key: k, Value: []byte(r.Headers[k])}
	}
	return AppendRequest(nil, r.Method, r.URL, r.CSeq, headers...)
}

// MarshalResponse renders the response in wire form.
func MarshalResponse(r Response) []byte {
	var b strings.Builder
	reason := r.Reason
	if reason == "" {
		reason = reasonFor(r.Status)
	}
	fmt.Fprintf(&b, "%s %d %s\r\n", Version, r.Status, reason)
	fmt.Fprintf(&b, "CSeq: %d\r\n", r.CSeq)
	for _, k := range sortedKeys(r.Headers) {
		fmt.Fprintf(&b, "%s: %s\r\n", k, r.Headers[k])
	}
	b.WriteString("\r\n")
	return []byte(b.String())
}

func reasonFor(status int) string {
	switch status {
	case 200:
		return "OK"
	case 404:
		return "Stream Not Found"
	case 455:
		return "Method Not Valid in This State"
	default:
		return "Unknown"
	}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// IsRequest peeks whether the wire bytes are a request (method first) or a
// response (version first).
func IsRequest(b []byte) bool {
	return len(b) < len(Version) || string(b[:len(Version)]) != Version
}

// ParseRequest decodes a request.
func ParseRequest(b []byte) (Request, error) {
	var req Request
	if err := ParseRequestInto(&req, b); err != nil {
		return Request{}, err
	}
	return req, nil
}

// ParseRequestInto decodes a request into req, reusing req.Headers: the
// map is cleared and refilled (made when nil), so a caller that parses
// every request into one Request allocates only the message's string
// form. Method, URL and header values are substrings of it. On error req
// holds a partial parse.
func ParseRequestInto(req *Request, b []byte) error {
	if req.Headers == nil {
		req.Headers = make(map[string]string)
	}
	clear(req.Headers)
	first, err := parseMessage(b, req.Headers)
	if err != nil {
		return err
	}
	method, rest, ok1 := strings.Cut(first, " ")
	url, version, ok2 := strings.Cut(rest, " ")
	if !ok1 || !ok2 {
		return fmt.Errorf("%w: request line %q", ErrMalformed, first)
	}
	if version != Version {
		return ErrVersion
	}
	req.Method, req.URL = method, url
	req.CSeq = takeCSeq(req.Headers)
	return nil
}

// ParseResponse decodes a response.
func ParseResponse(b []byte) (Response, error) {
	headers := make(map[string]string)
	first, err := parseMessage(b, headers)
	if err != nil {
		return Response{}, err
	}
	version, rest, ok := strings.Cut(first, " ")
	if !ok || version != Version {
		return Response{}, fmt.Errorf("%w: status line %q", ErrMalformed, first)
	}
	code, reason, _ := strings.Cut(rest, " ")
	status, err := strconv.Atoi(code)
	if err != nil {
		return Response{}, fmt.Errorf("%w: status %q", ErrMalformed, code)
	}
	// An absent or empty reason phrase takes the default MarshalResponse
	// would write, so a parsed response re-marshals to what it parsed from.
	if reason == "" {
		reason = reasonFor(status)
	}
	return Response{Status: status, Reason: reason, CSeq: takeCSeq(headers), Headers: headers}, nil
}

// parseMessage checks a message's "\r\n\r\n" terminator, adds each
// "Key: Value" header line to into (both sides trimmed; a repeated key
// keeps its last value) and returns the first line. It walks the lines
// with strings.Cut over one string conversion of b, so nothing is split
// into slices.
func parseMessage(b []byte, into map[string]string) (string, error) {
	s := string(b)
	body, ok := strings.CutSuffix(s, "\r\n\r\n")
	if !ok {
		return "", fmt.Errorf("%w: missing terminator", ErrMalformed)
	}
	first, rest, more := strings.Cut(body, "\r\n")
	if first == "" {
		return "", fmt.Errorf("%w: empty message", ErrMalformed)
	}
	for more {
		var ln string
		ln, rest, more = strings.Cut(rest, "\r\n")
		k, v, ok := strings.Cut(ln, ":")
		if !ok {
			return "", fmt.Errorf("%w: header %q", ErrMalformed, ln)
		}
		into[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return first, nil
}

// takeCSeq removes the CSeq header from a parsed header set and returns
// its value (0 when absent or not a number).
func takeCSeq(headers map[string]string) int {
	cseq, _ := strconv.Atoi(headers["CSeq"])
	delete(headers, "CSeq")
	return cseq
}

// ParseSeqList decodes a NAK "Seqs" header ("3,7,9") into sequence numbers.
func ParseSeqList(s string) []uint32 { return ParseSeqListInto(nil, s) }

// ParseSeqListInto appends the sequence numbers of a NAK "Seqs" header to
// dst and returns the extended slice. Entries are trimmed of white space;
// an entry that is not a decimal uint32 is skipped.
func ParseSeqListInto(dst []uint32, s string) []uint32 {
	for more := true; more; {
		var part string
		part, s, more = strings.Cut(s, ",")
		if v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32); err == nil {
			dst = append(dst, uint32(v))
		}
	}
	return dst
}

// FormatSeqList renders sequence numbers for a NAK "Seqs" header.
func FormatSeqList(seqs []uint32) string { return string(AppendSeqList(nil, seqs)) }

// AppendSeqList appends the NAK "Seqs" header form of seqs ("3,7,9") to
// dst and returns the extended slice.
func AppendSeqList(dst []byte, seqs []uint32) []byte {
	for i, s := range seqs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(s), 10)
	}
	return dst
}
