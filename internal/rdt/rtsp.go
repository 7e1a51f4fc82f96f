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
//     "packets recovered" statistic RealTracker-class tools expose.
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

// MarshalRequest renders the request in wire form.
func MarshalRequest(r Request) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s\r\n", r.Method, r.URL, Version)
	fmt.Fprintf(&b, "CSeq: %d\r\n", r.CSeq)
	for _, k := range sortedKeys(r.Headers) {
		fmt.Fprintf(&b, "%s: %s\r\n", k, r.Headers[k])
	}
	b.WriteString("\r\n")
	return []byte(b.String())
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
	return !strings.HasPrefix(string(b), Version)
}

// ParseRequest decodes a request.
func ParseRequest(b []byte) (Request, error) {
	lines, err := splitLines(b)
	if err != nil {
		return Request{}, err
	}
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) != 3 {
		return Request{}, fmt.Errorf("%w: request line %q", ErrMalformed, lines[0])
	}
	if parts[2] != Version {
		return Request{}, ErrVersion
	}
	req := Request{Method: parts[0], URL: parts[1], Headers: make(map[string]string)}
	if err := parseHeaders(lines[1:], req.Headers); err != nil {
		return Request{}, err
	}
	req.CSeq, _ = strconv.Atoi(req.Headers["CSeq"])
	delete(req.Headers, "CSeq")
	return req, nil
}

// ParseResponse decodes a response.
func ParseResponse(b []byte) (Response, error) {
	lines, err := splitLines(b)
	if err != nil {
		return Response{}, err
	}
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || parts[0] != Version {
		return Response{}, fmt.Errorf("%w: status line %q", ErrMalformed, lines[0])
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return Response{}, fmt.Errorf("%w: status %q", ErrMalformed, parts[1])
	}
	// An absent or empty reason phrase takes the default MarshalResponse
	// would write, so a parsed response re-marshals to what it parsed from.
	resp := Response{Status: status, Reason: reasonFor(status), Headers: make(map[string]string)}
	if len(parts) == 3 && parts[2] != "" {
		resp.Reason = parts[2]
	}
	if err := parseHeaders(lines[1:], resp.Headers); err != nil {
		return Response{}, err
	}
	resp.CSeq, _ = strconv.Atoi(resp.Headers["CSeq"])
	delete(resp.Headers, "CSeq")
	return resp, nil
}

func splitLines(b []byte) ([]string, error) {
	s := string(b)
	if !strings.HasSuffix(s, "\r\n\r\n") {
		return nil, fmt.Errorf("%w: missing terminator", ErrMalformed)
	}
	lines := strings.Split(strings.TrimSuffix(s, "\r\n\r\n"), "\r\n")
	if len(lines) == 0 || lines[0] == "" {
		return nil, fmt.Errorf("%w: empty message", ErrMalformed)
	}
	return lines, nil
}

func parseHeaders(lines []string, into map[string]string) error {
	for _, ln := range lines {
		k, v, ok := strings.Cut(ln, ":")
		if !ok {
			return fmt.Errorf("%w: header %q", ErrMalformed, ln)
		}
		into[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return nil
}

// ParseSeqList decodes a NAK "Seqs" header ("3,7,9") into sequence numbers.
func ParseSeqList(s string) []uint32 {
	var out []uint32
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
		if err == nil {
			out = append(out, uint32(v))
		}
	}
	return out
}

// FormatSeqList renders sequence numbers for a NAK "Seqs" header.
func FormatSeqList(seqs []uint32) string {
	parts := make([]string, len(seqs))
	for i, s := range seqs {
		parts[i] = strconv.FormatUint(uint64(s), 10)
	}
	return strings.Join(parts, ",")
}
