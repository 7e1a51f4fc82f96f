package rdt

import (
	"fmt"
	"strconv"
	"strings"
)

// The string-splitting, fmt-based RTSP and NAK seq-list codecs the
// append-form codecs replaced. The fuzz targets hold the shipped codecs
// to these byte for byte: same encodings, same accept/reject decisions,
// same parsed values and headers.

func marshalRequestOracle(r Request) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s\r\n", r.Method, r.URL, Version)
	fmt.Fprintf(&b, "CSeq: %d\r\n", r.CSeq)
	for _, k := range sortedKeys(r.Headers) {
		fmt.Fprintf(&b, "%s: %s\r\n", k, r.Headers[k])
	}
	b.WriteString("\r\n")
	return []byte(b.String())
}

func parseRequestOracle(b []byte) (Request, error) {
	lines, err := splitLinesOracle(b)
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
	if err := parseHeadersOracle(lines[1:], req.Headers); err != nil {
		return Request{}, err
	}
	req.CSeq, _ = strconv.Atoi(req.Headers["CSeq"])
	delete(req.Headers, "CSeq")
	return req, nil
}

func parseResponseOracle(b []byte) (Response, error) {
	lines, err := splitLinesOracle(b)
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
	resp := Response{Status: status, Reason: reasonFor(status), Headers: make(map[string]string)}
	if len(parts) == 3 && parts[2] != "" {
		resp.Reason = parts[2]
	}
	if err := parseHeadersOracle(lines[1:], resp.Headers); err != nil {
		return Response{}, err
	}
	resp.CSeq, _ = strconv.Atoi(resp.Headers["CSeq"])
	delete(resp.Headers, "CSeq")
	return resp, nil
}

func splitLinesOracle(b []byte) ([]string, error) {
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

func parseHeadersOracle(lines []string, into map[string]string) error {
	for _, ln := range lines {
		k, v, ok := strings.Cut(ln, ":")
		if !ok {
			return fmt.Errorf("%w: header %q", ErrMalformed, ln)
		}
		into[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return nil
}

func isRequestOracle(b []byte) bool {
	return !strings.HasPrefix(string(b), Version)
}

func parseSeqListOracle(s string) []uint32 {
	var out []uint32
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
		if err == nil {
			out = append(out, uint32(v))
		}
	}
	return out
}

func formatSeqListOracle(seqs []uint32) string {
	parts := make([]string, len(seqs))
	for i, s := range seqs {
		parts[i] = strconv.FormatUint(uint64(s), 10)
	}
	return strings.Join(parts, ",")
}
