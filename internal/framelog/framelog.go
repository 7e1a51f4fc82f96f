// Package framelog is the one on-disk log format of the sweep engine: an
// append-only file of checksummed byte frames. The dispatch checkpoint
// journal and the result store are its two users; each owns the encoding
// of its frame bodies (the journal gob-encodes each body as its own
// stream, the store writes fixed-width binary records), its header check,
// its durability rule and its policy for a body that does not decode.
//
// A frame is [uint32 body length][uint32 CRC32-IEEE of body][body],
// big-endian. The checksum is what lets a bit flip read as corruption
// instead of decoding to plausible garbage: neither gob nor a fixed-width
// record can tell a flipped bit in a number from a real value.
//
// A crash mid-append leaves a torn tail: the file ends inside its last
// frame. The scanner tells that apart from corruption, and Trim cuts the
// tear so new frames land behind the last whole one, never behind garbage
// the next scan would misread as a length spanning into them.
package framelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// prefixLen is the frame prefix: body length, then body checksum.
const prefixLen = 8

var (
	// ErrTorn means the input ends inside a frame: the mark a crash
	// mid-append leaves.
	ErrTorn = errors.New("framelog: torn frame")
	// ErrCorrupt means a whole frame is present but its checksum fails.
	// Callers wrap it too for a checksum-clean body they cannot decode.
	ErrCorrupt = errors.New("framelog: corrupt frame")
)

// Append writes body as one frame to w in a single Write, returning the
// bytes written. The caller decides whether to fsync.
func Append(w io.Writer, body []byte) (int, error) {
	frame := make([]byte, prefixLen, prefixLen+len(body))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(body))
	return w.Write(append(frame, body...))
}

// Scanner reads frames in order from the start of a log.
type Scanner struct {
	r    *bufio.Reader
	size int64  // bytes in the log
	n    int64  // bytes consumed
	end  int64  // offset just past the last frame Next returned
	body []byte // the buffer Next reads every body into
}

// NewScanner scans the size bytes r yields.
func NewScanner(r io.Reader, size int64) *Scanner {
	return &Scanner{r: bufio.NewReader(r), size: size}
}

// End is the offset just past the last whole frame Next returned: where
// Trim should cut.
func (s *Scanner) End() int64 { return s.end }

// Next returns the next frame's body once its checksum holds. The body
// is only valid until the following call: the scanner reuses its buffer.
// Next returns io.EOF at a clean end, an error wrapping ErrTorn when the
// log ends inside a frame, and one wrapping ErrCorrupt for a whole frame
// that fails its checksum. After any error the scan is over.
func (s *Scanner) Next() ([]byte, error) {
	var pre [prefixLen]byte
	if err := s.read(pre[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short %d-byte prefix", ErrTorn, prefixLen)
	}
	n := int64(binary.BigEndian.Uint32(pre[:4]))
	sum := binary.BigEndian.Uint32(pre[4:])
	if left := s.size - s.n; n > left {
		// Rejected before allocating, so a garbage prefix cannot cost up
		// to 4 GiB. A real tear holds only part of the body it promises,
		// and nothing after it, so no prefix of the bytes left can match
		// the checksum; when one does, the body is whole — possibly with
		// later frames behind it — and its length prefix is what was
		// damaged.
		if k, ok := s.checksumPrefix(left, sum); ok {
			return nil, fmt.Errorf("%w: length prefix %d overruns a whole %d-byte body", ErrCorrupt, n, k)
		}
		return nil, fmt.Errorf("%w: body of %d bytes, %d left", ErrTorn, n, left)
	}
	if int64(cap(s.body)) < n {
		s.body = make([]byte, n)
	}
	body := s.body[:n]
	if err := s.read(body); err != nil {
		return nil, fmt.Errorf("%w: body of %d bytes", ErrTorn, n)
	}
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	s.end = s.n
	return body, nil
}

// checksumPrefix reads the left bytes that remain and reports the length
// of the first non-empty prefix of them whose CRC32-IEEE is sum. It steps
// the table-driven CRC a byte at a time, so every prefix is checked, and
// streams through a fixed buffer.
func (s *Scanner) checksumPrefix(left int64, sum uint32) (int64, bool) {
	var buf [4096]byte
	crc := ^uint32(0) // the running CRC register, before the final inversion
	for k := int64(0); k < left; {
		m := min(int64(len(buf)), left-k)
		if err := s.read(buf[:m]); err != nil {
			return 0, false
		}
		for _, b := range buf[:m] {
			crc = crc32.IEEETable[byte(crc)^b] ^ crc>>8
			k++
			if ^crc == sum {
				return k, true
			}
		}
	}
	return 0, false
}

func (s *Scanner) read(p []byte) error {
	n, err := io.ReadFull(s.r, p)
	s.n += int64(n)
	return err
}

// Trim truncates f to end, the offset just past its last whole frame, and
// positions it there for appends, so a torn or corrupt tail never sits
// between old frames and new ones.
func Trim(f *os.File, end int64) error {
	if err := f.Truncate(end); err != nil {
		return err
	}
	_, err := f.Seek(end, io.SeekStart)
	return err
}
