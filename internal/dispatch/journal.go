package dispatch

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"turbulence/internal/obs"
	"turbulence/internal/wire"
)

// The checkpoint journal is the coordinator's crash insurance: an
// append-only file of length-prefixed gob frames — one header naming the
// sweep (PlanSpec, its digest, the shard carve), then one completion
// frame per collected shard — fsync'd after every append. A coordinator
// restarted with Resume (or New with the same WithCheckpoint path)
// replays the journal, marks the recorded shards done, and re-leases only
// the rest; because every frame holds the shard's full wire.Run batch,
// the resumed merge is byte-identical to an uninterrupted run.
//
// Each frame is an independent gob stream behind a uint32 length prefix,
// so appends from successive coordinator processes never share encoder
// state (concatenated gob streams from independent encoders do not
// decode). A crash mid-append leaves a torn tail — a short final frame —
// which replay tolerates by stopping there: the unrecorded shard simply
// re-runs. The resuming appender then truncates the tear before writing,
// so new frames land behind the last whole one — never behind garbage,
// which the next replay would misread as a frame length spanning into
// them. Anything else that does not decode is corruption and refuses
// loudly rather than resuming a half-trusted sweep.

// journalMagic guards against pointing -checkpoint at an arbitrary file.
const journalMagic = "turbulence-checkpoint"

// journalFrame is the one frame shape; exactly one field is set.
type journalFrame struct {
	Header   *journalHeader
	Complete *journalComplete
}

// journalHeader is the first frame: which sweep this journal belongs to.
type journalHeader struct {
	Magic   string
	Version int    // wire.Version at write time
	Digest  string // Spec.Digest(), the refuse-to-mix key
	Spec    wire.PlanSpec
	Shards  int // the shard carve the completion frames index into
}

// journalComplete records one collected shard.
type journalComplete struct {
	Shard int
	Runs  []wire.Run
}

// journal is the open append handle. Nil receiver = checkpointing off.
// Appends serialise on the journal's own mutex, not the coordinator's, so
// an fsync to a slow disk never stalls lease and renew traffic.
type journal struct {
	mu   sync.Mutex
	f    *os.File
	dead bool // a failed append stops checkpointing (see append)
	logf func(format string, args ...any)

	// Set by the coordinator after open; nil-safe (obs handles are only
	// read when non-nil).
	fsyncs       *obs.Counter
	fsyncSeconds *obs.Histogram
}

// appendFrame writes one length-prefixed gob frame and fsyncs. On any
// error the journal goes dead: the file may now hold a torn frame, and
// appending more behind it would put valid frames after garbage — which
// replay must treat as corruption. A dead journal only costs resume
// coverage (later shards re-run after a crash); the live sweep proceeds.
func (j *journal) appendFrame(fr journalFrame) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(fr); err != nil {
		j.fail("encode", err)
		return
	}
	var pre [4]byte
	binary.BigEndian.PutUint32(pre[:], uint32(body.Len()))
	if _, err := j.f.Write(pre[:]); err != nil {
		j.fail("write", err)
		return
	}
	if _, err := j.f.Write(body.Bytes()); err != nil {
		j.fail("write", err)
		return
	}
	start := time.Now()
	if err := j.f.Sync(); err != nil {
		j.fail("fsync", err)
		return
	}
	if j.fsyncs != nil {
		j.fsyncs.Inc()
		j.fsyncSeconds.Observe(time.Since(start).Seconds())
	}
}

func (j *journal) fail(op string, err error) {
	j.dead = true
	j.logf("dispatch: checkpoint %s failed, journalling disabled for this run: %v", op, err)
}

func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
	}
}

// errTornTail distinguishes "file ends mid-frame" (a crash during append;
// replay stops there) from corruption (refused).
var errTornTail = errors.New("torn tail")

// readFrame decodes the next frame. io.EOF = clean end; errTornTail = the
// file ends inside a frame.
func readFrame(r *countingReader) (journalFrame, error) {
	var fr journalFrame
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		if err == io.EOF {
			return fr, io.EOF
		}
		return fr, errTornTail
	}
	// A length past the end of the file is a tear; rejecting it before
	// allocating keeps a garbage prefix from costing up to 4 GiB.
	n := binary.BigEndian.Uint32(pre[:])
	if int64(n) > r.size-r.n {
		return fr, errTornTail
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return fr, errTornTail
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&fr); err != nil {
		return fr, fmt.Errorf("dispatch: corrupt checkpoint frame: %w", err)
	}
	return fr, nil
}

// countingReader tracks how many bytes have been consumed, so readJournal
// can report where the last whole frame ends and readFrame can bound a
// frame by the bytes left.
type countingReader struct {
	r    io.Reader
	n    int64
	size int64 // file size
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// readJournal replays an existing checkpoint file: header plus every
// fully-written completion frame. A torn tail after at least one whole
// frame is a crash artifact and tolerated; a file that does not even hold
// a whole header, or holds frames that decode to garbage, is refused.
// end is the byte offset just past the last whole frame — the appender
// truncates the file there before writing, so a tear never sits between
// old frames and new ones.
func readJournal(path string) (h *journalHeader, done []journalComplete, end int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, 0, err
	}
	cr := &countingReader{r: f, size: info.Size()}
	first, err := readFrame(cr)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("dispatch: checkpoint %s: unreadable header: %w", path, err)
	}
	h = first.Header
	if h == nil || h.Magic != journalMagic {
		return nil, nil, 0, fmt.Errorf("dispatch: %s is not a turbulence checkpoint", path)
	}
	if h.Version != wire.Version {
		return nil, nil, 0, fmt.Errorf("dispatch: checkpoint %s was written by wire version %d, this build speaks %d", path, h.Version, wire.Version)
	}
	end = cr.n
	for {
		fr, err := readFrame(cr)
		if err == io.EOF {
			return h, done, end, nil
		}
		if errors.Is(err, errTornTail) {
			// Crash mid-append: everything before the tear is good.
			return h, done, end, nil
		}
		if err != nil {
			return nil, nil, 0, err
		}
		if fr.Complete == nil {
			return nil, nil, 0, fmt.Errorf("dispatch: checkpoint %s: unexpected non-completion frame", path)
		}
		done = append(done, *fr.Complete)
		end = cr.n
	}
}

// openJournal opens path for appending, creating it (with a header frame)
// when absent or empty. When the file already holds a journal, the caller
// has replayed it, vouches the header matches, and passes replay's end
// offset; the file is truncated there first, so a torn tail from the
// previous process's crash is cut rather than buried under new frames —
// appending behind a tear would make the next replay read the tear's
// partial length prefix as a frame spanning into the fresh completions.
func openJournal(path string, h journalHeader, fresh bool, end int64, logf func(string, ...any)) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j := &journal{f: f, logf: logf}
	if fresh {
		j.appendFrame(journalFrame{Header: &h})
		if j.dead {
			f.Close()
			return nil, fmt.Errorf("dispatch: cannot write checkpoint header to %s", path)
		}
		return j, nil
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("dispatch: cannot trim checkpoint %s to its last whole frame: %w", path, err)
	}
	return j, nil
}
