package dispatch

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"turbulence/internal/framelog"
	"turbulence/internal/obs"
	"turbulence/internal/wire"
)

// The checkpoint journal is the coordinator's crash insurance: an
// append-only file of checksummed frames (internal/framelog), each body
// an independent gob stream of one journalFrame — one
// header naming the sweep (PlanSpec, its digest, the shard carve), then
// one completion frame per collected shard — fsync'd after every append.
// A coordinator restarted with Resume (or New with the same WithCheckpoint
// path) replays the journal, marks the recorded shards done, and re-leases
// only the rest; because every frame holds the shard's full wire.Run
// batch, the resumed merge is byte-identical to an uninterrupted run.
//
// A crash mid-append leaves a torn tail, which replay tolerates by
// stopping there: the unrecorded shard simply re-runs, and the resuming
// appender trims the tear before writing. A frame that fails its checksum
// or does not decode is corruption and refuses loudly rather than resuming
// a half-trusted sweep. A checkpoint written before frames carried
// checksums is refused as having an unreadable header; checkpoints belong
// to one sweep, so the sweep simply starts over.

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

// writeFrame gob-encodes fr as one frame body, its own gob stream, so
// appends from successive processes never share encoder state
// (concatenated streams from independent encoders do not decode).
func writeFrame(w io.Writer, fr journalFrame) (int, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(fr); err != nil {
		return 0, err
	}
	return framelog.Append(w, body.Bytes())
}

// readFrame decodes the scanner's next frame. A checksum-clean body that
// does not decode is corruption, like one that fails its checksum.
func readFrame(sc *framelog.Scanner) (journalFrame, error) {
	var fr journalFrame
	body, err := sc.Next()
	if err != nil {
		return fr, err
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&fr); err != nil {
		return fr, fmt.Errorf("%w: %v", framelog.ErrCorrupt, err)
	}
	return fr, nil
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

// appendFrame writes one frame and fsyncs. On any error the journal goes
// dead: the file may now hold a torn frame, and appending more behind it
// would put valid frames after garbage — which replay must treat as
// corruption. A dead journal only costs resume coverage (later shards
// re-run after a crash); the live sweep proceeds.
func (j *journal) appendFrame(fr journalFrame) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return
	}
	if _, err := writeFrame(j.f, fr); err != nil {
		j.fail("append", err)
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

// readJournal replays an existing checkpoint file: header plus every
// fully-written completion frame. A torn tail after at least one whole
// frame is a crash artifact and tolerated; a file that does not even hold
// a whole header, or holds a corrupt frame, is refused. end is the byte
// offset just past the last whole frame, where the appender trims.
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
	sc := framelog.NewScanner(f, info.Size())
	first, err := readFrame(sc)
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
	for {
		fr, err := readFrame(sc)
		if err == io.EOF || errors.Is(err, framelog.ErrTorn) {
			// A torn tail is a crash mid-append: everything before it is good.
			return h, done, sc.End(), nil
		}
		if err != nil {
			return nil, nil, 0, fmt.Errorf("dispatch: checkpoint %s: %w", path, err)
		}
		if fr.Complete == nil {
			return nil, nil, 0, fmt.Errorf("dispatch: checkpoint %s: unexpected non-completion frame", path)
		}
		done = append(done, *fr.Complete)
	}
}

// openJournal opens path for appending, creating it (with a header frame)
// when absent or empty. When the file already holds a journal, the caller
// has replayed it, vouches the header matches, and passes replay's end
// offset; the file is trimmed there first, so a torn tail from the
// previous process's crash is cut rather than buried under new frames.
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
	if err := framelog.Trim(f, end); err != nil {
		f.Close()
		return nil, fmt.Errorf("dispatch: cannot trim checkpoint %s to its last whole frame: %w", path, err)
	}
	return j, nil
}
