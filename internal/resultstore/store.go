// Package resultstore is a content-addressed, append-only on-disk cache of
// completed sweep-cell results — the memo table that makes re-running an
// overlapping Plan simulate only the new cells.
//
// Each entry is one cell's Comparison keyed by the cell's digest
// (wire.CellSpec: pair × effective options × seed × engine generation —
// sha256 over the canonical wire spec, derived exactly like
// PlanSpec.Digest). Labels — plan Index, variant name — are *not* part of
// the key, so a superset plan hits on every cell it shares with an earlier
// run. Bumping wire.EngineVersion changes every digest at once, which is
// the whole invalidation story: stale results are never *served*, they are
// merely unreachable bytes in the file.
//
// The file is a log of checksummed frames (internal/framelog), the
// dispatch journal's format, each holding one fixed-width binary record
// (record.go): first a header naming the magic, the store format, the wire
// version and the engine generation, then one entry per cached cell. Any
// frame that fails its checksum, is not a well-formed entry record or
// tears at the tail is a cache miss, never data: it stops the scan, and
// the file is trimmed back to the last whole frame so appends never land
// behind garbage. Unlike the journal there is no fsync per append: losing
// the tail of a cache on power cut costs a few re-simulations, not
// correctness. A store of another format — including the gob frames of
// format 1 — is refused at Open, like one of another engine generation:
// point the new build at a fresh directory.
//
// Several handles may share one directory — in one process or several,
// such as a -serve coordinator and a -work worker given the same
// -result-store. The file is opened for appending, and framelog.Append
// writes each frame in one Write, so every handle's frames land whole at
// the end of the file and none overwrites another's; a reopen indexes
// them all. A handle's index holds what the file held at its Open plus its
// own inserts, not what other handles append later. Two handles creating
// a fresh store at the same instant may both write a header, which makes
// the file unreadable; create the store once before sharing it.
package resultstore

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"turbulence/internal/core"
	"turbulence/internal/framelog"
	"turbulence/internal/obs"
	"turbulence/internal/wire"
)

// storeMagic guards against pointing -result-store at an arbitrary
// directory whose results.store is some other file.
const storeMagic = "turbulence-resultstore"

// storeFile is the single append-only file inside the store directory.
const storeFile = "results.store"

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Hits          uint64 // lookups served from the store
	Misses        uint64 // lookups that found nothing
	Bytes         uint64 // bytes of whole frames persisted (header included)
	CorruptFrames uint64 // frames dropped at open (bad CRC or torn tail)
	Entries       int    // distinct results currently held
}

// Store is the open handle: an in-memory digest→Comparison index over an
// append-only file. Safe for concurrent use from any number of Runner
// workers and coordinator goroutines.
type Store struct {
	mu      sync.RWMutex
	entries map[string]*core.Comparison
	f       *os.File
	dead    bool // a failed append stops persisting; lookups still work
	logf    func(format string, args ...any)

	hits    atomic.Uint64
	misses  atomic.Uint64
	bytes   atomic.Uint64
	corrupt atomic.Uint64
}

// Option configures Open.
type Option func(*Store)

// WithLogf routes the store's rare diagnostics (corruption at open, a
// failed append) to fn instead of discarding them.
func WithLogf(fn func(format string, args ...any)) Option {
	return func(s *Store) { s.logf = fn }
}

// Open opens (creating if needed) the result store in dir. A file written
// in a different store format or by a different wire or engine generation
// is refused with an error — point different generations at different
// directories. Corrupt tail frames are counted, logged, truncated away
// and otherwise treated as misses.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{
		entries: make(map[string]*core.Comparison),
		logf:    func(string, ...any) {},
	}
	for _, opt := range opts {
		opt(s)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	path := filepath.Join(dir, storeFile)
	// O_APPEND: other handles on this file may have appended since
	// this one opened, so each write goes to the end, not to an offset.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s.f = f
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	if info.Size() == 0 {
		h := storeHeader{Magic: storeMagic, Format: storeFormat, Wire: wire.Version, Engine: wire.EngineVersion}
		n, err := framelog.Append(f, appendHeader(nil, h))
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("resultstore: cannot write store header to %s: %w", path, err)
		}
		// One fsync for the header: losing it renders the whole file
		// foreign at the next open. Entry appends are not fsync'd.
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("resultstore: %w", err)
		}
		s.bytes.Store(uint64(n))
		return s, nil
	}
	end, err := s.load(path, info.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := framelog.Trim(f, end); err != nil {
		f.Close()
		return nil, fmt.Errorf("resultstore: cannot trim %s to its last whole frame: %w", path, err)
	}
	s.bytes.Store(uint64(end))
	return s, nil
}

// load scans the freshly opened file from the start, verifying the header
// and indexing every whole, checksum-clean entry frame of a file of the
// given size. Returns the offset just past the last good frame. A header
// that does not verify is an error; a bad entry frame is a miss — counted,
// logged, and the scan stops there.
func (s *Store) load(path string, size int64) (int64, error) {
	sc := framelog.NewScanner(s.f, size)
	body, err := sc.Next()
	if err != nil {
		return 0, fmt.Errorf("resultstore: %s: unreadable header: %v", path, err)
	}
	h, err := decodeHeader(body)
	if err != nil && bytes.Contains(body, []byte(storeMagic)) {
		// Format 1 framed a gob stream, which spells the magic out.
		return 0, fmt.Errorf("resultstore: %s holds results in the gob store format; this build reads store format %d — use a fresh directory",
			path, storeFormat)
	}
	if err != nil || h.Magic != storeMagic {
		return 0, fmt.Errorf("resultstore: %s is not a turbulence result store", path)
	}
	if h.Format != storeFormat || h.Wire != wire.Version || h.Engine != wire.EngineVersion {
		return 0, fmt.Errorf("resultstore: %s holds results in store format %d from wire v%d / engine v%d; this build uses store format %d, wire v%d / engine v%d — use a fresh directory",
			path, h.Format, h.Wire, h.Engine, storeFormat, wire.Version, wire.EngineVersion)
	}
	end := sc.End()
	for {
		body, err := sc.Next()
		if err == io.EOF {
			return end, nil
		}
		var cmp core.Comparison
		var digest string
		if err == nil {
			digest, err = decodeEntry(body, &cmp)
		}
		if err != nil {
			// A torn or corrupt frame: a miss, never data. Everything
			// before it is good; the caller trims the rest away.
			s.corrupt.Add(1)
			s.logf("resultstore: dropping corrupt tail of %s (%v); cells re-simulate", path, err)
			return end, nil
		}
		s.entries[digest] = &cmp
		end = sc.End()
	}
}

// Close closes the file. Lookups after Close still serve the in-memory
// index; inserts stop persisting.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dead = true
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// Lookup returns the stored Comparison for a cell digest. The returned
// pointer is shared — callers must not mutate it (wire.RunFromCached
// copies).
func (s *Store) Lookup(digest string) (*core.Comparison, bool) {
	s.mu.RLock()
	cmp, ok := s.entries[digest]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return cmp, ok
}

// Contains reports whether a digest is held without touching the hit/miss
// counters — for planners that probe coverage before deciding what to
// lease.
func (s *Store) Contains(digest string) bool {
	s.mu.RLock()
	_, ok := s.entries[digest]
	s.mu.RUnlock()
	return ok
}

// Insert records a cell result under its digest: first writer wins,
// re-inserts of a held digest are free no-ops (results are content-
// addressed, so a second writer's value is the same result). The
// Comparison is copied in, decoupling the store from later caller
// mutation. A failed append disables persistence for the rest of the
// process — the in-memory index keeps working — because the file may now
// end in a torn frame that must stay the *last* thing in it.
func (s *Store) Insert(digest string, cmp *core.Comparison) {
	if cmp == nil {
		return
	}
	c := *cmp
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.entries[digest]; dup {
		return
	}
	s.entries[digest] = &c
	if s.dead || s.f == nil {
		return
	}
	n, err := framelog.Append(s.f, appendEntry(nil, digest, &c))
	if err != nil {
		s.dead = true
		s.logf("resultstore: append failed, persistence disabled for this run: %v", err)
		return
	}
	s.bytes.Add(uint64(n))
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	n := len(s.entries)
	s.mu.RUnlock()
	return Stats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Bytes:         s.bytes.Load(),
		CorruptFrames: s.corrupt.Load(),
		Entries:       n,
	}
}

// Register exposes the store's counters on a metrics registry:
// turbulence_cache_{hits,misses,bytes,corrupt_frames}_total plus the
// turbulence_cache_entries gauge. Call at most once per registry.
func (s *Store) Register(reg *obs.Registry) {
	reg.CounterFunc("turbulence_cache_hits_total",
		"Result-store lookups served from cache.", s.hits.Load)
	reg.CounterFunc("turbulence_cache_misses_total",
		"Result-store lookups that found nothing.", s.misses.Load)
	reg.CounterFunc("turbulence_cache_bytes_total",
		"Bytes of whole frames persisted in the result store.", s.bytes.Load)
	reg.CounterFunc("turbulence_cache_corrupt_frames_total",
		"Result-store frames dropped as corrupt at open.", s.corrupt.Load)
	reg.GaugeFunc("turbulence_cache_entries",
		"Distinct cell results held by the result store.", func() float64 {
			s.mu.RLock()
			n := len(s.entries)
			s.mu.RUnlock()
			return float64(n)
		})
}

// LookupResult implements core.ResultStore: the Runner's read path,
// addressing by the cell's content (pair, effective options, seed, engine
// generation).
func (s *Store) LookupResult(pair core.PairKey, opts core.Options, seed int64) (*core.Comparison, bool) {
	return s.Lookup(wire.CellSpecFrom(pair, opts, seed).Digest())
}

// InsertResult implements core.ResultStore: the Runner's write path.
func (s *Store) InsertResult(pair core.PairKey, opts core.Options, seed int64, cmp *core.Comparison) {
	s.Insert(wire.CellSpecFrom(pair, opts, seed).Digest(), cmp)
}

var _ core.ResultStore = (*Store)(nil)
