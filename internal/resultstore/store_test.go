package resultstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"turbulence/internal/core"
	"turbulence/internal/framelog"
	"turbulence/internal/media"
	"turbulence/internal/netem"
	"turbulence/internal/obs"
	"turbulence/internal/racecheck"
	"turbulence/internal/wire"
)

func cmpFor(i int) *core.Comparison {
	return &core.Comparison{
		Set:       i,
		ClassName: "low",
		Real:      core.FlowProfile{Packets: i, MeanSize: float64(i) * 1.5},
		WMP:       core.FlowProfile{Packets: i * 2, CBR: true},
	}
}

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if _, ok := s.Lookup("d0"); ok {
		t.Fatal("empty store reported a hit")
	}
	for i := 0; i < 5; i++ {
		s.Insert("d"+strconv.Itoa(i), cmpFor(i))
	}
	s.Insert("d3", cmpFor(99)) // re-insert: first writer wins
	got, ok := s.Lookup("d3")
	if !ok || got.Set != 3 {
		t.Fatalf("Lookup(d3) = %+v, %v; want first-inserted value", got, ok)
	}
	st := s.Stats()
	if st.Entries != 5 || st.Hits != 1 || st.Misses != 1 || st.CorruptFrames != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything persisted, cleanly.
	s2 := open(t, dir)
	defer s2.Close()
	for i := 0; i < 5; i++ {
		got, ok := s2.Lookup("d" + strconv.Itoa(i))
		if !ok || got.Set != i {
			t.Fatalf("after reopen, Lookup(d%d) = %+v, %v", i, got, ok)
		}
	}
	if st := s2.Stats(); st.Entries != 5 || st.CorruptFrames != 0 || st.Bytes == 0 {
		t.Fatalf("reopen stats = %+v", st)
	}

	// The counters render as real counters on a registry.
	reg := obs.NewRegistry()
	s2.Register(reg)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE turbulence_cache_hits_total counter\nturbulence_cache_hits_total 5\n",
		"turbulence_cache_misses_total 0\n",
		"turbulence_cache_corrupt_frames_total 0\n",
		"turbulence_cache_entries 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestStoreConcurrent hammers insert and lookup from many goroutines —
// meaningful under -race.
func TestStoreConcurrent(t *testing.T) {
	s := open(t, t.TempDir())
	defer s.Close()
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				d := "d" + strconv.Itoa(i) // all workers contend on the same digests
				s.Insert(d, cmpFor(i))
				if got, ok := s.Lookup(d); !ok || got.Set != i {
					t.Errorf("Lookup(%s) = %+v, %v", d, got, ok)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Entries != perWorker {
		t.Fatalf("entries = %d, want %d", st.Entries, perWorker)
	}
}

// TestStoreTornTailReopen simulates a crash mid-append: the torn frame is
// dropped and counted, everything before it survives, and the store keeps
// appending cleanly from the cut.
// TestStoreSharedDirectory pins the multi-handle guarantee: two handles
// open on one directory (a -serve and a -work sharing a -result-store)
// each append at the end of the file, never over the other's frames, so
// a reopen holds every entry either inserted.
func TestStoreSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	a, b := open(t, dir), open(t, dir)
	for i := 0; i < 10; i++ {
		a.Insert("a"+strconv.Itoa(i), cmpFor(i))
		b.Insert("b"+strconv.Itoa(i), cmpFor(i))
	}
	for _, s := range []*Store{a, b} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s := open(t, dir)
	defer s.Close()
	if st := s.Stats(); st.Entries != 20 || st.CorruptFrames != 0 {
		t.Fatalf("reopened shared store: %d entries, %d corrupt frames; want 20 and 0", st.Entries, st.CorruptFrames)
	}
	for _, p := range []string{"a", "b"} {
		for i := 0; i < 10; i++ {
			if got, ok := s.Lookup(p + strconv.Itoa(i)); !ok || got.Set != i {
				t.Fatalf("Lookup(%s%d) = %+v, %v", p, i, got, ok)
			}
		}
	}
}

// frameCount reads back how many whole frames the store file in dir
// holds, header included.
func frameCount(t *testing.T, dir string) int {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, storeFile))
	if err != nil {
		t.Fatal(err)
	}
	sc := framelog.NewScanner(bytes.NewReader(raw), int64(len(raw)))
	n := 0
	for {
		if _, err := sc.Next(); err != nil {
			return n
		}
		n++
	}
}

// TestStoreSharedDirectoryOnce pins that handles sharing a directory
// write each cell once: a handle's Insert first indexes what the other
// appended, so the second insert of one digest writes nothing, and the
// file holds the header plus one entry frame.
func TestStoreSharedDirectoryOnce(t *testing.T) {
	dir := t.TempDir()
	a, b := open(t, dir), open(t, dir)
	defer a.Close()
	defer b.Close()
	a.Insert("d0", cmpFor(0))
	b.Insert("d0", cmpFor(0))
	if got := frameCount(t, dir); got != 2 {
		t.Fatalf("store holds %d frames after two handles inserted one digest, want 2 (header + one entry)", got)
	}
	if got, ok := b.Lookup("d0"); !ok || got.Set != 0 {
		t.Fatalf("b.Lookup(d0) = %+v, %v", got, ok)
	}
	// b's own insert still lands once, and a indexes it in turn.
	b.Insert("d1", cmpFor(1))
	a.Insert("d1", cmpFor(1))
	if got := frameCount(t, dir); got != 3 {
		t.Fatalf("store holds %d frames, want 3", got)
	}
}

// TestStoreSharedDirectoryPartialFrame pins that Insert stops quietly at
// another handle's frame that is not whole yet: nothing is counted as
// corrupt or trimmed, and once the frame is whole the next Insert
// indexes it.
func TestStoreSharedDirectoryPartialFrame(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir)
	defer a.Close()
	a.Insert("d0", cmpFor(0))
	var frame bytes.Buffer
	if _, err := framelog.Append(&frame, appendEntry(nil, "other", cmpFor(7))); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, storeFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size := func() int64 {
		t.Helper()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	half := frame.Len() / 2
	if _, err := f.Write(frame.Bytes()[:half]); err != nil {
		t.Fatal(err)
	}
	partial := size()
	a.Insert("d0", cmpFor(0)) // held: reads the file, appends nothing
	if a.Contains("other") || a.Stats().CorruptFrames != 0 || size() != partial {
		t.Fatalf("partial frame indexed, counted or trimmed: %+v, size %d, want %d", a.Stats(), size(), partial)
	}
	if _, err := f.Write(frame.Bytes()[half:]); err != nil {
		t.Fatal(err)
	}
	whole := size()
	a.Insert("other", cmpFor(7))
	if !a.Contains("other") || size() != whole {
		t.Fatalf("completed frame not indexed before the insert: size %d, want %d", size(), whole)
	}
}

func TestStoreTornTailReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for i := 0; i < 3; i++ {
		s.Insert("d"+strconv.Itoa(i), cmpFor(i))
	}
	s.Close()

	path := filepath.Join(dir, storeFile)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	whole := info.Size()
	// Tear: a new frame's worth of bytes, cut mid-body.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, raw[len(raw)-20:]...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir)
	if st := s2.Stats(); st.Entries != 3 || st.CorruptFrames != 1 {
		t.Fatalf("after torn tail, stats = %+v", st)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != whole {
		t.Fatalf("torn tail not truncated: size %d, want %d (err %v)", info.Size(), whole, err)
	}
	s2.Insert("d9", cmpFor(9))
	s2.Close()

	s3 := open(t, dir)
	defer s3.Close()
	if st := s3.Stats(); st.Entries != 4 || st.CorruptFrames != 0 {
		t.Fatalf("after append-past-tear reopen, stats = %+v", st)
	}
}

// TestStoreCorruptFrameIsMiss flips one byte inside the last frame's body:
// the checksum must catch it and the frame must become a miss — gob alone
// would decode many single-byte corruptions into plausible garbage.
func TestStoreCorruptFrameIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Insert("keep", cmpFor(1))
	s.Insert("flip", cmpFor(2))
	s.Close()

	path := filepath.Join(dir, storeFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir)
	defer s2.Close()
	if _, ok := s2.Lookup("keep"); !ok {
		t.Fatal("frame before the corruption was lost")
	}
	if _, ok := s2.Lookup("flip"); ok {
		t.Fatal("corrupt frame served as data")
	}
	if st := s2.Stats(); st.CorruptFrames != 1 {
		t.Fatalf("corrupt frames = %d, want 1", st.CorruptFrames)
	}
}

// TestStoreMalformedRecordIsMiss appends checksum-clean frames whose
// bodies are not well-formed entry records, each behind a good entry and
// followed by another: the malformed frame is counted, the scan stops
// there, the file is trimmed back to the good entry, and the entry after
// the malformed frame is dropped with it.
func TestStoreMalformedRecordIsMiss(t *testing.T) {
	good := appendEntry(nil, "after", cmpFor(3))
	for name, body := range map[string][]byte{
		"trailing byte": append(appendEntry(nil, "bad", cmpFor(2)), 0),
		"bool byte 2":   func() []byte { b := appendEntry(nil, "bad", cmpFor(2)); b[len(b)-1] = 2; return b }(),
		"header again":  appendHeader(nil, storeHeader{Magic: storeMagic, Format: storeFormat, Wire: wire.Version, Engine: wire.EngineVersion}),
	} {
		dir := t.TempDir()
		s := open(t, dir)
		s.Insert("keep", cmpFor(1))
		s.Close()
		path := filepath.Join(dir, storeFile)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		framelog.Append(f, body)
		framelog.Append(f, good)
		f.Close()

		s = open(t, dir)
		_, kept := s.Lookup("keep")
		_, bad := s.Lookup("bad")
		_, after := s.Lookup("after")
		if !kept || bad || after {
			t.Errorf("%s: hits keep %v, bad %v, after %v; want only keep", name, kept, bad, after)
		}
		if st := s.Stats(); st.CorruptFrames != 1 || st.Entries != 1 {
			t.Errorf("%s: stats = %+v, want 1 corrupt frame and 1 entry", name, st)
		}
		s.Close()
		if after, err := os.Stat(path); err != nil || after.Size() != info.Size() {
			t.Errorf("%s: file not trimmed to its last good frame (err %v)", name, err)
		}
	}
}

// TestStoreOversizedFramePrefix appends a frame whose length prefix
// promises almost 4 GiB: the frame is a corrupt tail like any other tear,
// and opening the store must reject it from the file size rather than
// allocate the promised body first.
func TestStoreOversizedFramePrefix(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Insert("keep", cmpFor(1))
	s.Close()

	path := filepath.Join(dir, storeFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var pre [8]byte
	binary.BigEndian.PutUint32(pre[:4], 0xFFFFFFF0)
	f.Write(pre[:])
	f.Write([]byte{1, 2, 3, 4})
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s2 := open(t, dir)
	runtime.ReadMemStats(&after)
	defer s2.Close()
	if _, ok := s2.Lookup("keep"); !ok {
		t.Fatal("frame before the oversized prefix was lost")
	}
	if st := s2.Stats(); st.Entries != 1 || st.CorruptFrames != 1 {
		t.Fatalf("after oversized prefix, stats = %+v", st)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; !racecheck.Enabled && alloc > 16<<20 {
		t.Fatalf("Open allocated %d MiB for a 12-byte corrupt tail, want < 16 MiB", alloc>>20)
	}
}

// writeStore writes a store file in a fresh directory from raw frame
// bodies and returns the directory.
func writeStore(t *testing.T, bodies ...[]byte) string {
	t.Helper()
	var log bytes.Buffer
	for _, body := range bodies {
		if _, err := framelog.Append(&log, body); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, storeFile), log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestStoreForeignRefusal pins the refuse-loudly cases: a file written in
// a different store format, by a different engine generation or wire
// version, or not a result store at all.
func TestStoreForeignRefusal(t *testing.T) {
	cases := []struct {
		name, want string
		h          storeHeader
	}{
		{"foreign format", "use a fresh directory", storeHeader{Magic: storeMagic, Format: storeFormat + 1, Wire: wire.Version, Engine: wire.EngineVersion}},
		{"foreign engine", "use a fresh directory", storeHeader{Magic: storeMagic, Format: storeFormat, Wire: wire.Version, Engine: wire.EngineVersion + 1}},
		{"foreign wire", "use a fresh directory", storeHeader{Magic: storeMagic, Format: storeFormat, Wire: wire.Version + 1, Engine: wire.EngineVersion}},
		{"wrong magic", "not a turbulence result store", storeHeader{Magic: "something-else", Format: storeFormat, Wire: wire.Version, Engine: wire.EngineVersion}},
	}
	for _, tc := range cases {
		dir := writeStore(t, appendHeader(nil, tc.h))
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), dir) {
			t.Errorf("%s: Open = %v, want an error naming the path and saying %q", tc.name, err, tc.want)
		}
	}

	// Not a frame file at all.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, storeFile), []byte("hello world, not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("Open accepted an arbitrary file")
	}
}

// TestStoreRefusesGobFormat builds a store in the gob layout of store
// format 1 — each frame body a gob stream of the frame type below — and
// requires Open to refuse it, naming the path and asking for a fresh
// directory, and to leave the file as it was.
func TestStoreRefusesGobFormat(t *testing.T) {
	type storeHeader struct {
		Magic  string
		Wire   int
		Engine int
	}
	type storeEntry struct {
		Digest     string
		Comparison core.Comparison
	}
	type storeFrame struct {
		Header *storeHeader
		Entry  *storeEntry
	}
	var bodies [][]byte
	for _, fr := range []storeFrame{
		{Header: &storeHeader{Magic: storeMagic, Wire: wire.Version, Engine: wire.EngineVersion}},
		{Entry: &storeEntry{Digest: "d0", Comparison: *cmpFor(0)}},
	} {
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(fr); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body.Bytes())
	}
	dir := writeStore(t, bodies...)
	path := filepath.Join(dir, storeFile)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "gob store format") ||
		!strings.Contains(err.Error(), "use a fresh directory") {
		t.Fatalf("Open of a gob-format store = %v, want an error naming %s, the gob format and a fresh directory", err, path)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused gob-format store was modified (err %v)", err)
	}
}

// be64 appends v as 8 big-endian bytes.
func be64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// TestStoreFrameLayout pins the on-disk layout byte for byte: a store file
// built by hand, frame by frame [uint32 len][uint32 CRC32-IEEE][record],
// with the header record (magic, store format, wire version, engine
// generation) and then entry records (tag, digest, then every
// Comparison and FlowProfile field in declaration order; ints and
// lengths 8-byte big-endian, floats as IEEE bits, bools one byte), equals
// what the store writes, and opens with every entry served as a hit.
func TestStoreFrameLayout(t *testing.T) {
	str := func(b []byte, s string) []byte { return append(be64(b, uint64(len(s))), s...) }
	profile := func(b []byte, packets int, meanSize float64, cbr bool) []byte {
		b = be64(b, uint64(packets))            // Packets
		b = be64(b, 0)                          // Datagrams
		b = be64(b, math.Float64bits(meanSize)) // MeanSize
		for i := 0; i < 5; i++ {
			b = be64(b, 0) // SizeCV, MeanInterarrival, InterarrivalCV, FragShare, MeanTrain
		}
		b = be64(b, 0) // MaxWireSize
		b = be64(b, 0) // AvgRateBps
		b = be64(b, 0) // BurstRatio
		if cbr {
			return append(b, 1)
		}
		return append(b, 0)
	}
	var header []byte
	header = str(header, "turbulence-resultstore")
	header = be64(header, 2)
	header = be64(header, uint64(wire.Version))
	header = be64(header, uint64(wire.EngineVersion))
	bodies := [][]byte{header}
	for i := 0; i < 2; i++ {
		entry := []byte{'E'}
		entry = str(entry, "d"+strconv.Itoa(i))
		entry = be64(entry, uint64(i))
		entry = str(entry, "low")
		entry = profile(entry, i, float64(i)*1.5, false)
		entry = profile(entry, i*2, 0, true)
		bodies = append(bodies, entry)
	}
	var byHand bytes.Buffer
	for _, body := range bodies {
		byHand.Write(binary.BigEndian.AppendUint32(nil, uint32(len(body))))
		byHand.Write(binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(body)))
		byHand.Write(body)
	}

	dir := t.TempDir()
	s := open(t, dir)
	s.Insert("d0", cmpFor(0))
	s.Insert("d1", cmpFor(1))
	s.Close()
	written, err := os.ReadFile(filepath.Join(dir, storeFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, byHand.Bytes()) {
		t.Fatalf("store writes\n%x\nwant the hand-built\n%x", written, byHand.Bytes())
	}

	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, storeFile), byHand.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s = open(t, dir)
	defer s.Close()
	for i := 0; i < 2; i++ {
		got, ok := s.Lookup("d" + strconv.Itoa(i))
		if !ok || *got != *cmpFor(i) {
			t.Fatalf("entry d%d: got %+v (hit %v), want %+v", i, got, ok, cmpFor(i))
		}
	}
	if st := s.Stats(); st.Hits != 2 || st.CorruptFrames != 0 || st.Bytes != uint64(byHand.Len()) {
		t.Fatalf("hand-built store stats = %+v, want 2 hits, 0 corrupt, %d bytes", st, byHand.Len())
	}
}

// smokePlan is the dispatch-smoke plan (seed 7, 4 pairs, dsl) — reusing it
// here keeps the in-process cache pin and the CI cache-smoke job on the
// same cells.
func smokePlan(t *testing.T) *core.Plan {
	t.Helper()
	dsl, err := netem.Find("dsl")
	if err != nil {
		t.Fatal(err)
	}
	return core.NewPlan(7).
		ForPairs(
			core.PairKey{Set: 1, Class: media.Low},
			core.PairKey{Set: 3, Class: media.Low},
			core.PairKey{Set: 2, Class: media.High},
			core.PairKey{Set: 5, Class: media.High},
		).
		UnderScenarios(dsl)
}

func wireBytes(t *testing.T, results []core.RunResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteGob(&buf, wire.FromResults(results)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCachedSweepMatchesFresh is the acceptance pin: a warm rerun of an
// identical plan simulates zero cells yet merges byte-identical wire
// output to a fresh run, at every worker-pool shape.
func TestCachedSweepMatchesFresh(t *testing.T) {
	plan := smokePlan(t)
	fresh, err := core.NewRunner(
		core.WithWorkers(0),
		core.WithTraceRetention(core.StreamProfiles),
	).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	want := wireBytes(t, fresh)

	s := open(t, t.TempDir())
	defer s.Close()

	// Cold run populates the store — and must already match fresh bytes.
	cold, err := core.NewRunner(
		core.WithWorkers(1),
		core.WithTraceRetention(core.StreamProfiles),
		core.WithResultStore(s),
	).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wireBytes(t, cold), want) {
		t.Fatal("cold run through the store differs from a storeless run")
	}
	if st := s.Stats(); st.Entries != plan.Size() || st.Misses != uint64(plan.Size()) {
		t.Fatalf("cold run stats = %+v, want %d entries and misses", st, plan.Size())
	}

	for _, workers := range []int{1, 4, 0} { // 0 = all cores
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := s.Stats()
			var sw core.SweepStats
			warm, err := core.NewRunner(
				core.WithWorkers(workers),
				core.WithTraceRetention(core.StreamProfiles),
				core.WithResultStore(s),
				core.WithSweepStats(func(st core.SweepStats) { sw = st }),
			).Run(plan)
			if err != nil {
				t.Fatal(err)
			}
			if got := wireBytes(t, warm); !bytes.Equal(got, want) {
				t.Fatal("warm (cached) run is not byte-identical to the fresh run")
			}
			after := s.Stats()
			if hits := after.Hits - before.Hits; hits != uint64(plan.Size()) {
				t.Fatalf("warm run hits = %d, want %d", hits, plan.Size())
			}
			if after.Misses != before.Misses {
				t.Fatalf("warm run missed %d cells", after.Misses-before.Misses)
			}
			// Zero simulations: no testbed was ever built or reused.
			if sw.TestbedsBuilt != 0 || sw.TestbedsReused != 0 {
				t.Fatalf("warm run simulated: %+v", sw)
			}
		})
	}
}

// TestStoreDigestSensitivity pins what the content address covers: seed,
// pair, effective options and scenario all change the digest; the plan's
// labels (variant name, Index) do not exist in it at all.
func TestStoreDigestSensitivity(t *testing.T) {
	pair := core.PairKey{Set: 1, Class: media.Low}
	dsl, err := netem.Find("dsl")
	if err != nil {
		t.Fatal(err)
	}
	base := wire.CellSpecFrom(pair, core.Options{}, 7).Digest()
	distinct := map[string]string{"base": base}
	add := func(name, d string) {
		for prev, pd := range distinct {
			if pd == d {
				t.Errorf("%s digest collides with %s", name, prev)
			}
		}
		distinct[name] = d
	}
	add("seed", wire.CellSpecFrom(pair, core.Options{}, 8).Digest())
	add("pair", wire.CellSpecFrom(core.PairKey{Set: 3, Class: media.Low}, core.Options{}, 7).Digest())
	add("options", wire.CellSpecFrom(pair, core.Options{Sequential: true}, 7).Digest())
	add("scenario", wire.CellSpecFrom(pair, core.Options{Scenario: dsl}, 7).Digest())
}
