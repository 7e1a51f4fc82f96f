package dispatch

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"turbulence/internal/core"
	"turbulence/internal/media"
	"turbulence/internal/racecheck"
	"turbulence/internal/wire"
)

// completeShards leases and completes n shards on c with protocol-valid
// batches, returning the completed shard ids.
func completeShards(t *testing.T, c *Coordinator, plan *core.Plan, n int) []int {
	t.Helper()
	var done []int
	for i := 0; i < n; i++ {
		g, _ := c.Lease("t")
		if g.LeaseID == "" {
			t.Fatalf("no lease for completion %d: %+v", i, g)
		}
		if err := c.Complete(g.LeaseID, batchFor(plan, g.Shard, g.Shards)); err != nil {
			t.Fatal(err)
		}
		done = append(done, g.Shard)
	}
	return done
}

// appendRaw appends b to the file at path, as a crash or a bad disk would.
func appendRaw(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// rawFrame builds a frame by hand: [uint32 n][uint32 sum][body].
func rawFrame(n, sum uint32, body []byte) []byte {
	fr := binary.BigEndian.AppendUint32(nil, n)
	fr = binary.BigEndian.AppendUint32(fr, sum)
	return append(fr, body...)
}

// TestCheckpointResumeReplaysCompletions pins the happy recovery path:
// a coordinator journals two of three shards and dies; a successor on the
// same path (or via Resume, which needs only the path) replays them, leases
// out only the third, and a later coordinator on the finished journal has
// nothing to do. A -shards disagreement is overridden by the journal's
// carve — completion frames index into it.
func TestCheckpointResumeReplaysCompletions(t *testing.T) {
	plan := testPlan(t)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")

	c1, err := New(plan, WithShards(3), WithCheckpoint(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	finished := completeShards(t, c1, plan, 2)
	c1.Close() // release the handle; the "crash" already happened fsync-wise

	c2, err := New(plan, WithShards(3), WithCheckpoint(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if pending, leased, done := c2.Counts(); done != 2 || pending != 1 || leased != 0 {
		t.Fatalf("resumed counts: pending=%d leased=%d done=%d, want 1/0/2", pending, leased, done)
	}
	g, _ := c2.Lease("t")
	if g.LeaseID == "" {
		t.Fatalf("resumed coordinator issued no lease: %+v", g)
	}
	for _, s := range finished {
		if g.Shard == s {
			t.Fatalf("resumed coordinator re-leased completed shard %d", s)
		}
	}
	if err := c2.Complete(g.LeaseID, batchFor(plan, g.Shard, g.Shards)); err != nil {
		t.Fatal(err)
	}
	if !c2.Done() {
		t.Fatal("sweep not done after the last shard")
	}
	c2.Close()

	// Resume needs only the path: the plan comes out of the journal.
	c3, err := Resume(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if !c3.Done() {
		t.Fatal("Resume of a finished journal is not done")
	}
	if g, _ := c3.Lease("t"); !g.Done {
		t.Fatalf("finished sweep still leasing: %+v", g)
	}
	if got := len(c3.Collected()); got != plan.Size() {
		t.Fatalf("resumed merge holds %d runs, want %d", got, plan.Size())
	}

	// A requested carve that disagrees with the journal loses.
	c4, err := New(plan, WithShards(5), WithCheckpoint(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	defer c4.Close()
	if c4.shards != 3 {
		t.Fatalf("journal carve not honoured: %d shards, want 3", c4.shards)
	}
}

// TestCheckpointRefusesDifferentSweep pins the digest guard: a journal
// written for one plan must never be replayed into a sweep of another.
func TestCheckpointRefusesDifferentSweep(t *testing.T) {
	plan := testPlan(t)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	c1, err := New(plan, WithShards(3), WithCheckpoint(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	completeShards(t, c1, plan, 1)
	c1.Close()

	other := core.NewPlan(8). // different seed, same axes: different sweep
					ForPairs(core.PairKey{Set: 1, Class: media.Low})
	if _, err := New(other, WithShards(3), WithCheckpoint(ckpt)); err == nil || !contains(err.Error(), "different sweep") {
		t.Fatalf("digest mismatch not refused: %v", err)
	}
}

// TestCheckpointTornTailTolerated pins the crash-mid-append contract: a
// file ending inside a frame replays everything before the tear; replay
// then keeps journalling new completions behind the (overwritten) tear.
func TestCheckpointTornTailTolerated(t *testing.T) {
	plan := testPlan(t)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	c1, err := New(plan, WithShards(3), WithCheckpoint(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	completeShards(t, c1, plan, 1)
	c1.Close()

	// The crash: a completion frame cut three bytes into its body.
	var whole bytes.Buffer
	if _, err := writeFrame(&whole, journalFrame{Complete: &journalComplete{Shard: 2, Runs: batchFor(plan, 2, 3)}}); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, ckpt, whole.Bytes()[:8+3])

	c2, err := New(plan, WithShards(3), WithCheckpoint(ckpt))
	if err != nil {
		t.Fatalf("torn tail refused: %v", err)
	}
	if _, _, done := c2.Counts(); done != 1 {
		t.Fatalf("replayed %d shards through the torn tail, want 1", done)
	}

	// Crash → resume → crash: the resumed coordinator appends behind the
	// (truncated) tear; the next resume must replay both the old and the
	// new completions, not read the tear as a frame spanning into them.
	completeShards(t, c2, plan, 1)
	c2.Close()
	c3, err := New(plan, WithShards(3), WithCheckpoint(ckpt))
	if err != nil {
		t.Fatalf("journal unreadable after resume appended past a tear: %v", err)
	}
	defer c3.Close()
	if _, _, done := c3.Counts(); done != 2 {
		t.Fatalf("second resume replayed %d shards, want 2", done)
	}
	completeShards(t, c3, plan, 1)
	if !c3.Done() {
		t.Fatal("sweep not done after the last shard")
	}
}

// TestCheckpointOversizedFramePrefix appends a frame prefix promising
// almost 4 GiB: replay must treat it as the torn tail it is — keeping the
// completions before it — and reject it from the file size rather than
// allocate the promised body first.
func TestCheckpointOversizedFramePrefix(t *testing.T) {
	plan := testPlan(t)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	c1, err := New(plan, WithShards(3), WithCheckpoint(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	completeShards(t, c1, plan, 1)
	c1.Close()

	appendRaw(t, ckpt, rawFrame(0xFFFFFFF0, 0x01020304, []byte{1, 2, 3, 4, 5, 6, 7, 8}))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, done, _, err := readJournal(ckpt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("oversized prefix refused instead of treated as a torn tail: %v", err)
	}
	if len(done) != 1 {
		t.Fatalf("replayed %d completions through the oversized prefix, want 1", len(done))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; !racecheck.Enabled && alloc > 16<<20 {
		t.Fatalf("replay allocated %d MiB for a 16-byte torn tail, want < 16 MiB", alloc>>20)
	}

	c2, err := New(plan, WithShards(3), WithCheckpoint(ckpt))
	if err != nil {
		t.Fatalf("oversized prefix refused: %v", err)
	}
	defer c2.Close()
	if _, _, done := c2.Counts(); done != 1 {
		t.Fatalf("resumed with %d shards done, want 1", done)
	}
}

// TestCheckpointRefusesGarbage pins the corruption guards: a file that is
// not a checkpoint at all, a journal in the layout that predates frame
// checksums, and a journal holding a whole frame of garbage — one failing
// its checksum, one whose checksum holds but whose gob does not decode —
// all refuse: resuming a half-trusted sweep silently is the one thing the
// journal must never do.
func TestCheckpointRefusesGarbage(t *testing.T) {
	plan := testPlan(t)
	dir := t.TempDir()

	notCkpt := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(notCkpt, []byte("these are not the frames you are looking for"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(plan, WithCheckpoint(notCkpt)); err == nil {
		t.Fatal("arbitrary file accepted as a checkpoint")
	}
	if _, err := Resume(notCkpt); err == nil {
		t.Fatal("arbitrary file accepted by Resume")
	}

	// The pre-checksum layout, [uint32 len][gob body] per frame.
	var old bytes.Buffer
	spec := wire.PlanSpecOf(plan)
	for _, fr := range []journalFrame{
		{Header: &journalHeader{Magic: journalMagic, Version: wire.Version, Digest: spec.Digest(), Spec: spec, Shards: 3}},
		{Complete: &journalComplete{Shard: 0, Runs: batchFor(plan, 0, 3)}},
	} {
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(fr); err != nil {
			t.Fatal(err)
		}
		old.Write(binary.BigEndian.AppendUint32(nil, uint32(body.Len())))
		old.Write(body.Bytes())
	}
	oldCkpt := filepath.Join(dir, "old.ckpt")
	if err := os.WriteFile(oldCkpt, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(plan, WithShards(3), WithCheckpoint(oldCkpt)); err == nil || !contains(err.Error(), "unreadable header") {
		t.Fatalf("pre-checksum journal not refused as unreadable: %v", err)
	}
	if _, err := Resume(oldCkpt); err == nil || !contains(err.Error(), "unreadable header") {
		t.Fatalf("pre-checksum journal not refused by Resume as unreadable: %v", err)
	}

	// A whole frame of garbage is corruption, not a torn tail.
	garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef}
	for name, frame := range map[string][]byte{
		"checksum mismatch":   rawFrame(8, 0, garbage),
		"gob does not decode": rawFrame(8, crc32.ChecksumIEEE(garbage), garbage),
	} {
		ckpt := filepath.Join(dir, name+".ckpt")
		c1, err := New(plan, WithShards(3), WithCheckpoint(ckpt))
		if err != nil {
			t.Fatal(err)
		}
		completeShards(t, c1, plan, 1)
		c1.Close()
		appendRaw(t, ckpt, frame)
		if _, err := New(plan, WithShards(3), WithCheckpoint(ckpt)); err == nil {
			t.Fatalf("%s: corrupt frame replayed as if valid", name)
		}
	}
}

// TestCheckpointRefusesBitFlips flips one bit in each byte of a journal's
// last completion frame, one flip per file — its length, its checksum and
// its body alike. Every flipped file must be refused at resume: a flip in
// the body or checksum fails the checksum, a shortened length fails it
// over the bytes it covers, and a lengthened one overruns the file with a
// whole body behind it, which a crash mid-append cannot leave.
func TestCheckpointRefusesBitFlips(t *testing.T) {
	plan := testPlan(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	c1, err := New(plan, WithShards(3), WithCheckpoint(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	completeShards(t, c1, plan, 1)
	st, err := os.Stat(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	start := int(st.Size()) // the last completion frame begins here
	completeShards(t, c1, plan, 1)
	c1.Close()
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	flipped := filepath.Join(dir, "flipped.ckpt")
	for i := start; i < len(raw); i++ {
		b := bytes.Clone(raw)
		b[i] ^= 1 << (i % 8)
		if err := os.WriteFile(flipped, b, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := New(plan, WithShards(3), WithCheckpoint(flipped))
		if err == nil {
			_, _, done := c.Counts()
			c.Close()
			t.Fatalf("bit %d of byte %d (frame offset %d of %d) flipped: resumed with %d shards done, want refusal",
				i%8, i, i-start, len(raw)-start, done)
		}
	}
}

// TestCheckpointRefusesLengthFlipBeforeLastFrame flips bit 0 of the first
// completion frame's length, with a second completion behind it: the
// grown length overruns the file, but a whole body that checks out sits
// in the bytes left, which a crash mid-append cannot leave. Resume must
// refuse rather than read it as a torn tail and trim the finished shards
// behind it away.
func TestCheckpointRefusesLengthFlipBeforeLastFrame(t *testing.T) {
	plan := testPlan(t)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	c1, err := New(plan, WithShards(3), WithCheckpoint(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	completeShards(t, c1, plan, 2)
	c1.Close()
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	first := 8 + int(binary.BigEndian.Uint32(raw)) // past the header frame
	raw[first] ^= 0x01
	if err := os.WriteFile(ckpt, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if c, err := New(plan, WithShards(3), WithCheckpoint(ckpt)); err == nil {
		_, _, done := c.Counts()
		c.Close()
		t.Fatalf("length flip before the last frame resumed with %d shards done, want refusal", done)
	}
	st, err := os.Stat(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(len(raw)) {
		t.Fatalf("refused checkpoint shrank from %d to %d bytes", len(raw), st.Size())
	}
}

// TestCheckpointRefusesDuplicateCell pins replay's use of the collector's
// validator: a completion frame whose batch has the right count but
// repeats a cell Index is corruption, refused at resume rather than
// replayed into the merge.
func TestCheckpointRefusesDuplicateCell(t *testing.T) {
	plan := testPlan(t)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	c1, err := New(plan, WithShards(2), WithCheckpoint(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	runs := batchFor(plan, 0, 2)
	runs[len(runs)-1].Index = runs[0].Index
	c1.journal.appendFrame(journalFrame{Complete: &journalComplete{Shard: 0, Runs: runs}})
	c1.Close()
	if _, err := New(plan, WithShards(2), WithCheckpoint(ckpt)); err == nil {
		t.Fatal("frame repeating a cell Index replayed as if valid")
	}
}
