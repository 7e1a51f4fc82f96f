package dispatch

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"turbulence/internal/core"
	"turbulence/internal/media"
	"turbulence/internal/racecheck"
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

	// The crash: a length prefix promising 64 bytes, then only 3.
	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var pre [4]byte
	binary.BigEndian.PutUint32(pre[:], 64)
	f.Write(pre[:])
	f.Write([]byte{1, 2, 3})
	f.Close()

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

// TestCheckpointOversizedFramePrefix appends a length prefix promising
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

	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var pre [4]byte
	binary.BigEndian.PutUint32(pre[:], 0xFFFFFFF0)
	f.Write(pre[:])
	f.Write([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Close()

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
		t.Fatalf("replay allocated %d MiB for a 12-byte torn tail, want < 16 MiB", alloc>>20)
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
// not a checkpoint at all, and a journal holding a whole frame of garbage,
// both refuse — resuming a half-trusted sweep silently is the one thing
// the journal must never do.
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

	// A whole frame that decodes to garbage is corruption, not a torn tail.
	ckpt := filepath.Join(dir, "sweep.ckpt")
	c1, err := New(plan, WithShards(3), WithCheckpoint(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	completeShards(t, c1, plan, 1)
	c1.Close()
	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var pre [4]byte
	binary.BigEndian.PutUint32(pre[:], 8)
	f.Write(pre[:])
	f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef})
	f.Close()
	if _, err := New(plan, WithShards(3), WithCheckpoint(ckpt)); err == nil {
		t.Fatal("corrupt frame replayed as if valid")
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
