package segment

import "time"

// Preroll is the delay buffer both players fill before starting playout:
// the paper compares MediaPlayer and RealPlayer with equal buffer sizes
// (§3.F). The WMS server streams at exactly the playout rate, so a
// MediaPlayer user waits about this long; RealServer's buffering burst
// fills the same depth roughly three times faster, so RealPlayer starts
// sooner.
const Preroll = 5 * time.Second

// Playout is a player's media sink and playout clock: it decodes received
// segment lists into the frame assembler and, once a second, plays the
// frames due in that second, counting those that arrived complete in
// time. Both players hold one by value, so the frame arithmetic behind
// Figures 13–15 is the same code for MediaPlayer and RealPlayer. The zero
// value is not ready; start from NewPlayout.
type Playout struct {
	asm *Assembler
	// scratch is the per-packet segment-decode buffer, reused so the
	// receive path does not allocate per packet.
	scratch []Segment

	fps         float64
	totalFrames int
	duration    time.Duration
	second      int // the next second to play

	// FramesPlayed counts frames that were complete when their second
	// played; FramesExpected counts every frame due so far.
	FramesPlayed   int
	FramesExpected int
}

// NewPlayout returns a playout holding a pooled assembler.
func NewPlayout() Playout { return Playout{asm: NewAssembler()} }

// SetClock installs the described stream's frame rate, frame count and
// duration. Call it once the stream is described, before playout starts.
func (pl *Playout) SetClock(fps float64, totalFrames int, duration time.Duration) {
	pl.fps = fps
	pl.totalFrames = totalFrames
	pl.duration = duration
}

// Receive decodes one packet's segment list into the assembler. On a
// corrupt list it adds nothing and returns the decode error.
func (pl *Playout) Receive(segPayload []byte) error {
	segs, err := DecodeListInto(pl.scratch[:0], segPayload)
	if err != nil {
		return err
	}
	pl.scratch = segs
	for _, s := range segs {
		pl.asm.Add(s)
	}
	return nil
}

// CompletedFrames reports how many frames have fully arrived.
func (pl *Playout) CompletedFrames() int { return pl.asm.CompletedFrames }

// Buffered estimates how much media is in the delay buffer: completed
// frames convert to seconds at the encoded frame rate.
func (pl *Playout) Buffered() time.Duration {
	if pl.fps == 0 {
		return 0
	}
	sec := float64(pl.asm.CompletedFrames) / pl.fps
	return time.Duration(sec * float64(time.Second))
}

// Second reports the index of the next second PlaySecond plays.
func (pl *Playout) Second() int { return pl.second }

// PlaySecond advances the clock by one second. The frames due in it —
// the fractional rate's share, truncated at the clip's frame count —
// count as played if complete and are then forgotten, so a frame that
// completes late never counts. done reports that the clip's duration or
// its frames have run out. A second that starts past the last frame is
// due none, so the tallies never shrink when a described duration
// outlasts the described frames.
func (pl *Playout) PlaySecond() (played, expected int, done bool) {
	from := int(float64(pl.second) * pl.fps)
	to := int(float64(pl.second+1) * pl.fps)
	to = max(min(to, pl.totalFrames), from)
	for f := from; f < to; f++ {
		if pl.asm.Complete(uint32(f)) {
			played++
		}
		pl.asm.Drop(uint32(f))
	}
	pl.FramesPlayed += played
	pl.FramesExpected += to - from
	pl.second++
	return played, to - from, float64(pl.second) >= pl.duration.Seconds() || from >= to
}

// AchievedFPS reports the mean played frame rate.
func (pl *Playout) AchievedFPS() float64 {
	if pl.second == 0 {
		return 0
	}
	return float64(pl.FramesPlayed) / float64(pl.second)
}

// Release returns the assembler to the package pool. Call only after the
// event loop has fully drained: a packet delivered afterwards would touch
// recycled state (and panics loudly instead).
func (pl *Playout) Release() {
	if pl.asm != nil {
		pl.asm.Release()
		pl.asm = nil
	}
}
