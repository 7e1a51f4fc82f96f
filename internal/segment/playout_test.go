package segment

import (
	"testing"
	"time"
)

// deliver hands the playout one packet per frame in [from, to), each
// carrying the whole frame as a single segment, skipping the listed
// frames.
func deliver(t *testing.T, pl *Playout, from, to int, skip ...int) {
	t.Helper()
next:
	for f := from; f < to; f++ {
		for _, s := range skip {
			if f == s {
				continue next
			}
		}
		list := EncodeList([]Segment{{FrameIndex: uint32(f), Length: 100, Last: true}})
		if err := pl.Receive(list); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPlayoutSeconds(t *testing.T) {
	type second struct {
		played, expected int
		done             bool
	}
	cases := []struct {
		name     string
		fps      float64
		total    int
		duration time.Duration
		// before runs ahead of each played second (index = second).
		before   []func(t *testing.T, pl *Playout)
		want     []second
		achieved float64 // AchievedFPS at the end
	}{
		{
			// int(s*12.9) boundaries: 0, 12, 25, 38.
			name: "fractional rate", fps: 12.9, total: 1000, duration: 3 * time.Second,
			before: []func(*testing.T, *Playout){
				func(t *testing.T, pl *Playout) { deliver(t, pl, 0, 50) },
			},
			want:     []second{{12, 12, false}, {13, 13, false}, {13, 13, true}},
			achieved: 38.0 / 3,
		},
		{
			// The last second's share is cut at the clip's 25 frames; the
			// duration ends the clip in the same second.
			name: "truncated at total frames", fps: 10, total: 25, duration: 3 * time.Second,
			before: []func(*testing.T, *Playout){
				func(t *testing.T, pl *Playout) { deliver(t, pl, 0, 40) },
			},
			want:     []second{{10, 10, false}, {10, 10, false}, {5, 5, true}},
			achieved: 25.0 / 3,
		},
		{
			// Frames run out on a second boundary before the duration: the
			// empty second ends the clip.
			name: "frames run out", fps: 10, total: 20, duration: 5 * time.Second,
			before: []func(*testing.T, *Playout){
				func(t *testing.T, pl *Playout) { deliver(t, pl, 0, 20) },
			},
			want:     []second{{10, 10, false}, {10, 10, false}, {0, 0, true}},
			achieved: 20.0 / 3,
		},
		{
			// A described duration outlasting the frames: the frames run
			// out inside second 2, and the next second, which starts past
			// the last frame, is due none and ends the clip. The tallies
			// read 10, 20, 25, 25.
			name: "duration outlasts frames", fps: 10, total: 25, duration: 10 * time.Second,
			before: []func(*testing.T, *Playout){
				func(t *testing.T, pl *Playout) { deliver(t, pl, 0, 25) },
			},
			want:     []second{{10, 10, false}, {10, 10, false}, {5, 5, false}, {0, 0, true}},
			achieved: 25.0 / 4,
		},
		{
			// Frames remain, but the clip's duration is over.
			name: "ends at duration", fps: 25, total: 3000, duration: 2 * time.Second,
			before: []func(*testing.T, *Playout){
				func(t *testing.T, pl *Playout) { deliver(t, pl, 0, 100) },
			},
			want:     []second{{25, 25, false}, {25, 25, true}},
			achieved: 25,
		},
		{
			// Frame 5 misses second 0 and completes during second 1,
			// after its second played, so it never counts. Frame 12
			// never arrives.
			name: "late frame not played", fps: 10, total: 30, duration: 3 * time.Second,
			before: []func(*testing.T, *Playout){
				func(t *testing.T, pl *Playout) { deliver(t, pl, 0, 10, 5) },
				func(t *testing.T, pl *Playout) { deliver(t, pl, 5, 20, 6, 7, 8, 9, 12) },
				func(t *testing.T, pl *Playout) { deliver(t, pl, 20, 30) },
			},
			want:     []second{{9, 10, false}, {9, 10, false}, {10, 10, true}},
			achieved: 28.0 / 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := NewPlayout()
			defer pl.Release()
			pl.SetClock(tc.fps, tc.total, tc.duration)
			if pl.AchievedFPS() != 0 {
				t.Fatal("AchievedFPS before playout is not 0")
			}
			var played, expected int
			for i, w := range tc.want {
				if i < len(tc.before) {
					tc.before[i](t, &pl)
				}
				if pl.Second() != i {
					t.Fatalf("Second() = %d before second %d", pl.Second(), i)
				}
				p, e, done := pl.PlaySecond()
				if (second{p, e, done}) != w {
					t.Fatalf("second %d: played, expected, done = %d, %d, %t; want %+v", i, p, e, done, w)
				}
				played += p
				expected += e
				if pl.FramesPlayed != played || pl.FramesExpected != expected {
					t.Fatalf("after second %d: tallies %d/%d, want %d/%d", i, pl.FramesPlayed, pl.FramesExpected, played, expected)
				}
			}
			if pl.FramesPlayed != played || pl.FramesExpected != expected {
				t.Fatalf("tallies %d/%d, want %d/%d", pl.FramesPlayed, pl.FramesExpected, played, expected)
			}
			if got := pl.AchievedFPS(); got != tc.achieved {
				t.Fatalf("AchievedFPS = %v, want %v", got, tc.achieved)
			}
		})
	}
}

func TestPlayoutBuffered(t *testing.T) {
	pl := NewPlayout()
	defer pl.Release()
	deliver(t, &pl, 0, 129)
	if pl.Buffered() != 0 {
		t.Fatalf("Buffered() = %v before the clock is set, want 0", pl.Buffered())
	}
	pl.SetClock(12.9, 1000, time.Minute)
	if got := pl.Buffered(); got != 10*time.Second {
		t.Fatalf("Buffered() = %v for 129 frames at 12.9 fps, want 10s", got)
	}
	if pl.CompletedFrames() != 129 {
		t.Fatalf("CompletedFrames() = %d, want 129", pl.CompletedFrames())
	}
	// A corrupt list adds nothing and reports the decode error.
	if err := pl.Receive([]byte{1}); err == nil || pl.CompletedFrames() != 129 {
		t.Fatalf("corrupt list: err=%v completed=%d", err, pl.CompletedFrames())
	}
}
