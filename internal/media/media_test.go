package media

import (
	"math"
	"testing"
	"time"

	"turbulence/internal/racecheck"
)

func TestLibraryMatchesTable1(t *testing.T) {
	lib := Library()
	if len(lib) != 6 {
		t.Fatalf("sets=%d, want 6", len(lib))
	}
	if len(AllClips()) != 26 {
		t.Fatalf("clips=%d, want 26", len(AllClips()))
	}
	// Spot-check exact Table 1 rates.
	checks := []struct {
		set   int
		f     Format
		class Class
		kbps  float64
	}{
		{1, Real, High, 284.0},
		{1, WindowsMedia, High, 323.1},
		{1, Real, Low, 36.0},
		{1, WindowsMedia, Low, 49.8},
		{2, Real, Low, 84.0},
		{2, WindowsMedia, Low, 102.3},
		{4, Real, High, 180.9},
		{5, WindowsMedia, High, 250.4},
		{5, Real, Low, 22.0},
		{6, Real, VeryHigh, 636.9},
		{6, WindowsMedia, VeryHigh, 731.3},
		{6, WindowsMedia, Low, 102.3},
	}
	for _, c := range checks {
		clip, ok := FindClip(c.set, c.f, c.class)
		if !ok {
			t.Fatalf("clip %d/%v/%v missing", c.set, c.f, c.class)
		}
		if clip.EncodedKbps != c.kbps {
			t.Fatalf("%s rate=%v, want %v", clip.Name(), clip.EncodedKbps, c.kbps)
		}
	}
	// Only set 6 has the very-high pair.
	for _, s := range lib {
		_, hasV := s.Pairs[VeryHigh]
		if hasV != (s.Set == 6) {
			t.Fatalf("set %d very-high presence wrong", s.Set)
		}
	}
}

func TestRealAlwaysEncodesBelowWindowsMedia(t *testing.T) {
	// Paper §3.B: "for the same advertised data rate, the RealPlayer clips
	// always have a lower encoding rate than the corresponding MediaPlayer
	// clip."
	for _, s := range Library() {
		for _, class := range s.Classes() {
			p := s.Pairs[class]
			if p.Real.EncodedKbps >= p.WindowsMedia.EncodedKbps {
				t.Fatalf("set %d %v: Real %v >= WMP %v", s.Set, class,
					p.Real.EncodedKbps, p.WindowsMedia.EncodedKbps)
			}
		}
	}
}

func TestDurationsMatchTable1(t *testing.T) {
	wants := map[int]time.Duration{
		2: 39 * time.Second,
		3: 60 * time.Second,
		4: 4*time.Minute + 5*time.Second,
		5: time.Minute + 47*time.Second,
		6: 2*time.Minute + 27*time.Second,
	}
	for set, want := range wants {
		p, ok := FindPair(set, Low)
		if !ok || p.Real.Duration != want || p.WindowsMedia.Duration != want {
			t.Fatalf("set %d durations=%v/%v, want %v", set, p.Real.Duration, p.WindowsMedia.Duration, want)
		}
	}
	// Every duration is within the paper's 30 s - 5 min selection rule.
	for _, s := range Library() {
		if s.Duration < 30*time.Second || s.Duration > 5*time.Minute {
			t.Fatalf("set %d duration %v outside selection range", s.Set, s.Duration)
		}
	}
}

func TestFrameRateLadder(t *testing.T) {
	low, _ := FindClip(5, WindowsMedia, Low) // 39 Kbps
	if low.FrameRate() != 13 {
		t.Fatalf("WMP low fps=%v, want 13 (paper Fig 13)", low.FrameRate())
	}
	rlow, _ := FindClip(5, Real, Low) // 22 Kbps
	if rlow.FrameRate() <= low.FrameRate() {
		t.Fatal("Real low fps must exceed WMP low fps")
	}
	high, _ := FindClip(5, WindowsMedia, High)
	rhigh, _ := FindClip(5, Real, High)
	if high.FrameRate() != 25 || rhigh.FrameRate() != 25 {
		t.Fatal("high-rate clips must reach full motion 25 fps")
	}
}

func TestFramesDeterministic(t *testing.T) {
	c, _ := FindClip(1, Real, High)
	a, b := c.Frames(), c.Frames()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("frame counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d differs across generations", i)
		}
	}
}

func TestFramesBudget(t *testing.T) {
	for _, c := range AllClips() {
		frames := c.Frames()
		if len(frames) != c.TotalFrames() {
			t.Fatalf("%s frames=%d, want %d", c.Name(), len(frames), c.TotalFrames())
		}
		var total float64
		for _, f := range frames {
			total += float64(f.Bytes)
		}
		// Total bytes must track the encoded rate within 15%.
		want := c.EncodedBps() / 8 * c.Duration.Seconds()
		if math.Abs(total-want)/want > 0.15 {
			t.Fatalf("%s generated %.0f bytes, want ~%.0f", c.Name(), total, want)
		}
	}
}

func TestFrameShapeByFormat(t *testing.T) {
	wmp, _ := FindClip(1, WindowsMedia, High)
	real_, _ := FindClip(1, Real, High)
	cv := func(frames []Frame) float64 {
		var sum, sumSq float64
		for _, f := range frames {
			sum += float64(f.Bytes)
		}
		mean := sum / float64(len(frames))
		for _, f := range frames {
			d := float64(f.Bytes) - mean
			sumSq += d * d
		}
		return math.Sqrt(sumSq/float64(len(frames))) / mean
	}
	wmpCV, realCV := cv(wmp.Frames()), cv(real_.Frames())
	if wmpCV >= realCV {
		t.Fatalf("WMP frame-size CV %.3f should be below Real's %.3f", wmpCV, realCV)
	}
	if wmpCV > 0.1 {
		t.Fatalf("WMP frames not CBR-like: CV=%.3f", wmpCV)
	}
	if realCV < 0.2 {
		t.Fatalf("Real frames not VBR-like: CV=%.3f", realCV)
	}
}

func TestFrameTimingAndKeys(t *testing.T) {
	c, _ := FindClip(3, Real, Low)
	frames := c.Frames()
	frameDur := time.Duration(float64(time.Second) / c.FrameRate())
	for i, f := range frames {
		if f.Index != i {
			t.Fatalf("index %d", i)
		}
		if f.PTS != time.Duration(i)*frameDur {
			t.Fatalf("PTS of frame %d = %v", i, f.PTS)
		}
		if (i%GOPSize == 0) != f.Key {
			t.Fatalf("keyframe flag wrong at %d", i)
		}
		if f.Bytes < 64 {
			t.Fatalf("frame %d below floor", i)
		}
	}
}

func TestNamesAndStrings(t *testing.T) {
	c, _ := FindClip(6, Real, VeryHigh)
	if c.Name() != "6/R-v" {
		t.Fatalf("Name=%q", c.Name())
	}
	m, _ := FindClip(2, WindowsMedia, Low)
	if m.Name() != "2/M-l" {
		t.Fatalf("Name=%q", m.Name())
	}
	if c.String() == "" || Real.String() == "" || WindowsMedia.String() == "" {
		t.Fatal("strings")
	}
	for _, cl := range []Class{Low, High, VeryHigh} {
		if cl.String() == "" || cl.Suffix() == "" || cl.AdvertisedKbps() <= 0 {
			t.Fatal("class accessors")
		}
	}
	for _, ct := range []Content{Sports, Commercial, MusicTV, News, Movie} {
		if ct.String() == "" {
			t.Fatal("content string")
		}
	}
}

func TestFindMisses(t *testing.T) {
	if _, ok := FindPair(99, Low); ok {
		t.Fatal("found ghost pair")
	}
	if _, ok := FindClip(99, Real, Low); ok {
		t.Fatal("found ghost clip")
	}
	if _, ok := FindClip(1, Real, VeryHigh); ok {
		t.Fatal("set 1 has no very-high pair")
	}
}

// TestLookupsAllocFree pins that pair and clip lookups read the Table 1
// built once at package init instead of rebuilding the library per call:
// the Runner looks a pair up for every cell it orders and runs.
func TestLookupsAllocFree(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation pin: race instrumentation inflates counts")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := FindPair(6, VeryHigh); !ok {
			t.Fatal("6/very-high missing")
		}
		if _, ok := FindClip(1, WindowsMedia, Low); !ok {
			t.Fatal("M-1l missing")
		}
	})
	if allocs != 0 {
		t.Fatalf("a pair and a clip lookup allocate %.0f objects, want 0", allocs)
	}
}

// TestLibraryCopiesAreIsolated pins that no caller can edit the shared
// lookup table through the library it is handed.
func TestLibraryCopiesAreIsolated(t *testing.T) {
	lib := Library()
	delete(lib[0].Pairs, Low)
	lib[5].Pairs[VeryHigh] = Pair{}
	if _, ok := FindPair(1, Low); !ok {
		t.Fatal("deleting from a Library copy removed 1/low from the lookups")
	}
	if p, _ := FindPair(6, VeryHigh); p.Real.EncodedKbps != 636.9 {
		t.Fatalf("editing a Library copy changed 6/very-high to %+v", p)
	}
}

func TestMeanFrameBytes(t *testing.T) {
	c, _ := FindClip(5, WindowsMedia, High) // 250.4 Kbps at 25 fps
	want := int(250400.0 / 25 / 8)
	if got := c.MeanFrameBytes(); got != want {
		t.Fatalf("MeanFrameBytes=%d, want %d", got, want)
	}
}
