package media

import (
	"time"
)

// ClipSet is one row group of Table 1: the same content served by the same
// site in both formats at one or more paired rates.
type ClipSet struct {
	Set      int
	Content  Content
	Duration time.Duration
	// Pairs maps each class present in the set to its (Real, WindowsMedia)
	// clip pair. Sets 1-5 have Low and High; set 6 adds VeryHigh.
	Pairs map[Class]Pair
}

// Pair is the Real/WindowsMedia encoding of the same content at the same
// advertised rate.
type Pair struct {
	Real, WindowsMedia Clip
}

// Classes lists the classes present in the set in ascending order.
func (s ClipSet) Classes() []Class {
	var out []Class
	for _, c := range []Class{Low, High, VeryHigh} {
		if _, ok := s.Pairs[c]; ok {
			out = append(out, c)
		}
	}
	return out
}

// Clips lists every clip in the set (Real then WindowsMedia per class).
func (s ClipSet) Clips() []Clip {
	var out []Clip
	for _, c := range s.Classes() {
		p := s.Pairs[c]
		out = append(out, p.Real, p.WindowsMedia)
	}
	return out
}

// makeSet assembles a ClipSet from per-class encoded rates.
func makeSet(set int, content Content, dur time.Duration, rates map[Class][2]float64) ClipSet {
	s := ClipSet{Set: set, Content: content, Duration: dur, Pairs: make(map[Class]Pair)}
	for class, r := range rates {
		s.Pairs[class] = Pair{
			Real:         Clip{Set: set, Format: Real, Class: class, Content: content, EncodedKbps: r[0], Duration: dur},
			WindowsMedia: Clip{Set: set, Format: WindowsMedia, Class: class, Content: content, EncodedKbps: r[1], Duration: dur},
		}
	}
	return s
}

// Library returns the paper's Table 1 experiment data sets: six sets, 26
// clips in total, with the exact encoded rates the trackers captured.
//
// The OCR of Table 1 omits the duration of set 1; we use 2:00, in the
// middle of the paper's stated 30 s - 5 min selection range (documented in
// DESIGN.md).
func Library() []ClipSet {
	return []ClipSet{
		makeSet(1, Sports, 2*time.Minute, map[Class][2]float64{
			High: {284.0, 323.1},
			Low:  {36.0, 49.8},
		}),
		makeSet(2, Commercial, 39*time.Second, map[Class][2]float64{
			High: {268.0, 307.2},
			Low:  {84.0, 102.3},
		}),
		makeSet(3, Sports, 60*time.Second, map[Class][2]float64{
			High: {284.0, 307.2},
			Low:  {36.5, 37.9},
		}),
		makeSet(4, MusicTV, 4*time.Minute+5*time.Second, map[Class][2]float64{
			High: {180.9, 309.1},
			Low:  {26.0, 49.6},
		}),
		makeSet(5, News, time.Minute+47*time.Second, map[Class][2]float64{
			High: {217.6, 250.4},
			Low:  {22.0, 39.0},
		}),
		makeSet(6, Movie, 2*time.Minute+27*time.Second, map[Class][2]float64{
			VeryHigh: {636.9, 731.3},
			High:     {271.0, 347.2},
			Low:      {38.5, 102.3},
		}),
	}
}

// table is Table 1 built once, the source of every lookup below. Its maps
// never leave the package: FindPair and FindClip return values, AllClips
// copies the clips out, and Library builds a fresh table for each caller.
var table = Library()

// AllClips flattens the library into its 26 clips.
func AllClips() []Clip {
	var out []Clip
	for _, s := range table {
		out = append(out, s.Clips()...)
	}
	return out
}

// FindPair returns the (Real, WindowsMedia) clip pair of a set and class,
// or false when the library holds no such pair. It allocates nothing.
func FindPair(set int, class Class) (Pair, bool) {
	for i := range table {
		if table[i].Set == set {
			p, ok := table[i].Pairs[class]
			return p, ok
		}
	}
	return Pair{}, false
}

// FindClip locates a clip by set, format and class.
func FindClip(set int, f Format, class Class) (Clip, bool) {
	p, ok := FindPair(set, class)
	if !ok {
		return Clip{}, false
	}
	if f == Real {
		return p.Real, true
	}
	return p.WindowsMedia, true
}
