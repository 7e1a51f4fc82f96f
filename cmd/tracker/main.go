// Command tracker streams one or more clips from the simulated testbed and
// records application-layer statistics, mirroring the paper's two
// instrumented players (§2.B): a Windows Media reference (set/M-class)
// plays through MediaTracker, a RealVideo one (set/R-class) through
// RealTracker. A playlist runs its entries back to back on one testbed and
// may mix the two formats.
//
// Usage:
//
//	tracker [-seed N] [-clip set/X-class] [-playlist "1/M-h,5/R-l"] [-csv out.csv]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"turbulence/internal/core"
	"turbulence/internal/eventsim"
	"turbulence/internal/media"
	"turbulence/internal/tracker"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed")
	clip := flag.String("clip", "5/M-l", "clip reference (set/M-class or set/R-class, e.g. 1/R-h)")
	playlist := flag.String("playlist", "", "comma-separated clip refs; overrides -clip")
	csvPath := flag.String("csv", "", "write per-second samples to this CSV file")
	flag.Parse()

	refs := []string{*clip}
	if *playlist != "" {
		refs = strings.Split(*playlist, ",")
	}
	if err := run(os.Stdout, *seed, refs, *csvPath); err != nil {
		fmt.Fprintln(os.Stderr, "tracker:", err)
		os.Exit(1)
	}
}

// run plays refs sequentially, prints one report per entry to out and,
// if csvPath is set, writes their per-second samples there.
func run(out io.Writer, seed int64, refs []string, csvPath string) error {
	reports, err := runPlaylist(seed, refs)
	if err != nil {
		return err
	}
	for _, r := range reports {
		fmt.Fprintln(out, r)
		if r.Tool == "RealTracker" {
			fmt.Fprintf(out, "  startup=%v playFrames=%d/%d recovered=%d loss=%.2f%%\n",
				r.StartupDelay(), r.FramesPlayed, r.FramesExpected, r.PacketsRecovered, r.LossRate()*100)
		} else {
			fmt.Fprintf(out, "  startup=%v playFrames=%d/%d loss=%.2f%%\n",
				r.StartupDelay(), r.FramesPlayed, r.FramesExpected, r.LossRate()*100)
		}
	}
	if csvPath == "" || len(reports) == 0 {
		return nil
	}
	f, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	for _, r := range reports {
		if err := r.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(out, "wrote", csvPath)
	return nil
}

// runPlaylist streams the listed clips one after another on a fresh
// testbed, each from its own set's site, and returns their reports in
// playlist order. Each format plays on its own client ports and gets its
// own allowance past the clip's duration in the simulation horizon.
func runPlaylist(seed int64, refs []string) ([]*tracker.Report, error) {
	clips := make([]media.Clip, len(refs))
	horizon := 30.0
	for i, ref := range refs {
		clip, ok := findByRef(strings.TrimSpace(ref))
		if !ok {
			return nil, fmt.Errorf("unknown clip %q", ref)
		}
		clips[i] = clip
		slack := 60.0
		if clip.Format == media.Real {
			slack = 90
		}
		horizon += clip.Duration.Seconds() + slack
	}
	tb := core.NewTestbed(seed)
	var reports []*tracker.Report
	var chain func(i int)
	chain = func(i int) {
		if i >= len(clips) {
			return
		}
		done := func(r *tracker.Report) {
			reports = append(reports, r)
			chain(i + 1)
		}
		site := tb.Site(clips[i].Set)
		if ref := clips[i].Name(); clips[i].Format == media.Real {
			tracker.StartRealTracker(tb.Client, site.RDT, ref, 5101, 5102, done)
		} else {
			tracker.StartMediaTracker(tb.Client, site.WMS, ref, 4101, 4102, done)
		}
	}
	chain(0)
	if err := tb.Net.Run(eventsim.At(horizon)); err != nil {
		return nil, err
	}
	if len(reports) != len(clips) {
		return reports, fmt.Errorf("only %d/%d playlist entries completed", len(reports), len(clips))
	}
	return reports, nil
}

// findByRef resolves a "set/X-class" reference to its clip.
func findByRef(ref string) (media.Clip, bool) {
	for _, c := range media.AllClips() {
		if c.Name() == ref {
			return c, true
		}
	}
	return media.Clip{}, false
}
