// Command ethereal works with turbulence trace files the way the paper
// used Ethereal 0.8.20: capture streaming runs to disk, list packets with
// display filters, and summarise flows.
//
// Usage:
//
//	ethereal capture -o run.tbc [-seed N] [-set 1] [-class high]
//	ethereal dump run.tbc [-filter "udp.port == 4002 && ip.contfrag"] [-limit 50]
//	ethereal summary run.tbc
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"turbulence/internal/capture"
	"turbulence/internal/core"
	"turbulence/internal/media"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "capture":
		captureCmd(os.Args[2:])
	case "dump":
		dumpCmd(os.Args[2:])
	case "summary":
		summaryCmd(os.Args[2:])
	case "iograph":
		iographCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ethereal capture -o FILE [-seed N] [-set 1..6] [-class low|high|very-high]
  ethereal dump FILE [-filter EXPR] [-limit N]
  ethereal summary FILE
  ethereal iograph FILE [-interval 1s]`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ethereal:", err)
	os.Exit(1)
}

func captureCmd(args []string) {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	out := fs.String("o", "run.tbc", "output trace file")
	seed := fs.Int64("seed", 2002, "random seed")
	set := fs.Int("set", 1, "data set (1-6)")
	className := fs.String("class", "high", "rate class: low, high, very-high")
	fs.Parse(args)
	class, ok := parseClass(*className)
	if !ok {
		fatal(fmt.Errorf("bad class %q", *className))
	}
	run, err := core.RunPair(context.Background(), *seed, *set, class, core.Options{})
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := capture.WriteFile(f, run.Trace); err != nil {
		fatal(err)
	}
	fmt.Printf("captured %d packets over %.1fs to %s\n",
		run.Trace.Len(), run.Trace.Duration().Seconds(), *out)
}

func parseClass(s string) (media.Class, bool) {
	switch s {
	case "low":
		return media.Low, true
	case "high":
		return media.High, true
	case "very-high", "veryhigh", "v":
		return media.VeryHigh, true
	}
	return 0, false
}

func loadTrace(path string) *capture.Trace {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := capture.ReadFile(f)
	if err != nil {
		fatal(err)
	}
	return tr
}

func dumpCmd(args []string) {
	if len(args) < 1 {
		usage()
	}
	path := args[0]
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	expr := fs.String("filter", "", "display filter expression")
	limit := fs.Int("limit", 0, "print at most N packets (0 = all)")
	fs.Parse(args[1:])
	tr := loadTrace(path)
	if *expr != "" {
		filt, err := capture.Compile(*expr)
		if err != nil {
			fatal(err)
		}
		tr = filt.Apply(tr)
	}
	n := 0
	for i := 0; i < tr.Len(); i++ {
		fmt.Println(tr.At(i).String())
		n++
		if *limit > 0 && n >= *limit {
			fmt.Printf("... (%d more)\n", tr.Len()-n)
			break
		}
	}
	fmt.Printf("%d packets\n", tr.Len())
}

// iographCmd renders the per-flow bandwidth-over-time view Ethereal calls
// an IO graph — the raw material of the paper's Figure 10.
func iographCmd(args []string) {
	if len(args) < 1 {
		usage()
	}
	path := args[0]
	fs := flag.NewFlagSet("iograph", flag.ExitOnError)
	interval := fs.Duration("interval", time.Second, "bucket width")
	fs.Parse(args[1:])
	tr := loadTrace(path)
	flows := tr.SplitFlows()
	if len(flows) == 0 {
		fmt.Println("no flows")
		return
	}
	series := make([][]capture.Point, len(flows))
	maxLen := 0
	for i, ft := range flows {
		series[i] = ft.BandwidthSeries(*interval)
		if len(series[i]) > maxLen {
			maxLen = len(series[i])
		}
	}
	fmt.Print("t(s)")
	for _, ft := range flows {
		fmt.Printf("\t:%d", ft.Flow.Dst.Port)
	}
	fmt.Println("\t(Kbit/s per flow, by destination port)")
	for row := 0; row < maxLen; row++ {
		fmt.Printf("%.0f", float64(row)*interval.Seconds())
		for i := range flows {
			v := 0.0
			if row < len(series[i]) {
				v = series[i][row].Y / 1000
			}
			fmt.Printf("\t%.1f", v)
		}
		fmt.Println()
	}
}

func summaryCmd(args []string) {
	if len(args) < 1 {
		usage()
	}
	tr := loadTrace(args[0])
	fmt.Printf("trace: %d packets, %.1fs\n", tr.Len(), tr.Duration().Seconds())
	for _, ft := range tr.SplitFlows() {
		prof := core.ProfileFlow(ft)
		fmt.Printf("flow %s\n  %s\n", ft.Flow, prof)
		fs := ft.Fragmentation()
		fmt.Printf("  datagrams=%d continuation-fragments=%d (%.1f%%)\n",
			fs.Datagrams, fs.Continuations, fs.ContinuationShare()*100)
	}
}
