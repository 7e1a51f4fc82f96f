// Quickstart: run the paper's unit experiment once — data set 1's high-rate
// pair streamed simultaneously in both formats — and print the headline
// comparison the paper's abstract summarises.
package main

import (
	"fmt"
	"log"

	"turbulence"
)

func main() {
	run, err := turbulence.RunPair(2002, 1, turbulence.High, turbulence.Options{})
	if err != nil {
		log.Fatal(err)
	}

	realClip, wmpClip := run.Clips()
	fmt.Printf("Data set %d (%s), high-rate pair:\n", run.Set, run.Site.Addr)
	fmt.Printf("  Real clip: %s\n", realClip)
	fmt.Printf("  WMP clip:  %s\n\n", wmpClip)

	cmp := turbulence.Compare(run)
	fmt.Println("Network-layer turbulence profiles:")
	fmt.Printf("  RealPlayer:  %s\n", cmp.Real)
	fmt.Printf("  MediaPlayer: %s\n\n", cmp.WMP)

	fmt.Println("The paper's headline findings, reproduced:")
	fmt.Printf("  MediaPlayer is CBR: %t (uniform sizes & interarrivals)\n", cmp.WMP.CBR)
	fmt.Printf("  RealPlayer is varied: %t\n", !cmp.Real.CBR)
	fmt.Printf("  MediaPlayer IP fragmentation: %.0f%% of wire packets (paper: ~66%% at 300 Kbps)\n",
		cmp.WMP.FragShare*100)
	fmt.Printf("  RealPlayer IP fragmentation: %.0f%% (paper: none)\n", cmp.Real.FragShare*100)
	fmt.Printf("  Real startup delay %v vs WMP %v (Real buffers at up to 3x playout)\n",
		run.Real.StartupDelay().Round(1e7), run.WMP.StartupDelay().Round(1e7))
	fmt.Printf("  Frame rates: Real %.1f fps, WMP %.1f fps\n", run.Real.AvgFPS, run.WMP.AvgFPS)

	fmt.Println("\nNetwork conditions during the run (methodology checks):")
	fmt.Printf("  %s\n", run.PingBefore)
	fmt.Printf("  route: %d hops, reached=%t\n", run.Route.HopCount(), run.Route.Reached)
}
