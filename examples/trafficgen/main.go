// Trafficgen realises the paper's Section IV: fit synthetic flow models
// from measured traces and generate a population of streaming flows for a
// network study — here, twenty mixed Real/WMP flows whose aggregate we
// then characterise, all without running a single player stack.
package main

import (
	"fmt"
	"log"
	"time"

	"turbulence"
)

func main() {
	// Measure once: one high-rate pair gives us both players' models.
	fmt.Println("fitting models from a measured pair run (set 1, high rate)...")
	run, err := turbulence.RunPair(2002, 1, turbulence.High, turbulence.Options{})
	if err != nil {
		log.Fatal(err)
	}
	realModel := turbulence.FitModel(run.RealFlow)
	wmpModel := turbulence.FitModel(run.WMPFlow)
	fmt.Printf("  Real model: burst %.2fx for %v, train %.2f pkts/datagram\n",
		realModel.BurstRatio, realModel.BurstDuration.Round(time.Second), realModel.TrainLen)
	fmt.Printf("  WMP model:  burst %.2fx, train %.2f pkts/datagram\n\n",
		wmpModel.BurstRatio, wmpModel.TrainLen)

	// Generate a flow population, as a simulation study would.
	rng := turbulence.NewRNG(77)
	const flowsPerPlayer = 10
	client := run.RealFlow.Flow.Dst.Addr
	var totalPackets, totalFragments int
	var realRate, wmpRate float64
	for i := 0; i < flowsPerPlayer; i++ {
		rf := turbulence.GenerateFlow(realModel, rng, 60*time.Second, flowOn(client, 20000+i))
		wf := turbulence.GenerateFlow(wmpModel, rng, 60*time.Second, flowOn(client, 30000+i))
		rp := turbulence.ProfileFlow(rf.SplitFlows()[0])
		wp := turbulence.ProfileFlow(wf.SplitFlows()[0])
		totalPackets += rp.Packets + wp.Packets
		for _, ft := range append(rf.SplitFlows(), wf.SplitFlows()...) {
			totalFragments += ft.Fragmentation().Continuations
		}
		realRate += rp.AvgRateBps
		wmpRate += wp.AvgRateBps
	}
	fmt.Printf("generated %d flows, %d wire packets, %d IP fragments\n",
		2*flowsPerPlayer, totalPackets, totalFragments)
	fmt.Printf("aggregate offered load: Real %.0f Kbps + WMP %.0f Kbps\n",
		realRate/1000, wmpRate/1000)

	// Verify the population retains the paper's contrast.
	oneReal := turbulence.GenerateFlow(realModel, rng, 60*time.Second, flowOn(client, 40000))
	oneWMP := turbulence.GenerateFlow(wmpModel, rng, 60*time.Second, flowOn(client, 40001))
	rp := turbulence.ProfileFlow(oneReal.SplitFlows()[0])
	wp := turbulence.ProfileFlow(oneWMP.SplitFlows()[0])
	fmt.Printf("\nspot-check generated flows:\n  Real: %s\n  WMP:  %s\n", rp, wp)
	if wp.CBR && !rp.CBR && wp.FragShare > 0.5 && rp.FragShare == 0 {
		fmt.Println("\ngenerated traffic preserves the measured turbulence contrast ✓")
	} else {
		fmt.Println("\nWARNING: generated traffic lost the measured contrast")
	}
}

func flowOn(client turbulence.Addr, srcPort int) turbulence.Flow {
	return turbulence.Flow{
		Src: turbulence.Endpoint{Addr: turbulence.Addr{192, 0, 2, 1}, Port: turbulence.Port(srcPort)},
		Dst: turbulence.Endpoint{Addr: client, Port: 9999},
	}
}
