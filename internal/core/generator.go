package core

import (
	"time"

	"turbulence/internal/capture"
	"turbulence/internal/eventsim"
	"turbulence/internal/inet"
	"turbulence/internal/netsim"
	"turbulence/internal/stats"
)

// FlowModel is the paper's Section IV proposal made concrete: a synthetic
// streaming-flow generator parameterised entirely by measured
// distributions — packet sizes from Figures 6/7, interarrivals from
// Figures 8/9, fragmentation from Figure 5, and the buffering burst from
// Figure 11. Fit one from a captured flow, then Generate as many
// simulated flows as a network study needs without running player stacks.
type FlowModel struct {
	// SizeCDF is the empirical CDF of datagram-initial wire packet sizes.
	SizeCDF []stats.Point
	// IntervalCDF is the empirical CDF of datagram interarrival seconds
	// (fragment trains collapsed).
	IntervalCDF []stats.Point
	// TrainLen is the wire packets per datagram (1 = no fragmentation);
	// fractional values are realised probabilistically.
	TrainLen float64
	// FragmentWire is the wire size of full fragments (MTU-sized).
	FragmentWire int
	// BurstRatio scales the packet rate during the startup burst.
	BurstRatio float64
	// BurstDuration is how long the startup burst lasts.
	BurstDuration time.Duration
}

// FitModel extracts a FlowModel from a captured flow.
func FitModel(ft *capture.FlowTrace) FlowModel {
	m := FlowModel{
		SizeCDF:      stats.CDF(firstPacketSizes(ft)),
		IntervalCDF:  stats.CDF(ft.GroupInterarrivals()),
		FragmentWire: inet.MaxWirePacket,
	}
	prof := ProfileFlow(ft)
	m.TrainLen = prof.MeanTrain
	m.BurstRatio = prof.BurstRatio
	if m.BurstRatio < 1 {
		m.BurstRatio = 1
	}
	m.BurstDuration = defaultBurstDuration(prof)
	return m
}

// defaultBurstDuration estimates the burst length from the profile: flows
// without a burst get zero.
func defaultBurstDuration(p FlowProfile) time.Duration {
	if p.BurstRatio < 1.2 {
		return 0
	}
	// The paper reports ~20 s bursts for low rates up to ~40 s for high;
	// interpolate on the burst ratio (stronger burst drains sooner).
	sec := 45 - 10*p.BurstRatio
	if sec < 10 {
		sec = 10
	}
	return time.Duration(sec * float64(time.Second))
}

// Generate synthesises a flow trace of the given duration. The generator
// draws sizes and intervals via inverse-CDF sampling, applies the startup
// burst by compressing intervals, and emits fragment trains for models
// with TrainLen > 1. The result is a capture.Trace, so every analysis in
// this repository runs identically on generated and measured flows.
func (m FlowModel) Generate(rng *eventsim.RNG, duration time.Duration, flow inet.Flow) *capture.Trace {
	tr := &capture.Trace{}
	if len(m.SizeCDF) == 0 || len(m.IntervalCDF) == 0 {
		return tr
	}
	now := time.Duration(0)
	var ipID uint16
	for now < duration {
		interval := stats.InverseCDF(m.IntervalCDF, rng.Float64())
		if m.BurstRatio > 1 && now < m.BurstDuration {
			interval /= m.BurstRatio
		}
		if interval <= 0 {
			interval = 0.001
		}
		now += time.Duration(interval * float64(time.Second))
		if now >= duration {
			break
		}
		size := stats.InverseCDF(m.SizeCDF, rng.Float64())
		ipID++
		train := m.drawTrainLen(rng)
		emitTrain(tr, now, flow, ipID, int(size), train, m.FragmentWire)
	}
	return tr
}

// drawTrainLen realises the fractional mean train length.
func (m FlowModel) drawTrainLen(rng *eventsim.RNG) int {
	if m.TrainLen <= 1 {
		return 1
	}
	base := int(m.TrainLen)
	if rng.Float64() < m.TrainLen-float64(base) {
		base++
	}
	return base
}

// emitTrain appends the wire packets of one datagram: for fragmented
// datagrams, train-1 full-MTU fragments precede the remainder, spaced by
// the serialization gap a 10 Mbps access link imposes (~1.2 ms), matching
// the back-to-back trains in captured traces.
func emitTrain(tr *capture.Trace, at time.Duration, flow inet.Flow, ipID uint16, firstWire, train, fragWire int) {
	const serGap = 1200 * time.Microsecond
	mkRecord := func(offset time.Duration, wire int, fragOff uint16, more, hasPorts bool) capture.Record {
		r := capture.Record{
			At:       at + offset,
			Dir:      netsim.Recv,
			WireLen:  wire,
			Src:      flow.Src.Addr,
			Dst:      flow.Dst.Addr,
			Proto:    inet.ProtoUDP,
			IPID:     ipID,
			FragOff:  fragOff,
			MoreFrag: more,
			IPLen:    wire - inet.EthernetOverhead,
		}
		if hasPorts {
			r.HasPorts = true
			r.SrcPort = flow.Src.Port
			r.DstPort = flow.Dst.Port
			r.PayloadLen = r.IPLen - inet.IPv4HeaderLen - inet.UDPHeaderLen
		} else {
			r.PayloadLen = r.IPLen - inet.IPv4HeaderLen
		}
		return r
	}
	if train <= 1 {
		tr.Append(mkRecord(0, firstWire, 0, false, true))
		return
	}
	chunk := uint16((fragWire - inet.EthernetOverhead - inet.IPv4HeaderLen) / 8)
	for i := 0; i < train; i++ {
		last := i == train-1
		wire := fragWire
		if last {
			wire = firstWire // remainder approximates the first-packet draw
			if wire >= fragWire {
				wire = fragWire / 2
			}
		}
		tr.Append(mkRecord(time.Duration(i)*serGap, wire, uint16(i)*chunk, !last, i == 0))
	}
}
