package turbulence_test

import (
	"testing"
	"time"

	"turbulence"
)

func TestPublicAPIQuickstart(t *testing.T) {
	run, err := turbulence.RunPair(2002, 2, turbulence.High, turbulence.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cmp := turbulence.Compare(run)
	if !cmp.WMP.CBR {
		t.Fatal("MediaPlayer flow should classify CBR")
	}
	if cmp.Real.CBR {
		t.Fatal("RealPlayer flow should classify VBR")
	}
	if cmp.WMP.FragShare == 0 {
		t.Fatal("high-rate MediaPlayer should fragment")
	}
	if cmp.Real.FragShare != 0 {
		t.Fatal("RealPlayer should never fragment")
	}
}

func TestPublicAPILibrary(t *testing.T) {
	if len(turbulence.Library()) != 6 || len(turbulence.AllClips()) != 26 {
		t.Fatal("library shape")
	}
	clip, ok := turbulence.FindClip(6, turbulence.Real, turbulence.VeryHigh)
	if !ok || clip.EncodedKbps != 636.9 {
		t.Fatalf("FindClip: %v %t", clip, ok)
	}
	if len(turbulence.Sites()) != 6 {
		t.Fatal("sites")
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	ids := turbulence.ExperimentIDs()
	if len(ids) < 16 {
		t.Fatalf("experiment ids: %v", ids)
	}
	ctx := turbulence.NewExperimentContext(7)
	res, err := turbulence.RunExperiment(ctx, "fig05")
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "fig05" || len(res.Series) == 0 {
		t.Fatalf("result: %+v", res)
	}
}

func TestPublicAPIGenerator(t *testing.T) {
	run, err := turbulence.RunPair(3, 3, turbulence.Low, turbulence.Options{})
	if err != nil {
		t.Fatal(err)
	}
	model := turbulence.FitModel(run.RealFlow)
	gen := turbulence.GenerateFlow(model, turbulence.NewRNG(1), 30*time.Second, run.RealFlow.Flow)
	if gen.Len() == 0 {
		t.Fatal("generator produced nothing")
	}
	prof := turbulence.ProfileFlow(gen.SplitFlows()[0])
	if prof.Packets == 0 {
		t.Fatal("profile empty")
	}
}

func TestPublicAPIFilter(t *testing.T) {
	f, err := turbulence.CompileFilter("udp.port == 5002 && !ip.frag")
	if err != nil {
		t.Fatal(err)
	}
	run, err := turbulence.RunPair(4, 2, turbulence.Low, turbulence.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sub := f.Apply(run.Trace)
	if sub.Len() == 0 {
		t.Fatal("filter matched nothing")
	}
	for i := 0; i < sub.Len(); i++ {
		if sub.At(i).IsFragment() {
			t.Fatal("filter leaked a fragment")
		}
	}
}

func TestPublicAPITestbedScripting(t *testing.T) {
	tb := turbulence.NewTestbed(5)
	if tb.Client == nil || len(tb.Sites) != 6 {
		t.Fatal("testbed shape")
	}
	// The network runs standalone for custom scripting.
	if err := tb.Net.Run(0); err != nil {
		t.Fatal(err)
	}
}
