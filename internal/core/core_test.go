package core

import (
	"context"
	"testing"
	"time"

	"apichecker/internal/apk"
	"apichecker/internal/behavior"
	"apichecker/internal/dataset"
	"apichecker/internal/emulator"
	"apichecker/internal/framework"
	"apichecker/internal/ml"
)

var testU = framework.MustGenerate(framework.TestConfig(3000))

func trainedChecker(t *testing.T, n int) (*Checker, *dataset.Corpus) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumApps = n
	corpus, err := dataset.Generate(testU, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ckCfg := DefaultConfig()
	ck, rep, err := TrainFromCorpus(corpus, ckCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KeyAPIs == 0 || rep.Features <= rep.KeyAPIs {
		t.Fatalf("report = %+v", rep)
	}
	return ck, corpus
}

func TestTrainAndVetCorpus(t *testing.T) {
	ck, corpus := trainedChecker(t, 700)

	var m ml.Confusion
	var scanTotal time.Duration
	for i := 0; i < corpus.Len(); i++ {
		v, err := ck.Vet(context.Background(), Submission{Program: corpus.Program(i)})
		if err != nil {
			t.Fatal(err)
		}
		m.Observe(v.Malicious, corpus.Apps[i].Label == behavior.Malicious)
		scanTotal += v.ScanTime
		if v.OverallTime <= v.ScanTime {
			t.Fatal("overall time must exceed scan time")
		}
	}
	// In-sample performance should be strong (the paper's production
	// numbers are 98%/96% out-of-sample at full scale).
	if m.Precision() < 0.85 || m.Recall() < 0.7 {
		t.Errorf("in-corpus vetting: %v", m)
	}
	meanScan := scanTotal / time.Duration(corpus.Len())
	// §5.1: mean 1.3 min on the lightweight engine tracking key APIs.
	if meanScan < 40*time.Second || meanScan > 150*time.Second {
		t.Errorf("mean scan time = %v, want ≈ 1.3 min", meanScan)
	}
}

func TestVetRawAPKRoundTrip(t *testing.T) {
	ck, corpus := trainedChecker(t, 400)
	p := corpus.Program(0)
	data, err := apk.Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ck.Vet(context.Background(), Submission{Raw: data})
	if err != nil {
		t.Fatal(err)
	}
	if v.Package != p.PackageName || v.Digest != apk.Digest(data) {
		t.Errorf("verdict identity: %+v", v)
	}
	if _, err := ck.Vet(context.Background(), Submission{Raw: []byte("garbage")}); err == nil {
		t.Error("Vet accepted a garbage archive")
	}
}

func TestKeyAPICountScalesWithUniverse(t *testing.T) {
	ck, _ := trainedChecker(t, 400)
	sel := ck.Selection()
	designed := len(testU.DesignedKeyAPIs())
	if len(sel.Keys) < designed/2 || len(sel.Keys) > designed*2 {
		t.Errorf("keys = %d, designed key population = %d", len(sel.Keys), designed)
	}
}

func TestRetrainKeepsWorking(t *testing.T) {
	ck, corpus := trainedChecker(t, 400)
	before := len(ck.Selection().Keys)
	rep, err := ck.Retrain(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KeyAPIs == 0 {
		t.Fatal("retrain selected no keys")
	}
	after := len(ck.Selection().Keys)
	if after < before/2 || after > before*2 {
		t.Errorf("keys drifted wildly: %d -> %d", before, after)
	}
	if _, err := ck.Vet(context.Background(), Submission{Program: corpus.Program(1)}); err != nil {
		t.Fatal(err)
	}
}

func TestLowProfileMalwareIsTheFNSource(t *testing.T) {
	ck, corpus := trainedChecker(t, 700)
	gen := corpus.Generator()
	missedLow, lowTotal := 0, 0
	missedOther, otherTotal := 0, 0
	var lowKeyAPIs, otherKeyAPIs int
	for seed := int64(1000); seed < 1120; seed++ {
		low := gen.Generate(behavior.Spec{
			PackageName: "com.fn.low", Version: 1, Seed: seed,
			Label: behavior.Malicious, Family: behavior.FamilyLowProfile,
		})
		v, err := ck.Vet(context.Background(), Submission{Program: low})
		if err != nil {
			t.Fatal(err)
		}
		lowTotal++
		lowKeyAPIs += v.InvokedKeyAPIs
		if !v.Malicious {
			missedLow++
		}
		other := gen.Generate(behavior.Spec{
			PackageName: "com.fn.other", Version: 1, Seed: seed,
			Label: behavior.Malicious, Family: behavior.FamilySpyware,
		})
		v2, err := ck.Vet(context.Background(), Submission{Program: other})
		if err != nil {
			t.Fatal(err)
		}
		otherTotal++
		otherKeyAPIs += v2.InvokedKeyAPIs
		if !v2.Malicious {
			missedOther++
		}
	}
	// §5.2: false negatives concentrate in apps that barely use key
	// APIs.
	if missedLow <= missedOther {
		t.Errorf("low-profile misses (%d/%d) not above normal misses (%d/%d)",
			missedLow, lowTotal, missedOther, otherTotal)
	}
	if lowKeyAPIs >= otherKeyAPIs {
		t.Errorf("low-profile apps use %d key APIs vs %d for spyware, want fewer",
			lowKeyAPIs, otherKeyAPIs)
	}
}

func TestProfileChoiceAffectsScanTime(t *testing.T) {
	cfgData := dataset.DefaultConfig()
	cfgData.NumApps = 300
	corpus, err := dataset.Generate(testU, cfgData)
	if err != nil {
		t.Fatal(err)
	}
	fast := DefaultConfig()
	slow := DefaultConfig()
	slow.Profile = emulator.GoogleEmulator
	ckFast, _, err := TrainFromCorpus(corpus, fast)
	if err != nil {
		t.Fatal(err)
	}
	ckSlow, _, err := TrainFromCorpus(corpus, slow)
	if err != nil {
		t.Fatal(err)
	}
	var tf, ts time.Duration
	for i := 0; i < 40; i++ {
		vf, err := ckFast.Vet(context.Background(), Submission{Program: corpus.Program(i)})
		if err != nil {
			t.Fatal(err)
		}
		vs, err := ckSlow.Vet(context.Background(), Submission{Program: corpus.Program(i)})
		if err != nil {
			t.Fatal(err)
		}
		tf += vf.ScanTime
		ts += vs.ScanTime
	}
	if tf >= ts {
		t.Errorf("lightweight total %v not faster than google %v", tf, ts)
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	cfgData := dataset.DefaultConfig()
	cfgData.NumApps = 100
	corpus, err := dataset.Generate(testU, cfgData)
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Events = 0
	if _, _, err := TrainFromCorpus(corpus, bad); err == nil {
		t.Error("TrainFromCorpus accepted zero events")
	}
}
