package antivirus

import (
	"math"
	"math/rand"
	"testing"
)

func TestEngineFingerprintCoverage(t *testing.T) {
	e := NewEngine("symantec", 0.04, 0.35, 7)
	known := 0
	const n = 5000
	for id := int64(0); id < n; id++ {
		if e.Knows(id, true) {
			known++
		}
	}
	frac := float64(known) / n
	if math.Abs(frac-0.35) > 0.03 {
		t.Errorf("coverage = %.3f, want ≈ 0.35", frac)
	}
	// Benign samples are never "known" without learning.
	for id := int64(0); id < n; id++ {
		if e.Knows(id, false) {
			t.Fatal("benign sample fingerprinted")
		}
	}
	// Knowledge is stable, not a coin flip.
	for id := int64(0); id < 100; id++ {
		if e.Knows(id, true) != e.Knows(id, true) {
			t.Fatal("Knows is not deterministic")
		}
	}
}

func TestEngineLearn(t *testing.T) {
	e := NewEngine("kaspersky", 0.04, 0, 9)
	if e.Knows(42, true) {
		t.Fatal("zero-coverage engine knows a sample")
	}
	e.Learn(42)
	if !e.Knows(42, true) || !e.Knows(42, false) {
		t.Error("learned fingerprint not applied")
	}
}

func TestEngineFPRate(t *testing.T) {
	e := NewEngine("norton", 0.04, 0, 3)
	rng := rand.New(rand.NewSource(1))
	flags := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if e.Scan(int64(i), false, rng).Flagged {
			flags++
		}
	}
	frac := float64(flags) / n
	if math.Abs(frac-0.04) > 0.006 {
		t.Errorf("FP rate = %.4f, want ≈ 0.04", frac)
	}
}

func TestConsensusUnanimity(t *testing.T) {
	c := NewConsensusN(1, 0.04, 0.9, len(DefaultVendors))
	// A widely fingerprinted malware sample: find one all vendors know.
	for id := int64(0); id < 200; id++ {
		all := true
		for _, e := range c.Engines() {
			if !e.Knows(id, true) {
				all = false
			}
		}
		if all {
			res := c.Scan(id, true)
			if !res.Rejected || res.FlaggedBy != len(c.Engines()) {
				t.Errorf("known sample not rejected: %v", res)
			}
			return
		}
	}
	t.Fatal("no universally known sample at 90% coverage")
}

// The §4.1 bound: four independent sub-5% FP engines mislabel essentially
// nothing under unanimity.
func TestConsensusFalseLabelBound(t *testing.T) {
	c := NewConsensusN(2, 0.05, 0.35, len(DefaultVendors))
	rejected := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if c.Scan(int64(i), false).Rejected {
			rejected++
		}
	}
	bound := FalseLabelBound(0.05, 4) // 6.25e-6
	measured := float64(rejected) / n
	if measured > bound*40 { // generous sampling slack around a tiny rate
		t.Errorf("benign rejection rate %.6f far above bound %.6f", measured, bound)
	}
}

func TestFalseLabelBound(t *testing.T) {
	if got := FalseLabelBound(0.05, 4); math.Abs(got-6.25e-6) > 1e-12 {
		t.Errorf("bound = %v", got)
	}
	if FalseLabelBound(0.5, 0) != 1 {
		t.Error("degenerate bound")
	}
}

func TestConsensusNVendorNames(t *testing.T) {
	c := NewConsensusN(1, 0.04, 0.3, 6)
	if len(c.Engines()) != 6 {
		t.Fatalf("engines = %d", len(c.Engines()))
	}
	if c.Engines()[0].Name() != "symantec" || c.Engines()[4].Name() != "vendor-5" {
		t.Errorf("names = %s, %s", c.Engines()[0].Name(), c.Engines()[4].Name())
	}
	if NewConsensusN(1, 0, 0, 0).Engines() == nil {
		t.Error("zero-engine consensus not clamped")
	}
	if s := c.Scan(1, false).String(); s == "" {
		t.Error("empty result string")
	}
}

// Vendor feeds must be decorrelated: the union of four 35%-coverage feeds
// should know clearly more malware than any single feed.
func TestVendorFeedsDecorrelated(t *testing.T) {
	c := NewConsensusN(3, 0.04, 0.35, len(DefaultVendors))
	single, union := 0, 0
	const n = 4000
	for id := int64(0); id < n; id++ {
		if c.Engines()[0].Knows(id, true) {
			single++
		}
		for _, e := range c.Engines() {
			if e.Knows(id, true) {
				union++
				break
			}
		}
	}
	// Independent feeds: union ≈ 1-(1-0.35)^4 ≈ 0.82.
	if union <= single+single/2 {
		t.Errorf("union %d not clearly above single feed %d — feeds correlated", union, single)
	}
}
