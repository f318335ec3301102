// Package antivirus models the fingerprint-based commercial scanners
// T-Market composes (§2, §4.1): Symantec/Kaspersky/Norton/McAfee-style
// engines, each with its own signature database and a sub-5% false-positive
// rate, combined under an all-must-agree consensus rule so that label noise
// in the ground-truth pipeline stays below (1-95%)^4.
//
// Fingerprints key on sample identity (the stand-in for an APK hash), so a
// repackaged or updated sample evades them — which is why zero-day
// detection falls to the ML stage.
package antivirus

import (
	"fmt"
	"math/rand"
)

// Verdict is one engine's scan outcome.
type Verdict struct {
	Engine  string
	Flagged bool
	// Known reports a fingerprint hit (as opposed to a heuristic FP).
	Known bool
}

// Engine is one commercial scanner.
type Engine struct {
	name string
	// fpRate is the heuristic false-flag probability per scan.
	fpRate float64
	// coverage is the fraction of circulating malware whose fingerprint
	// the vendor's feed contains (deterministic per sample).
	coverage float64
	// salt decorrelates the vendors' feeds.
	salt uint64
	// learned holds fingerprints added after the fact (user reports,
	// market sharing).
	learned map[int64]bool
}

// NewEngine creates a scanner.
func NewEngine(name string, fpRate, coverage float64, salt uint64) *Engine {
	return &Engine{
		name:     name,
		fpRate:   fpRate,
		coverage: coverage,
		salt:     salt,
		learned:  make(map[int64]bool),
	}
}

// Name returns the vendor name.
func (e *Engine) Name() string { return e.name }

// Learn adds a fingerprint to the vendor feed.
func (e *Engine) Learn(sampleID int64) { e.learned[sampleID] = true }

// Knows reports whether the vendor's feed fingerprints the sample. Feed
// membership is a stable property of (vendor, sample) — vendors do not
// forget between scans.
func (e *Engine) Knows(sampleID int64, malicious bool) bool {
	if e.learned[sampleID] {
		return true
	}
	if !malicious {
		return false
	}
	h := (uint64(sampleID) ^ e.salt) * 0x9e3779b97f4a7c15
	return float64(h%100000)/100000 < e.coverage
}

// Scan checks one sample. rng drives the heuristic false-positive draw.
func (e *Engine) Scan(sampleID int64, malicious bool, rng *rand.Rand) Verdict {
	v := Verdict{Engine: e.name}
	if e.Knows(sampleID, malicious) {
		v.Flagged = true
		v.Known = true
		return v
	}
	if rng.Float64() < e.fpRate {
		v.Flagged = true
	}
	return v
}

// Consensus is the all-engines-must-agree combination (§4.1).
type Consensus struct {
	engines []*Engine
	rng     *rand.Rand
}

// DefaultVendors are the scanner names the paper lists.
var DefaultVendors = []string{"symantec", "kaspersky", "norton", "mcafee"}

// NewConsensusN builds an n-engine consensus ("at least four" in §4.1;
// extra engines get generic vendor names).
func NewConsensusN(seed int64, fpRate, coverage float64, n int) *Consensus {
	if n <= 0 {
		n = 1
	}
	c := &Consensus{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("vendor-%d", i+1)
		if i < len(DefaultVendors) {
			name = DefaultVendors[i]
		}
		c.engines = append(c.engines, NewEngine(name, fpRate, coverage, uint64(seed)+uint64(i)*0x51ed270b))
	}
	return c
}

// Engines returns the member engines.
func (c *Consensus) Engines() []*Engine { return c.engines }

// Result is a consensus scan outcome.
type Result struct {
	Verdicts []Verdict
	// Rejected: every engine flagged the sample.
	Rejected bool
	// FlaggedBy counts flagging engines.
	FlaggedBy int
}

// Scan runs every engine; the sample is rejected only on unanimity.
func (c *Consensus) Scan(sampleID int64, malicious bool) Result {
	var res Result
	res.Rejected = true
	for _, e := range c.engines {
		v := e.Scan(sampleID, malicious, c.rng)
		res.Verdicts = append(res.Verdicts, v)
		if v.Flagged {
			res.FlaggedBy++
		} else {
			res.Rejected = false
		}
	}
	return res
}

// LearnAll pushes a fingerprint to every vendor feed (the market shares
// confirmed samples back to the AV companies).
func (c *Consensus) LearnAll(sampleID int64) {
	for _, e := range c.engines {
		e.Learn(sampleID)
	}
}

// FalseLabelBound returns the §4.1 noise bound for n engines with the given
// per-engine FP rate: (fpRate)^n.
func FalseLabelBound(fpRate float64, n int) float64 {
	if n <= 0 {
		return 1
	}
	out := 1.0
	for i := 0; i < n; i++ {
		out *= fpRate
	}
	return out
}

func (r Result) String() string {
	return fmt.Sprintf("flagged %d/%d (rejected=%v)", r.FlaggedBy, len(r.Verdicts), r.Rejected)
}
