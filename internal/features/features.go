// Package features implements APICHECKER's feature construction: the
// principled key-API selection of §4.4 (Set-C from measured Spearman rank
// correlations, Set-P from the permission map, Set-S from sensitive-
// operation categories, unioned into the ~426 key APIs) and the One-Hot
// feature extraction of §4.2/§4.5 (tracked-API bits optionally augmented
// with requested-permission and used-intent bits).
package features

import (
	"fmt"
	"sort"

	"apichecker/internal/framework"
	"apichecker/internal/hook"
	"apichecker/internal/manifest"
	"apichecker/internal/ml"
	"apichecker/internal/parallel"
	"apichecker/internal/stats"
)

// UsageStats are the corpus-wide dynamic-analysis statistics feature
// selection consumes: for every API, the non-zero per-app invocation
// counts with their ground-truth labels.
type UsageStats struct {
	NumApps   int
	Positives int // malicious apps

	// PerAPI is indexed by APIID.
	PerAPI []APIUsage
}

// APIUsage is the sparse invocation-count column of one API.
type APIUsage struct {
	Counts []float32 // non-zero per-app totals
	Labels []bool    // ground-truth label of each counting app
}

// UsedBy returns how many apps invoked the API.
func (a *APIUsage) UsedBy() int { return len(a.Counts) }

// NewUsageStats allocates stats for a universe size.
func NewUsageStats(numAPIs, numApps, positives int) *UsageStats {
	return &UsageStats{NumApps: numApps, Positives: positives, PerAPI: make([]APIUsage, numAPIs)}
}

// Reserve pre-sizes an API's usage column for n observations, so a bulk
// fill appends without growth copies.
func (u *UsageStats) Reserve(id framework.APIID, n int) {
	au := &u.PerAPI[id]
	if cap(au.Counts) < n {
		counts := make([]float32, len(au.Counts), n)
		copy(counts, au.Counts)
		labels := make([]bool, len(au.Labels), n)
		copy(labels, au.Labels)
		au.Counts, au.Labels = counts, labels
	}
}

// Observe records one app's total count for one API.
func (u *UsageStats) Observe(id framework.APIID, count float64, malicious bool) {
	au := &u.PerAPI[id]
	au.Counts = append(au.Counts, float32(count))
	au.Labels = append(au.Labels, malicious)
}

// SRC computes the Spearman rank correlation between the API's usage and
// app malice across the corpus (§4.3). Usage enters as the One-Hot
// indicator the classifier consumes (invoked at least once): rank
// correlation on raw counts would be diluted by count jitter among the
// apps that do invoke the API, which carries no malice information.
func (u *UsageStats) SRC(id framework.APIID) float64 {
	au := &u.PerAPI[id]
	if len(au.Counts) == 0 {
		return 0
	}
	// Rank by presence/absence: the indicator form skips the rank sort.
	return stats.SpearmanSparseIndicator(au.Labels, u.NumApps, u.Positives)
}

// UsageFraction returns the fraction of apps invoking the API.
func (u *UsageStats) UsageFraction(id framework.APIID) float64 {
	if u.NumApps == 0 {
		return 0
	}
	return float64(u.PerAPI[id].UsedBy()) / float64(u.NumApps)
}

// SelectionConfig tunes the §4.4 strategy.
type SelectionConfig struct {
	// SRCThreshold is the non-trivial-correlation bar (paper: 0.2).
	SRCThreshold float64
	// SeldomFraction: APIs used by fewer apps than this fraction are
	// "seldom invoked" and excluded from Set-C (paper: 0.1%).
	SeldomFraction float64
}

// DefaultSelectionConfig matches the paper.
func DefaultSelectionConfig() SelectionConfig {
	return SelectionConfig{SRCThreshold: 0.2, SeldomFraction: 0.001}
}

// Selection is the outcome of the four-step key-API strategy.
type Selection struct {
	Config SelectionConfig

	SetC []framework.APIID // statistically correlated (step 1)
	SetP []framework.APIID // restrictive permissions (step 2)
	SetS []framework.APIID // sensitive operations (step 3)
	Keys []framework.APIID // union (step 4), sorted

	// SRC is the measured correlation per API (indexed by APIID).
	SRC []float64
}

// Overlaps returns |C∩P|, |C∩S|, |P∩S| and the size of the triple
// intersection (Fig. 8's Venn accounting).
func (s *Selection) Overlaps() (cp, cs, ps, cps int) {
	inC := idSet(s.SetC)
	inP := idSet(s.SetP)
	inS := idSet(s.SetS)
	for id := range inC {
		if inP[id] {
			cp++
		}
		if inS[id] {
			cs++
		}
		if inP[id] && inS[id] {
			cps++
		}
	}
	for id := range inP {
		if inS[id] {
			ps++
		}
	}
	return cp, cs, ps, cps
}

func idSet(ids []framework.APIID) map[framework.APIID]bool {
	m := make(map[framework.APIID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// SelectKeyAPIs runs the four-step strategy against measured usage stats.
func SelectKeyAPIs(u *framework.Universe, usage *UsageStats, cfg SelectionConfig) *Selection {
	sel := &Selection{Config: cfg, SRC: make([]float64, u.NumAPIs())}

	// Step 1 — Set-C: non-trivial |SRC|, excluding seldom-invoked APIs
	// (rare features invite over-fitting; §4.3). Hidden APIs cannot be
	// hooked and are never candidates. The per-API sweep is embarrassingly
	// parallel (each rank correlation reads one usage column and writes
	// one slot); membership is collected serially afterwards so Set-C
	// order never depends on scheduling.
	inC := make([]bool, u.NumAPIs())
	parallel.Run(u.NumAPIs(), 0, func(i int) {
		id := framework.APIID(i)
		if u.API(id).Hidden {
			return
		}
		src := usage.SRC(id)
		sel.SRC[i] = src
		if usage.UsageFraction(id) < cfg.SeldomFraction {
			return
		}
		if src >= cfg.SRCThreshold || src <= -cfg.SRCThreshold {
			inC[i] = true
		}
	})
	for i := range inC {
		if inC[i] {
			sel.SetC = append(sel.SetC, framework.APIID(i))
		}
	}

	// Step 2 — Set-P: the permission map (Axplorer/PScout stand-in).
	sel.SetP = u.RestrictedAPIs()

	// Step 3 — Set-S: sensitive-operation APIs.
	sel.SetS = u.SensitiveAPIs()

	// Step 4 — union.
	seen := make(map[framework.APIID]bool)
	for _, set := range [][]framework.APIID{sel.SetC, sel.SetP, sel.SetS} {
		for _, id := range set {
			if !seen[id] {
				seen[id] = true
				sel.Keys = append(sel.Keys, id)
			}
		}
	}
	sort.Slice(sel.Keys, func(i, j int) bool { return sel.Keys[i] < sel.Keys[j] })
	return sel
}

// TopCorrelated returns the n non-seldom APIs with the largest |SRC|,
// descending (the "top-n correlated" tracking sets of Figs. 5-7).
func TopCorrelated(u *framework.Universe, usage *UsageStats, n int, cfg SelectionConfig) []framework.APIID {
	type cand struct {
		id  framework.APIID
		abs float64
	}
	var cands []cand
	for i := 0; i < u.NumAPIs(); i++ {
		id := framework.APIID(i)
		if u.API(id).Hidden || usage.UsageFraction(id) < cfg.SeldomFraction {
			continue
		}
		src := usage.SRC(id)
		abs := src
		if abs < 0 {
			abs = -abs
		}
		cands = append(cands, cand{id, abs})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].abs != cands[j].abs {
			return cands[i].abs > cands[j].abs
		}
		return cands[i].id < cands[j].id
	})
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]framework.APIID, n)
	for i := 0; i < n; i++ {
		out[i] = cands[i].id
	}
	return out
}

// Mode selects which feature families the vector carries (Fig. 10's A, P,
// I combinations).
type Mode uint8

const (
	// ModeA: tracked-API bits only.
	ModeA Mode = 1 << iota
	// ModeP: requested-permission bits.
	ModeP
	// ModeI: used-intent bits (receiver filters ∪ runtime sends).
	ModeI

	// ModeAPI is the deployed combination (A+P+I).
	ModeAPI = ModeA | ModeP | ModeI
	// ModeAP is A+P.
	ModeAP = ModeA | ModeP
	// ModeAI is A+I.
	ModeAI = ModeA | ModeI
	// ModePI is P+I.
	ModePI = ModeP | ModeI
)

func (m Mode) String() string {
	switch m {
	case ModeA:
		return "A"
	case ModeP:
		return "P"
	case ModeI:
		return "I"
	case ModeAP:
		return "A+P"
	case ModeAI:
		return "A+I"
	case ModePI:
		return "P+I"
	case ModeAPI:
		return "A+P+I"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Extractor turns one app's dynamic log and manifest into a One-Hot
// feature vector with a fixed layout: [tracked APIs][permissions][intents]
// (families absent from the mode are omitted).
type Extractor struct {
	u        *framework.Universe
	mode     Mode
	encoding Encoding

	tracked []framework.APIID
	// apiSlot maps APIID to feature index+1 (0 = untracked), dense so the
	// projection path pays an array read per logged invocation, not a map
	// lookup.
	apiSlot []int32

	permBase   int
	intentBase int
	total      int
}

// NewExtractor builds an extractor over the tracked APIs for a mode.
func NewExtractor(u *framework.Universe, tracked []framework.APIID, mode Mode) (*Extractor, error) {
	if mode&ModeAPI == 0 {
		return nil, fmt.Errorf("features: mode %v selects no feature family", mode)
	}
	e := &Extractor{u: u, mode: mode, apiSlot: make([]int32, u.NumAPIs())}
	if mode&ModeA != 0 {
		e.tracked = append([]framework.APIID(nil), tracked...)
		sort.Slice(e.tracked, func(i, j int) bool { return e.tracked[i] < e.tracked[j] })
		for i, id := range e.tracked {
			if id < 0 || int(id) >= u.NumAPIs() {
				return nil, fmt.Errorf("features: tracked API %d out of range", id)
			}
			if e.apiSlot[id] != 0 {
				return nil, fmt.Errorf("features: duplicate tracked API %d", id)
			}
			e.apiSlot[id] = int32(i + 1)
		}
	}
	e.permBase = len(e.tracked)
	if mode&ModeP != 0 {
		e.intentBase = e.permBase + len(u.Permissions())
	} else {
		e.intentBase = e.permBase
	}
	e.total = e.intentBase
	if mode&ModeI != 0 {
		e.total += len(u.Intents())
	}
	if e.total == 0 {
		return nil, fmt.Errorf("features: empty feature space")
	}
	return e, nil
}

// NumFeatures returns the vector width.
func (e *Extractor) NumFeatures() int { return e.total }

// Mode returns the extractor's mode.
func (e *Extractor) Mode() Mode { return e.mode }

// TrackedAPIs returns the API feature order.
func (e *Extractor) TrackedAPIs() []framework.APIID { return e.tracked }

// Vector builds the feature vector for one analyzed app.
func (e *Extractor) Vector(log *hook.Log, man *manifest.Manifest) (ml.Vector, error) {
	return e.VectorInto(log, man, nil)
}

// VectorInto is Vector reusing dst's backing storage when it is wide
// enough (zeroing it first); otherwise a fresh vector is allocated. The
// serving pipeline recycles each vet context's vector scratch through
// here, so steady-state extraction allocates nothing. The returned vector
// aliases dst on reuse — callers that retain vectors must copy.
func (e *Extractor) VectorInto(log *hook.Log, man *manifest.Manifest, dst ml.Vector) (ml.Vector, error) {
	if log == nil || man == nil {
		return nil, fmt.Errorf("features: nil log or manifest")
	}
	return e.fill(log, man, dst), nil
}

// NewTriageExtractor builds the tier-1 static pre-screen extractor: the
// manifest-only feature families (requested permissions + receiver intent
// filters, layout [permissions][intents]) with no tracked APIs. Its
// vectors come from ManifestVectorInto, so the triage path never needs a
// dynamic log — or the emulation that produces one.
func NewTriageExtractor(u *framework.Universe) (*Extractor, error) {
	return NewExtractor(u, nil, ModePI)
}

// ManifestVectorInto builds the feature vector from the manifest alone,
// reusing dst's storage like VectorInto. It is only valid for extractors
// without the A family (there is no log to fill API bits from) — the
// triage extractor's scoring path. Intent bits carry the receiver filter
// actions only: runtime intent sends are a dynamic observation, which
// tier-1 by definition does not have, and the triage model is trained on
// exactly this manifest-only view so serving and training agree bit for
// bit.
func (e *Extractor) ManifestVectorInto(man *manifest.Manifest, dst ml.Vector) (ml.Vector, error) {
	if man == nil {
		return nil, fmt.Errorf("features: nil manifest")
	}
	if e.mode&ModeA != 0 {
		return nil, fmt.Errorf("features: mode %v needs a dynamic log; manifest-only vectors require a P/I-only extractor", e.mode)
	}
	v := dst
	if words := (e.total + 63) / 64; cap(v) >= words {
		v = v[:words]
		clear(v)
	} else {
		v = ml.NewVector(e.total)
	}
	e.manifestBits(man, v)
	return v, nil
}

// manifestBits sets the P and I bits a manifest declares: its requested
// permissions and its receivers' filter actions. It reads the decoded
// tables in place; a name declared twice sets its bit twice, which changes
// nothing.
func (e *Extractor) manifestBits(man *manifest.Manifest, v ml.Vector) {
	if e.mode&ModeP != 0 {
		for _, p := range man.Permissions {
			if id, ok := e.u.LookupPermission(p.Name); ok {
				v.Set(e.permBase + int(id))
			}
		}
	}
	if e.mode&ModeI != 0 {
		for _, r := range man.Application.Receivers {
			for _, f := range r.Filters {
				for _, a := range f.Actions {
					if id, ok := e.u.LookupIntent(a.Name); ok {
						v.Set(e.intentBase + int(id))
					}
				}
			}
		}
	}
}

// CanProjectFrom reports whether logs recorded under reg cover every API
// this extractor tracks, i.e. whether projecting them with Vector is exact.
// The emulation itself is registry-independent (the registry only filters
// what the hook layer records), so a log recorded under a wider tracked
// set — typically the §4.3 measurement pass, which tracks every hookable
// API — is an exact superset of a key-API log under the same profile and
// Monkey seed. Corpus passes share one registry across all apps, so callers
// validate once up front and project each log with plain Vector.
func (e *Extractor) CanProjectFrom(reg *hook.Registry) error {
	for _, id := range e.tracked {
		if !reg.Tracks(id) {
			return fmt.Errorf("features: log registry does not track API %d; cannot project", id)
		}
	}
	return nil
}

// fill is the shared vector construction; apiBits ignores logged APIs
// outside the tracked set, so it projects wider logs correctly. dst is
// recycled storage to fill (zeroed first) when wide enough, nil to
// allocate.
func (e *Extractor) fill(log *hook.Log, man *manifest.Manifest, dst ml.Vector) ml.Vector {
	v := dst
	if words := (e.total + 63) / 64; cap(v) >= words {
		v = v[:words]
		clear(v)
	} else {
		v = ml.NewVector(e.total)
	}
	if e.mode&ModeA != 0 {
		e.apiBits(log, v)
	}
	e.manifestBits(man, v)
	if e.mode&ModeI != 0 {
		for _, s := range log.Intents() {
			v.Set(e.intentBase + int(s.ID))
		}
	}
	return v
}

// FeatureName labels feature index i for reporting (Fig. 13 uses
// "API:"/"Permission:"/"Intent:" prefixes).
func (e *Extractor) FeatureName(i int) string {
	switch {
	case i < e.permBase:
		if e.encoding == EncodingHistogram {
			api := e.tracked[i/HistogramBits]
			return fmt.Sprintf("API: %s >= %d", shortAPIName(e.u.API(api).Name),
				histogramThresholds[i%HistogramBits])
		}
		return "API: " + shortAPIName(e.u.API(e.tracked[i]).Name)
	case i < e.intentBase:
		return "Permission: " + shortPermName(e.u.Permission(framework.PermissionID(i-e.permBase)).Name)
	case i < e.total:
		return "Intent: " + shortIntentName(e.u.Intent(framework.IntentID(i-e.intentBase)).Name)
	}
	return fmt.Sprintf("feature-%d", i)
}

// shortAPIName renders Class_method aliases like the paper
// (SmsManager_sendTextMessage).
func shortAPIName(full string) string {
	lastDot := -1
	prevDot := -1
	for i := 0; i < len(full); i++ {
		if full[i] == '.' {
			prevDot = lastDot
			lastDot = i
		}
	}
	if prevDot < 0 {
		return full
	}
	return full[prevDot+1:lastDot] + "_" + full[lastDot+1:]
}

func shortPermName(full string) string {
	const prefix = "android.permission."
	if len(full) > len(prefix) && full[:len(prefix)] == prefix {
		return full[len(prefix):]
	}
	return full
}

func shortIntentName(full string) string {
	lastDot := -1
	for i := 0; i < len(full); i++ {
		if full[i] == '.' {
			lastDot = i
		}
	}
	if lastDot < 0 {
		return full
	}
	// Keep a middle qualifier for the well-known system actions, like
	// "wifi.STATE_CHANGE" in Fig. 13.
	start := 0
	for i := lastDot - 1; i >= 0; i-- {
		if full[i] == '.' {
			start = i + 1
			break
		}
	}
	return full[start:]
}
