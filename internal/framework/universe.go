package framework

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Config controls universe generation. The zero value is not valid; start
// from DefaultConfig or TestConfig.
type Config struct {
	Seed int64

	// NumAPIs is the total size of the framework API surface
	// (the paper's ">50,000 APIs"; default 50,000).
	NumAPIs int
	// NumPermissions is the size of the permission vocabulary.
	NumPermissions int
	// NumIntents is the size of the intent-action vocabulary.
	NumIntents int

	// Population sizes. See CorpusRole for what each population is.
	MaliceSignalCount int // target for emergent positive-SRC APIs (paper: 247)
	BenignCommonCount int // hot, ubiquitous APIs (file I/O, UI, ...)
	NegativeCommonCnt int // hot APIs with strongly suppressed malware use (paper: 13)
	SharedHeavyCount  int // heavily used by both classes, sub-threshold |SRC|
	BenignNicheCount  int // seldom-invoked, benign-only tail (paper: ~2,536)

	// Structural feature sets.
	RestrictedAPICount      int // APIs guarded by restrictive permissions (Set-P, paper: 112)
	SensitiveAPICount       int // APIs in the 5 sensitive categories (Set-S, paper: 70)
	SignalRestrictedOverlap int // Set-C ∩ Set-P (paper: 12)
	SignalSensitiveOverlap  int // Set-C ∩ Set-S (paper: 4)

	// HiddenFraction of the neutral tail is internal/hidden (reflection
	// only).
	HiddenFraction float64

	// DependentAPICount is how many non-key APIs are internally
	// implemented on top of key APIs (paper §5.4: 4,816, i.e. the 426
	// keys cover 10.5% of the surface transitively).
	DependentAPICount int

	// BaseLevel is the SDK level of the initial universe (paper scanned
	// level 27).
	BaseLevel int
}

// DefaultConfig returns the paper-scale universe configuration.
func DefaultConfig() Config {
	return Config{
		Seed:                    1,
		NumAPIs:                 50000,
		NumPermissions:          200,
		NumIntents:              120,
		MaliceSignalCount:       247,
		BenignCommonCount:       300,
		NegativeCommonCnt:       13,
		SharedHeavyCount:        200,
		BenignNicheCount:        2536,
		RestrictedAPICount:      112,
		SensitiveAPICount:       70,
		SignalRestrictedOverlap: 12,
		SignalSensitiveOverlap:  4,
		HiddenFraction:          0.05,
		DependentAPICount:       4816,
		BaseLevel:               27,
	}
}

// TestConfig returns a proportionally scaled-down universe for fast tests.
// numAPIs should be >= 1000 to keep all populations non-degenerate.
func TestConfig(numAPIs int) Config {
	c := DefaultConfig()
	f := float64(numAPIs) / float64(c.NumAPIs)
	scale := func(n, min int) int {
		v := int(math.Round(float64(n) * f))
		if v < min {
			v = min
		}
		return v
	}
	c.NumAPIs = numAPIs
	c.NumPermissions = scale(c.NumPermissions, len(wellKnownPermissions))
	c.NumIntents = scale(c.NumIntents, len(wellKnownIntents))
	c.MaliceSignalCount = scale(c.MaliceSignalCount, 40)
	c.BenignCommonCount = scale(c.BenignCommonCount, 30)
	c.NegativeCommonCnt = scale(c.NegativeCommonCnt, 4)
	c.SharedHeavyCount = scale(c.SharedHeavyCount, 20)
	c.BenignNicheCount = scale(c.BenignNicheCount, 60)
	c.RestrictedAPICount = scale(c.RestrictedAPICount, 20)
	c.SensitiveAPICount = scale(c.SensitiveAPICount, 15)
	c.SignalRestrictedOverlap = scale(c.SignalRestrictedOverlap, 2)
	c.SignalSensitiveOverlap = scale(c.SignalSensitiveOverlap, 1)
	c.DependentAPICount = scale(c.DependentAPICount, 100)
	return c
}

func (c Config) validate() error {
	switch {
	case c.NumAPIs < 500:
		return fmt.Errorf("framework: NumAPIs %d too small (need >= 500)", c.NumAPIs)
	case c.NumPermissions < len(wellKnownPermissions):
		return fmt.Errorf("framework: NumPermissions %d < %d well-known", c.NumPermissions, len(wellKnownPermissions))
	case c.NumIntents < len(wellKnownIntents):
		return fmt.Errorf("framework: NumIntents %d < %d well-known", c.NumIntents, len(wellKnownIntents))
	case c.SignalRestrictedOverlap > c.RestrictedAPICount:
		return errors.New("framework: SignalRestrictedOverlap > RestrictedAPICount")
	case c.SignalSensitiveOverlap > c.SensitiveAPICount:
		return errors.New("framework: SignalSensitiveOverlap > SensitiveAPICount")
	case c.NegativeCommonCnt > c.BenignCommonCount:
		return errors.New("framework: NegativeCommonCnt > BenignCommonCount")
	}
	special := c.MaliceSignalCount + c.BenignCommonCount + c.SharedHeavyCount +
		c.BenignNicheCount + c.RestrictedAPICount + c.SensitiveAPICount
	if special > c.NumAPIs/2 {
		return fmt.Errorf("framework: special populations (%d) exceed half the universe (%d)", special, c.NumAPIs)
	}
	return nil
}

// Universe is a generated framework API surface. It is immutable after
// generation except through Evolve, which appends APIs.
type Universe struct {
	cfg     Config
	apis    []API
	perms   []Permission
	intents []Intent

	byName       map[string]APIID
	permByName   map[string]PermissionID
	intentByName map[string]IntentID

	// implementedVia maps a dependent API to the designed-key APIs its
	// internal implementation calls.
	implementedVia map[APIID][]APIID

	level int // current (latest) SDK level

	// history records the seed of every Evolve applied since generation,
	// in order. Generation plus evolution are both deterministic, so
	// (cfg, history) fully identifies the universe — Rebuild replays them
	// to reconstruct it bit-identically (the model-artifact cold-start
	// path relies on this).
	history []int64
}

// Generate builds a universe deterministically from cfg.
func Generate(cfg Config) (*Universe, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	u := &Universe{
		cfg:            cfg,
		byName:         make(map[string]APIID, cfg.NumAPIs),
		permByName:     make(map[string]PermissionID, cfg.NumPermissions),
		intentByName:   make(map[string]IntentID, cfg.NumIntents),
		implementedVia: make(map[APIID][]APIID),
		level:          cfg.BaseLevel,
	}
	u.genPermissions(rng)
	u.genIntents(rng)
	u.genAPIs(rng)
	u.genDependencies(rng)
	return u, nil
}

// Rebuild reconstructs a universe from its generation config and Evolve
// seed history: Generate(cfg), then replay each recorded SDK release in
// order. Both steps are deterministic, so the result is bit-identical to
// the universe that recorded the history — API ids, names, rates, levels,
// and dependency edges all match. This is how a model artifact cold-starts
// without the original process.
func Rebuild(cfg Config, history []int64) (*Universe, error) {
	u, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	for _, seed := range history {
		u.Evolve(seed)
	}
	return u, nil
}

// MustGenerate is Generate but panics on config errors; intended for tests
// and examples with known-good configs.
func MustGenerate(cfg Config) *Universe {
	u, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return u
}

func (u *Universe) genPermissions(rng *rand.Rand) {
	for _, wp := range wellKnownPermissions {
		u.addPermission(wp.Name, wp.Level)
	}
	for i := len(u.perms); i < u.cfg.NumPermissions; i++ {
		name := syntheticPermissionName(rng, i)
		for _, dup := u.permByName[name]; dup; _, dup = u.permByName[name] {
			name = syntheticPermissionName(rng, i+rng.Intn(1<<20))
		}
		// Long-tail synthetic permissions: mostly normal, some
		// restrictive so that Set-P's permission map has depth.
		level := ProtectionNormal
		switch r := rng.Float64(); {
		case r < 0.15:
			level = ProtectionDangerous
		case r < 0.25:
			level = ProtectionSignature
		}
		u.addPermission(name, level)
	}
}

func (u *Universe) addPermission(name string, level ProtectionLevel) PermissionID {
	id := PermissionID(len(u.perms))
	u.perms = append(u.perms, Permission{ID: id, Name: name, Level: level})
	u.permByName[name] = id
	return id
}

func (u *Universe) genIntents(rng *rand.Rand) {
	for _, wi := range wellKnownIntents {
		u.addIntent(wi.Name, wi.System)
	}
	for i := len(u.intents); i < u.cfg.NumIntents; i++ {
		name := syntheticIntentName(rng, i)
		for _, dup := u.intentByName[name]; dup; _, dup = u.intentByName[name] {
			name = syntheticIntentName(rng, i+rng.Intn(1<<20))
		}
		u.addIntent(name, rng.Float64() < 0.4)
	}
}

func (u *Universe) addIntent(name string, system bool) IntentID {
	id := IntentID(len(u.intents))
	u.intents = append(u.intents, Intent{ID: id, Name: name, System: system})
	u.intentByName[name] = id
	return id
}

// Population rate/popularity constants. Rates are P(app invokes the API at
// least once during a full exploration) by class; popularity is the mean
// invocation count when invoked, per 5K Monkey events. Calibrated against
// §4.2-§4.3: mean total volume ≈ 42.3M invocations/app, hot APIs carrying
// ~90% of volume, the 426-key subset ~4% of volume, and the designed SRC
// spectrum of Figs. 4-5.
const (
	hotPopularity    = 87000 // benign-common APIs
	sharedPopularity = 57000 // shared-heavy APIs
	signalPopularity = 5000  // malice-signal APIs
	guardPopularity  = 3000  // Set-P / Set-S APIs outside Set-C
	neutralPopMin    = 400
	neutralPopMax    = 2400
	nichePopularity  = 300
)

func (u *Universe) genAPIs(rng *rand.Rand) {
	cfg := u.cfg
	// Remaining quota per designed population; well-known APIs consume
	// quota first so their IDs stay stable and recognizable.
	signalLeft := cfg.MaliceSignalCount
	hotLeft := cfg.BenignCommonCount
	sharedLeft := cfg.SharedHeavyCount
	nicheLeft := cfg.BenignNicheCount
	restrictedLeft := cfg.RestrictedAPICount
	sensitiveLeft := cfg.SensitiveAPICount
	sigRestrictedLeft := cfg.SignalRestrictedOverlap
	sigSensitiveLeft := cfg.SignalSensitiveOverlap
	negativeHotLeft := cfg.NegativeCommonCnt

	addAPI := func(a API) APIID {
		a.ID = APIID(len(u.apis))
		a.Level = cfg.BaseLevel
		u.apis = append(u.apis, a)
		u.byName[a.Name] = a.ID
		return a.ID
	}

	// 1. Well-known anchors.
	for _, wk := range wellKnownAPIs {
		a := API{Name: wk.Name, Permission: NoPermission, Category: wk.Category, Role: wk.Role}
		if wk.Permission != "" {
			a.Permission = u.permByName[wk.Permission]
		}
		switch wk.Role {
		case RoleMaliceSignal:
			signalLeft--
			a.Popularity = signalPopularity * lognorm(rng, 0.7)
			a.BenignRate = 0.005 + 0.03*rng.Float64()
			a.MaliceRate = 0.35 + 0.45*rng.Float64()
			if a.Permission != NoPermission && u.perms[a.Permission].Level.Restrictive() {
				restrictedLeft--
				sigRestrictedLeft--
			}
			if a.Category != CategoryNone {
				sensitiveLeft--
				sigSensitiveLeft--
			}
		case RoleBenignCommon:
			hotLeft--
			a.Popularity = hotPopularity * lognorm(rng, 0.4)
			a.BenignRate = 0.99
			a.MaliceRate = 0.95
			if a.Category != CategoryNone {
				// Hot data-store anchors (file I/O) are common
				// operations, not Set-S members: the paper's
				// Set-S comes from less ubiquitous APIs.
				a.Category = CategoryNone
			}
		default:
			a.Popularity = float64(neutralPopMin) + rng.Float64()*float64(neutralPopMax-neutralPopMin)
			a.BenignRate = 0.05 + 0.15*rng.Float64()
			a.MaliceRate = a.BenignRate
		}
		addAPI(a)
	}

	// 2. Remaining malice-signal APIs, including the designed Set-P and
	// Set-S overlaps.
	for i := 0; i < signalLeft; i++ {
		a := API{
			Name:       u.uniqueName(rng),
			Permission: NoPermission,
			Role:       RoleMaliceSignal,
			Popularity: signalPopularity * lognorm(rng, 0.7),
			// Malware usage rates are spread so that the emergent
			// SRC spectrum spans ~0.2-0.6 (Fig. 4): family
			// structure in internal/behavior concentrates these.
			BenignRate: 0.004 + 0.04*rng.Float64(),
			MaliceRate: 0.30 + 0.50*rng.Float64(),
		}
		if sigRestrictedLeft > 0 {
			a.Permission = u.randomRestrictivePermission(rng)
			sigRestrictedLeft--
			restrictedLeft--
		} else if sigSensitiveLeft > 0 {
			a.Category = SensitiveCategory(1 + rng.Intn(NumSensitiveCategories))
			sigSensitiveLeft--
			sensitiveLeft--
		}
		addAPI(a)
	}

	// 3. Set-P-only APIs: guarded by restrictive permissions. Their
	// *invocation* correlation with malice stays below the Set-C
	// threshold (the paper's Fig. 8 finds only 12 of 112 in Set-C);
	// malware's permission footprint comes from manifest requests, not
	// from invoking these APIs more often.
	for i := 0; i < restrictedLeft; i++ {
		addAPI(API{
			Name:       u.uniqueName(rng),
			Permission: u.randomRestrictivePermission(rng),
			Role:       RoleNeutral,
			Popularity: guardPopularity * lognorm(rng, 0.6),
			BenignRate: 0.05 + 0.04*rng.Float64(),
			MaliceRate: 0.08 + 0.08*rng.Float64(),
		})
	}

	// 4. Set-S-only APIs: sensitive operations, same sub-threshold
	// invocation signal.
	for i := 0; i < sensitiveLeft; i++ {
		addAPI(API{
			Name:       u.uniqueName(rng),
			Permission: NoPermission,
			Category:   SensitiveCategory(1 + i%NumSensitiveCategories),
			Role:       RoleNeutral,
			Popularity: guardPopularity * lognorm(rng, 0.6),
			BenignRate: 0.05 + 0.04*rng.Float64(),
			MaliceRate: 0.08 + 0.08*rng.Float64(),
		})
	}

	// 5. Hot benign-common APIs. The first negativeHotLeft of them have
	// strongly suppressed malware use (the paper's 13 frequent APIs with
	// SRC <= -0.2); the rest are mildly suppressed.
	for i := 0; i < hotLeft; i++ {
		a := API{
			Name:       u.uniqueName(rng),
			Permission: NoPermission,
			Role:       RoleBenignCommon,
			Popularity: hotPopularity * lognorm(rng, 0.4),
			BenignRate: 0.985 + 0.014*rng.Float64(),
		}
		if negativeHotLeft > 0 {
			// Strongly suppressed among malware: the paper's 13
			// frequent APIs with SRC <= -0.2 (malware skips the
			// benign UI/file plumbing these serve).
			a.MaliceRate = 0.70 + 0.08*rng.Float64()
			negativeHotLeft--
		} else {
			a.MaliceRate = 0.94 + 0.03*rng.Float64()
		}
		addAPI(a)
	}

	// 6. Shared-heavy APIs: heavy invocation by both classes, |SRC| just
	// below the selection threshold. They produce Fig. 6's super-linear
	// cost segment when they enroll into the tracked set.
	for i := 0; i < sharedLeft; i++ {
		addAPI(API{
			Name:       u.uniqueName(rng),
			Permission: NoPermission,
			Role:       RoleNeutral,
			Popularity: sharedPopularity * lognorm(rng, 0.3),
			BenignRate: 0.88 + 0.06*rng.Float64(),
			MaliceRate: 0.68 + 0.08*rng.Float64(),
		})
	}

	// 7. Benign-niche tail: seldom invoked (by < 0.1% of apps), benign
	// only.
	for i := 0; i < nicheLeft; i++ {
		addAPI(API{
			Name:       u.uniqueName(rng),
			Permission: NoPermission,
			Role:       RoleBenignNiche,
			Popularity: nichePopularity * lognorm(rng, 0.5),
			BenignRate: 0.0002 + 0.0008*rng.Float64(),
			MaliceRate: 0,
		})
	}

	// 8. Neutral filler up to NumAPIs; a HiddenFraction slice is
	// internal/hidden (reachable only via reflection).
	for len(u.apis) < cfg.NumAPIs {
		rate := 0.001 + 0.05*math.Pow(rng.Float64(), 2)
		a := API{
			Name:       u.uniqueName(rng),
			Permission: NoPermission,
			Role:       RoleNeutral,
			Popularity: float64(neutralPopMin) + rng.Float64()*float64(neutralPopMax-neutralPopMin),
			BenignRate: rate,
			MaliceRate: rate,
			Hidden:     rng.Float64() < cfg.HiddenFraction,
		}
		if a.Hidden {
			// Hidden APIs mirror a sensitive surface: invoking
			// them via reflection still requires the guarding
			// permission (§4.5: permissions are prerequisites that
			// cannot be bypassed).
			a.Permission = u.randomRestrictivePermission(rng)
			a.BenignRate = 0.0005
			a.MaliceRate = 0.02
		}
		addAPI(a)
	}
}

// genDependencies wires the "implemented via" graph: DependentAPICount
// non-key APIs internally call 1-3 designed-key APIs each.
func (u *Universe) genDependencies(rng *rand.Rand) {
	keys := u.DesignedKeyAPIs()
	if len(keys) == 0 {
		return
	}
	keySet := make(map[APIID]bool, len(keys))
	for _, k := range keys {
		keySet[k] = true
	}
	want := u.cfg.DependentAPICount
	for want > 0 {
		id := APIID(rng.Intn(len(u.apis)))
		if keySet[id] || u.apis[id].Hidden {
			continue
		}
		if _, dup := u.implementedVia[id]; dup {
			continue
		}
		n := 1 + rng.Intn(3)
		deps := make([]APIID, 0, n)
		for len(deps) < n {
			k := keys[rng.Intn(len(keys))]
			if !containsID(deps, k) {
				deps = append(deps, k)
			}
		}
		u.implementedVia[id] = deps
		want--
	}
}

func containsID(s []APIID, id APIID) bool {
	for _, v := range s {
		if v == id {
			return true
		}
	}
	return false
}

func (u *Universe) uniqueName(rng *rand.Rand) string {
	for {
		name := syntheticAPIName(rng)
		if _, dup := u.byName[name]; !dup {
			return name
		}
		// Disambiguate collisions with an overload-style suffix.
		for i := 2; ; i++ {
			cand := fmt.Sprintf("%s%d", name, i)
			if _, dup := u.byName[cand]; !dup {
				return cand
			}
		}
	}
}

func (u *Universe) randomRestrictivePermission(rng *rand.Rand) PermissionID {
	for {
		id := PermissionID(rng.Intn(len(u.perms)))
		if u.perms[id].Level.Restrictive() {
			return id
		}
	}
}

// lognorm returns a lognormal multiplier with median 1 and the given sigma.
func lognorm(rng *rand.Rand, sigma float64) float64 {
	return math.Exp(rng.NormFloat64() * sigma)
}

// --- accessors ---

// Config returns the generation config.
func (u *Universe) Config() Config { return u.cfg }

// NumAPIs returns the current number of APIs (grows under Evolve).
func (u *Universe) NumAPIs() int { return len(u.apis) }

// API returns the API with the given id. It panics on out-of-range ids.
func (u *Universe) API(id APIID) *API { return &u.apis[id] }

// APIs returns the full API slice. Callers must not modify it.
func (u *Universe) APIs() []API { return u.apis }

// Permissions returns the permission table. Callers must not modify it.
func (u *Universe) Permissions() []Permission { return u.perms }

// Permission returns the permission with the given id.
func (u *Universe) Permission(id PermissionID) *Permission { return &u.perms[id] }

// Intents returns the intent table. Callers must not modify it.
func (u *Universe) Intents() []Intent { return u.intents }

// Intent returns the intent with the given id.
func (u *Universe) Intent(id IntentID) *Intent { return &u.intents[id] }

// Level returns the latest SDK level present in the universe.
func (u *Universe) Level() int { return u.level }

// EvolveHistory returns the seeds of every SDK release applied via Evolve
// since generation, in order (a copy). Together with Config it fully
// identifies the universe; see Rebuild.
func (u *Universe) EvolveHistory() []int64 {
	return append([]int64(nil), u.history...)
}

// LookupAPI resolves a fully-qualified API name.
func (u *Universe) LookupAPI(name string) (APIID, bool) {
	id, ok := u.byName[name]
	return id, ok
}

// LookupPermission resolves a permission name.
func (u *Universe) LookupPermission(name string) (PermissionID, bool) {
	id, ok := u.permByName[name]
	return id, ok
}

// LookupIntent resolves an intent-action name.
func (u *Universe) LookupIntent(name string) (IntentID, bool) {
	id, ok := u.intentByName[name]
	return id, ok
}

// RestrictedAPIs returns the non-hidden APIs guarded by dangerous or
// signature permissions — the raw material of Set-P (an Axplorer/PScout
// style permission map).
func (u *Universe) RestrictedAPIs() []APIID {
	var out []APIID
	for i := range u.apis {
		a := &u.apis[i]
		if a.Hidden || a.Permission == NoPermission {
			continue
		}
		if u.perms[a.Permission].Level.Restrictive() {
			out = append(out, a.ID)
		}
	}
	return out
}

// SensitiveAPIs returns the non-hidden APIs tagged with a sensitive
// operation category — the raw material of Set-S.
func (u *Universe) SensitiveAPIs() []APIID {
	var out []APIID
	for i := range u.apis {
		a := &u.apis[i]
		if !a.Hidden && a.Category != CategoryNone {
			out = append(out, a.ID)
		}
	}
	return out
}

// HiddenAPIs returns the internal/hidden APIs (reflection-only surface).
func (u *Universe) HiddenAPIs() []APIID {
	var out []APIID
	for i := range u.apis {
		if u.apis[i].Hidden {
			out = append(out, u.apis[i].ID)
		}
	}
	return out
}

// DesignedKeyAPIs returns the generator's designed key populations
// (malice-signal ∪ restricted ∪ sensitive, hidden excluded). It exists for
// corpus construction and for tests that check the emergent Set-C recovers
// the designed signal; detection code selects its own keys from data.
func (u *Universe) DesignedKeyAPIs() []APIID {
	seen := make(map[APIID]bool)
	var out []APIID
	add := func(id APIID) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for i := range u.apis {
		if u.apis[i].Role == RoleMaliceSignal && !u.apis[i].Hidden {
			add(u.apis[i].ID)
		}
	}
	for _, id := range u.RestrictedAPIs() {
		add(id)
	}
	for _, id := range u.SensitiveAPIs() {
		add(id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CoverageClosure returns every API that is one of keys or whose internal
// implementation depends on one of keys (§5.4's 426 → 5,242 expansion).
func (u *Universe) CoverageClosure(keys []APIID) []APIID {
	inKeys := make(map[APIID]bool, len(keys))
	for _, k := range keys {
		inKeys[k] = true
	}
	var out []APIID
	for _, k := range keys {
		out = append(out, k)
	}
	for id, deps := range u.implementedVia {
		if inKeys[id] {
			continue
		}
		for _, d := range deps {
			if inKeys[d] {
				out = append(out, id)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
