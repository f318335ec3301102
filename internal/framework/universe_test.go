package framework

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testUniverse(t *testing.T) *Universe {
	t.Helper()
	u, err := Generate(TestConfig(3000))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return u
}

func TestGenerateCounts(t *testing.T) {
	cfg := TestConfig(3000)
	u := testUniverse(t)
	if got := u.NumAPIs(); got != cfg.NumAPIs {
		t.Errorf("NumAPIs = %d, want %d", got, cfg.NumAPIs)
	}
	if got := len(u.Permissions()); got != cfg.NumPermissions {
		t.Errorf("permissions = %d, want %d", got, cfg.NumPermissions)
	}
	if got := len(u.Intents()); got != cfg.NumIntents {
		t.Errorf("intents = %d, want %d", got, cfg.NumIntents)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := TestConfig(2000)
	u1 := MustGenerate(cfg)
	u2 := MustGenerate(cfg)
	if u1.NumAPIs() != u2.NumAPIs() {
		t.Fatalf("sizes differ: %d vs %d", u1.NumAPIs(), u2.NumAPIs())
	}
	for i := 0; i < u1.NumAPIs(); i++ {
		a, b := u1.API(APIID(i)), u2.API(APIID(i))
		if *a != *b {
			t.Fatalf("API %d differs:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestGenerateSeedChangesUniverse(t *testing.T) {
	cfg := TestConfig(2000)
	u1 := MustGenerate(cfg)
	cfg.Seed = 99
	u2 := MustGenerate(cfg)
	diff := 0
	for i := 0; i < u1.NumAPIs(); i++ {
		if u1.API(APIID(i)).Name != u2.API(APIID(i)).Name {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical universes")
	}
}

func TestWellKnownAPIsPresent(t *testing.T) {
	u := testUniverse(t)
	for _, wk := range wellKnownAPIs {
		id, ok := u.LookupAPI(wk.Name)
		if !ok {
			t.Errorf("well-known API %q missing", wk.Name)
			continue
		}
		a := u.API(id)
		if wk.Permission != "" {
			pid, ok := u.LookupPermission(wk.Permission)
			if !ok || a.Permission != pid {
				t.Errorf("%s: permission = %v, want %q", wk.Name, a.Permission, wk.Permission)
			}
		}
	}
	// The paper's headline example must be hot-path resolvable.
	if _, ok := u.LookupAPI("android.telephony.SmsManager.sendTextMessage"); !ok {
		t.Error("sendTextMessage anchor missing")
	}
}

func TestUniqueNames(t *testing.T) {
	u := testUniverse(t)
	seen := make(map[string]APIID, u.NumAPIs())
	for _, a := range u.APIs() {
		if prev, dup := seen[a.Name]; dup {
			t.Fatalf("duplicate API name %q (ids %d, %d)", a.Name, prev, a.ID)
		}
		seen[a.Name] = a.ID
	}
}

func TestRestrictedAPIs(t *testing.T) {
	cfg := TestConfig(3000)
	u := testUniverse(t)
	restricted := u.RestrictedAPIs()
	// Well-known anchors add a handful beyond the configured quota.
	if len(restricted) < cfg.RestrictedAPICount {
		t.Errorf("restricted APIs = %d, want >= %d", len(restricted), cfg.RestrictedAPICount)
	}
	for _, id := range restricted {
		a := u.API(id)
		if a.Hidden {
			t.Errorf("restricted API %d is hidden", id)
		}
		if a.Permission == NoPermission || !u.Permission(a.Permission).Level.Restrictive() {
			t.Errorf("API %d in RestrictedAPIs but not restrictively guarded", id)
		}
	}
}

func TestSensitiveAPIs(t *testing.T) {
	cfg := TestConfig(3000)
	u := testUniverse(t)
	sens := u.SensitiveAPIs()
	if len(sens) < cfg.SensitiveAPICount {
		t.Errorf("sensitive APIs = %d, want >= %d", len(sens), cfg.SensitiveAPICount)
	}
	categories := make(map[SensitiveCategory]int)
	for _, id := range sens {
		a := u.API(id)
		if a.Category == CategoryNone {
			t.Errorf("API %d in SensitiveAPIs with CategoryNone", id)
		}
		categories[a.Category]++
	}
	if len(categories) != NumSensitiveCategories {
		t.Errorf("sensitive categories represented = %d, want %d", len(categories), NumSensitiveCategories)
	}
}

func TestHiddenAPIsRequirePermission(t *testing.T) {
	u := testUniverse(t)
	hidden := u.HiddenAPIs()
	if len(hidden) == 0 {
		t.Fatal("no hidden APIs generated")
	}
	for _, id := range hidden {
		a := u.API(id)
		if a.Permission == NoPermission {
			t.Errorf("hidden API %d has no guarding permission", id)
		}
	}
}

func TestDesignedKeyAPIsSortedUnique(t *testing.T) {
	u := testUniverse(t)
	keys := u.DesignedKeyAPIs()
	if len(keys) == 0 {
		t.Fatal("no designed key APIs")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("keys not sorted/unique at %d: %d <= %d", i, keys[i], keys[i-1])
		}
	}
	for _, k := range keys {
		if u.API(k).Hidden {
			t.Errorf("designed key %d is hidden", k)
		}
	}
}

func TestCoverageClosure(t *testing.T) {
	cfg := TestConfig(3000)
	u := testUniverse(t)
	keys := u.DesignedKeyAPIs()
	closure := u.CoverageClosure(keys)
	if len(closure) < len(keys)+cfg.DependentAPICount/2 {
		t.Errorf("closure = %d, want >= keys(%d) + ~dependents(%d)", len(closure), len(keys), cfg.DependentAPICount)
	}
	// Closure of nothing is nothing.
	if got := u.CoverageClosure(nil); len(got) != 0 {
		t.Errorf("closure(nil) = %d entries, want 0", len(got))
	}
	// Every closure member is a key or depends on one.
	inKeys := make(map[APIID]bool)
	for _, k := range keys {
		inKeys[k] = true
	}
	for _, id := range closure {
		if inKeys[id] {
			continue
		}
		hit := false
		for _, d := range u.implementedVia[id] {
			if inKeys[d] {
				hit = true
				break
			}
		}
		if !hit {
			t.Fatalf("closure member %d neither key nor dependent", id)
		}
	}
}

func TestPaperScaleClosureFraction(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale universe in -short mode")
	}
	u := MustGenerate(DefaultConfig())
	keys := u.DesignedKeyAPIs()
	closure := u.CoverageClosure(keys)
	frac := float64(len(closure)) / float64(u.NumAPIs())
	// Paper §5.4: 426 keys + 4,816 dependents = 5,242 ≈ 10.5% of 50K.
	if frac < 0.08 || frac > 0.13 {
		t.Errorf("closure fraction = %.3f, want ≈ 0.105", frac)
	}
}

func TestEvolve(t *testing.T) {
	u := testUniverse(t)
	before := u.NumAPIs()
	level := u.Level()
	rep := u.Evolve(7)
	if rep.Level != level+1 || u.Level() != level+1 {
		t.Errorf("level after Evolve = %d, want %d", u.Level(), level+1)
	}
	if rep.NewAPIs <= 0 || u.NumAPIs() != before+rep.NewAPIs {
		t.Errorf("NewAPIs = %d, NumAPIs %d -> %d", rep.NewAPIs, before, u.NumAPIs())
	}
	for i := before; i < u.NumAPIs(); i++ {
		if got := u.API(APIID(i)).Level; got != rep.Level {
			t.Errorf("new API %d level = %d, want %d", i, got, rep.Level)
		}
	}
}

func TestEvolveDeterministic(t *testing.T) {
	u1 := MustGenerate(TestConfig(2000))
	u2 := MustGenerate(TestConfig(2000))
	r1 := u1.Evolve(42)
	r2 := u2.Evolve(42)
	if r1 != r2 {
		t.Errorf("Evolve reports differ: %+v vs %+v", r1, r2)
	}
	if u1.NumAPIs() != u2.NumAPIs() {
		t.Errorf("sizes differ after Evolve: %d vs %d", u1.NumAPIs(), u2.NumAPIs())
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumAPIs = 100 },
		func(c *Config) { c.NumPermissions = 1 },
		func(c *Config) { c.NumIntents = 1 },
		func(c *Config) { c.SignalRestrictedOverlap = c.RestrictedAPICount + 1 },
		func(c *Config) { c.SignalSensitiveOverlap = c.SensitiveAPICount + 1 },
		func(c *Config) { c.NegativeCommonCnt = c.BenignCommonCount + 1 },
		func(c *Config) { c.BenignNicheCount = c.NumAPIs },
	}
	for i, mutate := range bad {
		cfg := TestConfig(2000)
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: Generate accepted invalid config", i)
		}
	}
}

func TestProtectionLevelStrings(t *testing.T) {
	cases := map[ProtectionLevel]string{
		ProtectionNormal:    "normal",
		ProtectionDangerous: "dangerous",
		ProtectionSignature: "signature",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", l, got, want)
		}
	}
	if !ProtectionDangerous.Restrictive() || !ProtectionSignature.Restrictive() || ProtectionNormal.Restrictive() {
		t.Error("Restrictive() misclassifies levels")
	}
}

func TestCategoryAndRoleStrings(t *testing.T) {
	for c := CategoryNone; c <= CategoryDynamicCode; c++ {
		if s := c.String(); strings.HasPrefix(s, "SensitiveCategory(") {
			t.Errorf("category %d has no name", c)
		}
	}
	for r := RoleNeutral; r <= RoleBenignCommon; r++ {
		if s := r.String(); strings.HasPrefix(s, "CorpusRole(") {
			t.Errorf("role %d has no name", r)
		}
	}
}

func TestSyntheticNamesLookAndroid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		name := syntheticAPIName(rng)
		if strings.Count(name, ".") < 2 {
			t.Fatalf("API name %q not fully qualified", name)
		}
		if p := syntheticPermissionName(rng, i); !strings.HasPrefix(p, "android.permission.") {
			t.Fatalf("permission name %q lacks prefix", p)
		}
		if in := syntheticIntentName(rng, i); !strings.HasPrefix(in, "android.intent.action.") {
			t.Fatalf("intent name %q lacks prefix", in)
		}
	}
}

// Property: lookups round-trip for every generated entity.
func TestLookupRoundTrip(t *testing.T) {
	u := testUniverse(t)
	f := func(raw uint16) bool {
		id := APIID(int(raw) % u.NumAPIs())
		got, ok := u.LookupAPI(u.API(id).Name)
		return ok && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(raw uint16) bool {
		id := PermissionID(int(raw) % len(u.Permissions()))
		got, ok := u.LookupPermission(u.Permission(id).Name)
		return ok && got == id
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	h := func(raw uint16) bool {
		id := IntentID(int(raw) % len(u.Intents()))
		got, ok := u.LookupIntent(u.Intent(id).Name)
		return ok && got == id
	}
	if err := quick.Check(h, nil); err != nil {
		t.Error(err)
	}
}

// Property: rates are probabilities and popularity is positive for every
// API, including after evolution.
func TestAPIFieldInvariants(t *testing.T) {
	u := testUniverse(t)
	u.Evolve(11)
	for _, a := range u.APIs() {
		if a.BenignRate < 0 || a.BenignRate > 1 || a.MaliceRate < 0 || a.MaliceRate > 1 {
			t.Fatalf("API %d rates out of range: %+v", a.ID, a)
		}
		if a.Popularity <= 0 {
			t.Fatalf("API %d popularity = %f", a.ID, a.Popularity)
		}
	}
}
