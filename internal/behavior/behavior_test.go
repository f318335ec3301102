package behavior

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"apichecker/internal/framework"
)

var testU = framework.MustGenerate(framework.TestConfig(3000))

func testGen() *Generator { return NewGenerator(testU) }

func benignSpec(seed int64) Spec {
	return Spec{PackageName: "com.good.app", Version: 1, Seed: seed,
		Label: Benign, Category: CategoryTool}
}

func maliciousSpec(seed int64, f Family) Spec {
	return Spec{PackageName: "com.evil.app", Version: 1, Seed: seed,
		Label: Malicious, Family: f}
}

func TestGenerateDeterministic(t *testing.T) {
	g := testGen()
	p1 := g.Generate(benignSpec(42))
	p2 := g.Generate(benignSpec(42))
	b1, err := p1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := p2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("same spec produced different programs")
	}
	p3 := g.Generate(benignSpec(43))
	b3, _ := p3.Encode()
	if string(b1) == string(b3) {
		t.Error("different seeds produced identical programs")
	}
}

func TestEncodeStripsGroundTruth(t *testing.T) {
	g := testGen()
	p := g.Generate(maliciousSpec(7, FamilySpyware))
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != Benign || got.Family != FamilyNone || got.Category != CategoryGame {
		t.Errorf("ground truth leaked into serialized program: label=%v family=%v category=%v",
			got.Label, got.Family, got.Category)
	}
	if got.PackageName != p.PackageName || len(got.Activities) != len(p.Activities) {
		t.Error("behavioural payload lost in round trip")
	}
}

func TestValidateCatchesBrokenPrograms(t *testing.T) {
	g := testGen()
	cases := []struct {
		name   string
		mutate func(*Program)
	}{
		{"empty package", func(p *Program) { p.PackageName = "" }},
		{"zero version", func(p *Program) { p.Version = 0 }},
		{"no activities", func(p *Program) { p.Activities = nil }},
		{"unreachable launcher", func(p *Program) { p.Activities[0].ReachRate = 0 }},
		{"duplicate activity", func(p *Program) { p.Activities[1].Name = p.Activities[0].Name }},
		{"negative rate", func(p *Program) {
			p.Activities[0].Direct = append(p.Activities[0].Direct, APIRate{API: 1, Rate: -1})
		}},
		{"crash bias", func(p *Program) { p.CrashBias = 1.5 }},
		{"negative send-intent", func(p *Program) {
			p.Activities[0].SendIntents = append(p.Activities[0].SendIntents, -1)
		}},
		{"negative receiver intent", func(p *Program) { p.ReceiverIntents = append(p.ReceiverIntents, -1) }},
		{"negative permission", func(p *Program) {
			p.Permissions = append(p.Permissions, framework.NoPermission)
		}},
	}
	for _, tc := range cases {
		p := g.Generate(benignSpec(1))
		tc.mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted broken program", tc.name)
		}
	}
}

// TestValidateRejectsNonFinite: every numeric check in Validate used to be
// a comparison that is false for NaN ("rate < 0", "bias > 1"), so a blob
// carrying NaN or ±Inf was accepted and the emulator's Poisson draw turned
// it into ~9.2e18 invocations. Each float field, each bad value.
func TestValidateRejectsNonFinite(t *testing.T) {
	g := testGen()
	fields := []struct {
		name string
		set  func(*Program, float64)
	}{
		{"CrashBias", func(p *Program, v float64) { p.CrashBias = v }},
		{"launcher ReachRate", func(p *Program, v float64) { p.Activities[0].ReachRate = v }},
		{"ReachRate", func(p *Program, v float64) { p.Activities[1].ReachRate = v }},
		{"direct Rate", func(p *Program, v float64) {
			p.Activities[0].Direct = append(p.Activities[0].Direct, APIRate{API: 1, Rate: v})
		}},
		{"reflection Rate", func(p *Program, v float64) {
			p.Activities[0].Reflection = append(p.Activities[0].Reflection, APIRate{API: 1, Rate: v})
		}},
		{"payload ReachRate", func(p *Program, v float64) { p.Payload.Activities[0].ReachRate = v }},
		{"payload direct Rate", func(p *Program, v float64) {
			a := &p.Payload.Activities[0]
			a.Direct = append(a.Direct, APIRate{API: 1, Rate: v})
		}},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := g.Generate(maliciousSpec(1, FamilyUpdateAttack))
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			f.set(p, v)
			if err := p.Validate(); err == nil {
				t.Errorf("%s = %v: Validate accepted it", f.name, v)
			}
			if _, err := p.Encode(); err == nil {
				t.Errorf("%s = %v: Encode accepted it", f.name, v)
			}
		}
	}
}

// signalFootprint counts direct invocations of malice-signal APIs.
func signalFootprint(p *Program) int {
	n := 0
	for i := range p.Activities {
		for _, r := range p.Activities[i].Direct {
			if testU.API(r.API).Role == framework.RoleMaliceSignal {
				n++
			}
		}
	}
	return n
}

func TestMalwareUsesMoreSignalAPIs(t *testing.T) {
	g := testGen()
	benignTotal, malTotal := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		benignTotal += signalFootprint(g.Generate(benignSpec(seed)))
		fam := Family(1 + seed%NumFamilies)
		if fam == FamilyLowProfile || fam == FamilyReflectionEvader || fam == FamilyIntentEvader {
			fam = FamilySpyware
		}
		malTotal += signalFootprint(g.Generate(maliciousSpec(seed, fam)))
	}
	if malTotal < benignTotal*4 {
		t.Errorf("signal footprint: malware %d vs benign %d, want clear separation", malTotal, benignTotal)
	}
}

func TestLowProfileFamilyIsQuiet(t *testing.T) {
	g := testGen()
	normal, quiet := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		normal += signalFootprint(g.Generate(maliciousSpec(seed, FamilySpyware)))
		quiet += signalFootprint(g.Generate(maliciousSpec(seed, FamilyLowProfile)))
	}
	if quiet*3 > normal {
		t.Errorf("low-profile footprint %d not clearly below normal %d", quiet, normal)
	}
}

func TestReflectionEvaderHidesAPIs(t *testing.T) {
	g := testGen()
	refl := 0
	for seed := int64(0); seed < 20; seed++ {
		p := g.Generate(maliciousSpec(seed, FamilyReflectionEvader))
		for i := range p.Activities {
			refl += len(p.Activities[i].Reflection)
			for _, r := range p.Activities[i].Reflection {
				if !testU.API(r.API).Hidden {
					t.Fatalf("reflection target %d is not a hidden API", r.API)
				}
			}
		}
	}
	if refl == 0 {
		t.Error("reflection evader produced no reflection calls")
	}
}

func TestIntentEvaderDelegates(t *testing.T) {
	g := testGen()
	sent := 0
	for seed := int64(0); seed < 20; seed++ {
		p := g.Generate(maliciousSpec(seed, FamilyIntentEvader))
		for i := range p.Activities {
			sent += len(p.Activities[i].SendIntents)
		}
	}
	if sent == 0 {
		t.Error("intent evader sends no intents")
	}
}

func TestUpdateAttackHasPayload(t *testing.T) {
	g := testGen()
	found := false
	for seed := int64(0); seed < 10; seed++ {
		p := g.Generate(maliciousSpec(seed, FamilyUpdateAttack))
		if p.Payload == nil || len(p.Payload.Activities) == 0 {
			t.Fatal("update-attack program lacks payload")
		}
		for _, a := range p.Payload.Activities {
			if len(a.Direct) > 0 {
				found = true
			}
		}
		// The payload's APIs must not leak into the static dex.
		d, err := p.Dex(testU)
		if err != nil {
			t.Fatal(err)
		}
		if !d.LoadsDynamicCode() {
			t.Error("update-attack dex lacks load-dex marker")
		}
		refs := make(map[string]bool)
		for _, name := range d.DirectAPIRefs() {
			refs[name] = true
		}
		for _, a := range p.Payload.Activities {
			for _, r := range a.Direct {
				if refs[testU.API(r.API).Name] {
					t.Errorf("payload API %s visible in static dex", testU.API(r.API).Name)
				}
			}
		}
	}
	if !found {
		t.Error("no update-attack payload carried any APIs")
	}
}

func TestManifestDerivation(t *testing.T) {
	g := testGen()
	p := g.Generate(maliciousSpec(3, FamilySMSFraud))
	m, err := p.Manifest(testU)
	if err != nil {
		t.Fatal(err)
	}
	if m.Package != p.PackageName || m.VersionCode != p.Version {
		t.Errorf("manifest identity %s/%d", m.Package, m.VersionCode)
	}
	if len(m.Application.Activities) != len(p.Activities) {
		t.Errorf("declared activities = %d, want %d", len(m.Application.Activities), len(p.Activities))
	}
	if len(m.Permissions) != len(p.Permissions) {
		t.Errorf("permissions = %d, want %d", len(m.Permissions), len(p.Permissions))
	}
	for _, perm := range p.Permissions {
		if !m.RequestsPermission(testU.Permission(perm).Name) {
			t.Errorf("permission %s missing from manifest", testU.Permission(perm).Name)
		}
	}
	if len(p.ReceiverIntents) > 0 && len(m.ReceiverActions()) != len(p.ReceiverIntents) {
		t.Errorf("receiver actions = %d, want %d", len(m.ReceiverActions()), len(p.ReceiverIntents))
	}
}

func TestDexReflectsReferencedActivitiesOnly(t *testing.T) {
	g := testGen()
	for seed := int64(0); seed < 10; seed++ {
		p := g.Generate(benignSpec(seed))
		d, err := p.Dex(testU)
		if err != nil {
			t.Fatal(err)
		}
		classNames := make(map[string]bool)
		for _, c := range d.Classes {
			if c.IsActivity {
				classNames[c.Name] = true
			}
		}
		for i := range p.Activities {
			a := &p.Activities[i]
			if a.Referenced && !classNames[a.Name] {
				t.Errorf("referenced activity %s missing from dex", a.Name)
			}
			if !a.Referenced && classNames[a.Name] {
				t.Errorf("unreferenced activity %s present in dex", a.Name)
			}
		}
	}
}

func TestReferencedFractionNearPaper(t *testing.T) {
	g := testGen()
	declared, referenced := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		p := g.Generate(benignSpec(seed))
		declared += len(p.Activities)
		referenced += p.ReferencedActivityCount()
	}
	frac := float64(referenced) / float64(declared)
	// Paper §4.2: on average 88% of specified activities are referenced.
	if frac < 0.83 || frac < 0 || frac > 0.94 {
		t.Errorf("referenced fraction = %.3f, want ≈ 0.88", frac)
	}
}

func TestPermissionsCoverReflectionTargets(t *testing.T) {
	g := testGen()
	for seed := int64(0); seed < 20; seed++ {
		p := g.Generate(maliciousSpec(seed, FamilyReflectionEvader))
		perms := make(map[framework.PermissionID]bool)
		for _, id := range p.Permissions {
			perms[id] = true
		}
		for i := range p.Activities {
			for _, r := range p.Activities[i].Reflection {
				need := testU.API(r.API).Permission
				if need != framework.NoPermission && !perms[need] {
					t.Fatalf("seed %d: hidden API %d used without its permission", seed, r.API)
				}
			}
		}
	}
}

func TestBinomialMatchesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		n int
		p float64
	}{{10, 0.5}, {1000, 0.001}, {1000, 0.999}, {5000, 0.3}, {50, 0.02}}
	for _, tc := range cases {
		sum := 0
		const trials = 2000
		for i := 0; i < trials; i++ {
			k := binomial(rng, tc.n, tc.p)
			if k < 0 || k > tc.n {
				t.Fatalf("binomial(%d,%f) = %d out of range", tc.n, tc.p, k)
			}
			sum += k
		}
		mean := float64(sum) / trials
		want := float64(tc.n) * tc.p
		sd := math.Sqrt(float64(tc.n)*tc.p*(1-tc.p)/trials) + 0.05
		if math.Abs(mean-want) > 6*sd+0.02*want {
			t.Errorf("binomial(%d,%f) mean = %.2f, want ≈ %.2f", tc.n, tc.p, mean, want)
		}
	}
}

func TestPoissonMatchesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, lambda := range []float64{0.5, 5, 50, 500} {
		sum := 0
		const trials = 2000
		for i := 0; i < trials; i++ {
			sum += poisson(rng, lambda)
		}
		mean := float64(sum) / trials
		if math.Abs(mean-lambda) > 6*math.Sqrt(lambda/trials)+0.02*lambda {
			t.Errorf("poisson(%f) mean = %.2f", lambda, mean)
		}
	}
}

func TestPickDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%100) + 1
		k := int(kRaw) % (n + 5)
		got := pickDistinct(rng, n, k)
		wantLen := k
		if k > n {
			wantLen = n
		}
		if len(got) != wantLen {
			return false
		}
		seen := make(map[int]bool)
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmulatorCheckPrevalence(t *testing.T) {
	g := testGen()
	const n = 400
	benignChecks, malChecks := 0, 0
	for seed := int64(0); seed < n; seed++ {
		if g.Generate(benignSpec(seed)).EmulatorChecks != 0 {
			benignChecks++
		}
		if g.Generate(maliciousSpec(seed, Family(1+seed%NumFamilies))).EmulatorChecks != 0 {
			malChecks++
		}
	}
	if frac := float64(benignChecks) / n; frac > 0.16 {
		t.Errorf("benign check prevalence %.3f too high", frac)
	}
	if frac := float64(malChecks) / n; frac < 0.4 {
		t.Errorf("malware check prevalence %.3f too low", frac)
	}
}

// programWire, encodeReference and decodeReference are the behaviour-blob
// codec as it stood before the cursor rewrite (blob version 1: a gob
// stream of programWire), kept verbatim as the oracle
// TestDecodeMatchesReference and FuzzBehaviorMatchesReference hold the
// version 2 codec to: whatever Decode accepts must survive a trip through
// the old codec as a DeepEqual Program.
type programWire struct {
	PackageName         string
	Version             int
	Seed                int64
	Activities          []ActivityBehavior
	ReceiverIntents     []framework.IntentID
	Permissions         []framework.PermissionID
	EmulatorChecks      uint8
	SuppressOnEmulator  bool
	CrashBias           float64
	RequiresRealSensors bool
	NativeLibs          []string
	Payload             *Payload
}

func encodeReference(p *Program) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := programWire{
		PackageName:         p.PackageName,
		Version:             p.Version,
		Seed:                p.Seed,
		Activities:          p.Activities,
		ReceiverIntents:     p.ReceiverIntents,
		Permissions:         p.Permissions,
		EmulatorChecks:      p.EmulatorChecks,
		SuppressOnEmulator:  p.SuppressOnEmulator,
		CrashBias:           p.CrashBias,
		RequiresRealSensors: p.RequiresRealSensors,
		NativeLibs:          p.NativeLibs,
		Payload:             p.Payload,
	}
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("behavior: encode %s: %w", p.PackageName, err)
	}
	return buf.Bytes(), nil
}

func decodeReference(data []byte) (*Program, error) {
	var w programWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("behavior: decode: %w", err)
	}
	p := &Program{
		PackageName:         w.PackageName,
		Version:             w.Version,
		Seed:                w.Seed,
		Activities:          w.Activities,
		ReceiverIntents:     w.ReceiverIntents,
		Permissions:         w.Permissions,
		EmulatorChecks:      w.EmulatorChecks,
		SuppressOnEmulator:  w.SuppressOnEmulator,
		CrashBias:           w.CrashBias,
		RequiresRealSensors: w.RequiresRealSensors,
		NativeLibs:          w.NativeLibs,
		Payload:             w.Payload,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
