package staticanalysis

import (
	"testing"

	"apichecker/internal/apk"
	"apichecker/internal/behavior"
	"apichecker/internal/framework"
	"apichecker/internal/manifest"
)

var (
	testU   = framework.MustGenerate(framework.TestConfig(3000))
	testGen = behavior.NewGenerator(testU)
)

func analyzed(t *testing.T, seed int64, label behavior.Label, fam behavior.Family) (*behavior.Program, *Report) {
	t.Helper()
	p := testGen.Generate(behavior.Spec{
		PackageName: "com.static.test", Version: 1, Seed: seed,
		Label: label, Family: fam, Category: behavior.CategoryNews,
	})
	_, parsed, err := apk.BuildAndParse(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Analyze(parsed, testU)
	if err != nil {
		t.Fatal(err)
	}
	return p, r
}

func TestAnalyzeBasics(t *testing.T) {
	p, r := analyzed(t, 1, behavior.Benign, behavior.FamilyNone)
	if r.Package != p.PackageName || r.VersionCode != p.Version {
		t.Errorf("identity %s/%d", r.Package, r.VersionCode)
	}
	if len(r.DeclaredActivities) != len(p.Activities) {
		t.Errorf("declared = %d, want %d", len(r.DeclaredActivities), len(p.Activities))
	}
	if got, want := len(r.ReferencedActivities), p.ReferencedActivityCount(); got != want {
		t.Errorf("referenced = %d, want %d", got, want)
	}
	if len(r.Permissions) != len(p.Permissions) || r.UnknownPermissions != 0 {
		t.Errorf("permissions = %d (unknown %d), want %d",
			len(r.Permissions), r.UnknownPermissions, len(p.Permissions))
	}
	if r.UnknownAPIs != 0 {
		t.Errorf("unknown APIs = %d, want 0", r.UnknownAPIs)
	}
	if n := len(r.ReferencedActivities); n == 0 || n > len(r.DeclaredActivities) {
		t.Errorf("referenced %d of %d declared activities", n, len(r.DeclaredActivities))
	}
}

func TestStaticSeesDirectAPIs(t *testing.T) {
	p, r := analyzed(t, 2, behavior.Malicious, behavior.FamilySpyware)
	want := make(map[framework.APIID]bool)
	for i := range p.Activities {
		if !p.Activities[i].Referenced {
			continue
		}
		for _, rate := range p.Activities[i].Direct {
			want[rate.API] = true
		}
	}
	got := make(map[framework.APIID]bool)
	for _, id := range r.DirectAPIs {
		got[id] = true
	}
	for id := range want {
		if !got[id] {
			t.Errorf("direct API %d missing from static report", id)
		}
	}
}

func TestStaticBlindToReflectionTargets(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p, r := analyzed(t, seed, behavior.Malicious, behavior.FamilyReflectionEvader)
		hasReflection := false
		for i := range p.Activities {
			if len(p.Activities[i].Reflection) > 0 && p.Activities[i].Referenced {
				hasReflection = true
			}
		}
		if !hasReflection {
			continue
		}
		if !r.UsesReflection {
			t.Error("reflection sites not flagged")
		}
		// The hidden targets must not be resolvable.
		for _, id := range r.DirectAPIs {
			if testU.API(id).Hidden {
				t.Errorf("hidden API %d leaked into static view", id)
			}
		}
		return
	}
	t.Skip("no reflecting program generated")
}

func TestStaticBlindToPayload(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p, r := analyzed(t, seed, behavior.Malicious, behavior.FamilyUpdateAttack)
		if p.Payload == nil {
			continue
		}
		if !r.LoadsDynamicCode {
			t.Error("dynamic code loading not flagged")
		}
		inStatic := make(map[framework.APIID]bool)
		for _, id := range r.DirectAPIs {
			inStatic[id] = true
		}
		for _, a := range p.Payload.Activities {
			for _, rate := range a.Direct {
				if inStatic[rate.API] {
					t.Errorf("payload API %d visible statically", rate.API)
				}
			}
		}
		return
	}
	t.Fatal("no payload program generated")
}

func TestIntentActionsUnionManifestAndCode(t *testing.T) {
	p, r := analyzed(t, 3, behavior.Malicious, behavior.FamilyIntentEvader)
	want := make(map[framework.IntentID]bool)
	for _, id := range p.ReceiverIntents {
		want[id] = true
	}
	got := make(map[framework.IntentID]bool)
	for _, id := range r.IntentActions {
		got[id] = true
	}
	for id := range want {
		if !got[id] {
			t.Errorf("receiver intent %d missing from static view", id)
		}
	}
}

// TestAnalyzeEmptyManifest: an APK whose manifest declares nothing — no
// activities, permissions, or receivers — analyzes cleanly, with no
// referenced activities and empty feature sets.
func TestAnalyzeEmptyManifest(t *testing.T) {
	p := testGen.Generate(behavior.Spec{
		PackageName: "com.static.empty", Version: 1, Seed: 41,
		Label: behavior.Benign, Family: behavior.FamilyNone, Category: behavior.CategoryNews,
	})
	_, parsed, err := apk.BuildAndParse(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	parsed.Manifest = manifest.New("com.static.empty", 1)
	r, err := Analyze(parsed, testU)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.DeclaredActivities) != 0 || len(r.ReferencedActivities) != 0 {
		t.Errorf("activities leaked into empty-manifest report: %v / %v",
			r.DeclaredActivities, r.ReferencedActivities)
	}
	if len(r.Permissions) != 0 || r.UnknownPermissions != 0 {
		t.Errorf("permissions leaked into empty-manifest report: %v (unknown %d)",
			r.Permissions, r.UnknownPermissions)
	}
}

// TestAnalyzeDuplicatePermissionsNotDoubleCounted: repeated
// <uses-permission> entries must not inflate the resolved permission list
// or the unknown counter — PermissionNames dedupes before universe
// resolution, so the report matches the single-entry manifest exactly.
func TestAnalyzeDuplicatePermissionsNotDoubleCounted(t *testing.T) {
	p, base := analyzed(t, 5, behavior.Malicious, behavior.FamilySpyware)
	_, parsed, err := apk.BuildAndParse(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	dup := append([]manifest.UsesPerm(nil), parsed.Manifest.Permissions...)
	dup = append(dup, parsed.Manifest.Permissions...) // every entry twice
	dup = append(dup,
		manifest.UsesPerm{Name: "com.fake.permission.NOT_IN_UNIVERSE"},
		manifest.UsesPerm{Name: "com.fake.permission.NOT_IN_UNIVERSE"})
	parsed.Manifest.Permissions = dup

	r, err := Analyze(parsed, testU)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Permissions) != len(base.Permissions) {
		t.Errorf("duplicated manifest resolved %d permissions, want %d",
			len(r.Permissions), len(base.Permissions))
	}
	for i := range base.Permissions {
		if r.Permissions[i] != base.Permissions[i] {
			t.Errorf("permission[%d] = %d, want %d", i, r.Permissions[i], base.Permissions[i])
		}
	}
	if r.UnknownPermissions != 1 {
		t.Errorf("UnknownPermissions = %d, want 1 (duplicates collapsed)", r.UnknownPermissions)
	}
}

func TestAnalyzeRejectsIncomplete(t *testing.T) {
	if _, err := Analyze(nil, testU); err == nil {
		t.Error("Analyze accepted nil APK")
	}
	if _, err := Analyze(&apk.APK{}, testU); err == nil {
		t.Error("Analyze accepted empty APK")
	}
}

func TestCorpusReferencedRatioNearPaper(t *testing.T) {
	sum, n := 0.0, 0
	for seed := int64(0); seed < 150; seed++ {
		_, r := analyzed(t, seed, behavior.Benign, behavior.FamilyNone)
		if d := len(r.DeclaredActivities); d > 0 {
			sum += float64(len(r.ReferencedActivities)) / float64(d)
		}
		n++
	}
	mean := sum / float64(n)
	// §4.2: on average only 88% of specified activities are referenced.
	if mean < 0.82 || mean > 0.94 {
		t.Errorf("mean referenced ratio = %.3f, want ≈ 0.88", mean)
	}
}
