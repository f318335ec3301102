package emulator

import (
	"reflect"
	"testing"
	"time"

	"apichecker/internal/behavior"
	"apichecker/internal/framework"
	"apichecker/internal/hook"
	"apichecker/internal/monkey"
)

var (
	testU   = framework.MustGenerate(framework.TestConfig(3000))
	testGen = behavior.NewGenerator(testU)
)

func prog(seed int64, label behavior.Label, fam behavior.Family) *behavior.Program {
	return testGen.Generate(behavior.Spec{
		PackageName: "com.emu.test", Version: 1, Seed: seed,
		Label: label, Family: fam, Category: behavior.CategoryGame,
	})
}

func registryAll(t *testing.T) *hook.Registry {
	t.Helper()
	var ids []framework.APIID
	for _, a := range testU.APIs() {
		if !a.Hidden {
			ids = append(ids, a.ID)
		}
	}
	return hook.MustNewRegistry(testU, ids)
}

func registryNone(t *testing.T) *hook.Registry {
	t.Helper()
	return hook.MustNewRegistry(testU, nil)
}

func mk(seed int64) monkey.Config { return monkey.ProductionConfig(seed) }

func TestRunDeterministic(t *testing.T) {
	e := New(GoogleEmulator, registryAll(t))
	p := prog(1, behavior.Benign, behavior.FamilyNone)
	r1, err := e.Run(p, mk(9))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(p, mk(9))
	if err != nil {
		t.Fatal(err)
	}
	if r1.VirtualTime != r2.VirtualTime || r1.Log.TotalInvocations != r2.Log.TotalInvocations {
		t.Errorf("same run differs: %v/%d vs %v/%d",
			r1.VirtualTime, r1.Log.TotalInvocations, r2.VirtualTime, r2.Log.TotalInvocations)
	}
}

func TestTrackingCostsTime(t *testing.T) {
	p := prog(2, behavior.Benign, behavior.FamilyNone)
	none, err := New(GoogleEmulator, registryNone(t)).Run(p, mk(1))
	if err != nil {
		t.Fatal(err)
	}
	all, err := New(GoogleEmulator, registryAll(t)).Run(p, mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if none.Log.Intercepted != 0 {
		t.Errorf("untracked run intercepted %d invocations", none.Log.Intercepted)
	}
	if all.Log.Intercepted == 0 {
		t.Fatal("tracked run intercepted nothing")
	}
	if all.VirtualTime <= none.VirtualTime {
		t.Errorf("tracking all APIs (%v) not slower than none (%v)", all.VirtualTime, none.VirtualTime)
	}
	// Total invocation volume must not depend on the tracked set.
	if all.Log.TotalInvocations != none.Log.TotalInvocations {
		t.Errorf("total invocations depend on tracking: %d vs %d",
			all.Log.TotalInvocations, none.Log.TotalInvocations)
	}
}

func TestLightweightFasterThanGoogle(t *testing.T) {
	reg := registryAll(t)
	var google, light time.Duration
	for seed := int64(0); seed < 20; seed++ {
		p := prog(seed, behavior.Benign, behavior.FamilyNone)
		g, err := New(GoogleEmulator, reg).Run(p, mk(seed))
		if err != nil {
			t.Fatal(err)
		}
		l, err := New(LightweightEmulator, reg).Run(p, mk(seed))
		if err != nil {
			t.Fatal(err)
		}
		google += g.VirtualTime
		light += l.VirtualTime
	}
	saving := 1 - float64(light)/float64(google)
	// §5.1: ~70% reduction.
	if saving < 0.5 || saving > 0.85 {
		t.Errorf("lightweight saving = %.2f, want ≈ 0.7", saving)
	}
}

func TestIncompatibleAppFallsBack(t *testing.T) {
	reg := registryNone(t)
	found := false
	for seed := int64(0); seed < 400 && !found; seed++ {
		p := prog(seed, behavior.Benign, behavior.FamilyNone)
		if p.CrashBias <= incompatibleThreshold {
			continue
		}
		found = true
		res, err := New(LightweightEmulator, reg).Run(p, mk(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !res.FellBack {
			t.Error("incompatible app did not fall back")
		}
		if res.Profile != GoogleEmulator.Name {
			t.Errorf("fallback profile = %s", res.Profile)
		}
	}
	if !found {
		t.Skip("no incompatible app in seed range")
	}
}

func TestEmulatorDetectionMatrix(t *testing.T) {
	reg := registryAll(t)
	// Find a malicious program that runs probes and suppresses.
	var p *behavior.Program
	for seed := int64(0); seed < 200; seed++ {
		c := prog(seed, behavior.Malicious, behavior.FamilySpyware)
		if c.EmulatorChecks != 0 && c.SuppressOnEmulator && !c.RequiresRealSensors {
			p = c
			break
		}
	}
	if p == nil {
		t.Fatal("no probing program found")
	}

	stock, err := New(StockGoogleEmulator, reg).Run(p, mk(3))
	if err != nil {
		t.Fatal(err)
	}
	hardened, err := New(GoogleEmulator, reg).Run(p, mk(3))
	if err != nil {
		t.Fatal(err)
	}
	real, err := New(RealDevice, reg).Run(p, mk(3))
	if err != nil {
		t.Fatal(err)
	}
	if !stock.Detected || !stock.Suppressed {
		t.Error("stock emulator not detected by probing app")
	}
	if hardened.Detected {
		t.Error("hardened emulator detected despite hardening")
	}
	if real.Detected {
		t.Error("real device detected as emulator")
	}
	// Suppression hides behaviour: the stock run must see fewer distinct
	// APIs than the real device.
	if stock.Log.DistinctInvoked() >= real.Log.DistinctInvoked() {
		t.Errorf("suppressed run saw %d distinct APIs, real device %d",
			stock.Log.DistinctInvoked(), real.Log.DistinctInvoked())
	}
	// The hardened emulator matches the real device.
	if hardened.Log.DistinctInvoked() != real.Log.DistinctInvoked() {
		t.Errorf("hardened emulator saw %d distinct APIs, real device %d",
			hardened.Log.DistinctInvoked(), real.Log.DistinctInvoked())
	}
}

func TestUnrealisticMonkeyTriggersTimingProbe(t *testing.T) {
	reg := registryAll(t)
	var p *behavior.Program
	for seed := int64(0); seed < 300; seed++ {
		c := prog(seed, behavior.Malicious, behavior.FamilyOverlay)
		if c.EmulatorChecks&behavior.CheckInputTiming != 0 {
			p = c
			break
		}
	}
	if p == nil {
		t.Fatal("no timing-probing program found")
	}
	fast := monkey.Config{Events: 5000, ThrottleMs: 0, PctTouch: 0.99, Seed: 1}
	res, err := New(GoogleEmulator, reg).Run(p, fast)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Error("machine-gun Monkey not detected by timing probe")
	}
}

func TestRACIncreasesWithEvents(t *testing.T) {
	reg := registryNone(t)
	e := New(GoogleEmulator, reg)
	var rac5k, rac100k float64
	const n = 60
	for seed := int64(0); seed < n; seed++ {
		p := prog(seed, behavior.Benign, behavior.FamilyNone)
		small, err := e.Run(p, monkey.Config{Events: 5000, ThrottleMs: 500, PctTouch: 0.65, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		big, err := e.Run(p, monkey.Config{Events: 100000, ThrottleMs: 500, PctTouch: 0.65, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rac5k += small.RAC
		rac100k += big.RAC
	}
	rac5k /= n
	rac100k /= n
	// §4.2: ≈76.5% at 5K events, ≈86% at 100K.
	if rac5k < 0.68 || rac5k > 0.85 {
		t.Errorf("RAC(5K) = %.3f, want ≈ 0.765", rac5k)
	}
	if rac100k <= rac5k || rac100k < 0.8 || rac100k > 0.93 {
		t.Errorf("RAC(100K) = %.3f (5K = %.3f), want ≈ 0.86", rac100k, rac5k)
	}
}

func TestVirtualTimeNearPaperBase(t *testing.T) {
	reg := registryNone(t)
	e := New(GoogleEmulator, reg)
	var total time.Duration
	const n = 120
	for seed := int64(0); seed < n; seed++ {
		p := prog(seed, behavior.Benign, behavior.FamilyNone)
		res, err := e.Run(p, mk(seed))
		if err != nil {
			t.Fatal(err)
		}
		total += res.VirtualTime
	}
	mean := (total / n).Minutes()
	// Fig. 3: mean 2.1 min with no tracking.
	if mean < 1.6 || mean > 2.8 {
		t.Errorf("mean untracked time = %.2f min, want ≈ 2.1", mean)
	}
}

// TestHardenedEngineLeavesSharedRegistryAlone: building a hardened engine
// on a registry must not change what another engine on the same registry
// records — the Authenticity experiment runs its stock, hardened and device
// engines over one registry.
func TestHardenedEngineLeavesSharedRegistryAlone(t *testing.T) {
	id, ok := testU.LookupAPI("android.net.wifi.WifiInfo.getMacAddress")
	if !ok {
		t.Fatal("anchor API missing")
	}
	reg := hook.MustNewRegistry(testU, []framework.APIID{id})
	stock := New(StockGoogleEmulator, reg)
	for seed := int64(0); seed < 500; seed++ {
		p := prog(seed, behavior.Malicious, behavior.FamilySpyware)
		before, err := stock.Run(p, mk(seed))
		if err != nil {
			t.Fatal(err)
		}
		if before.Log.Invocation(id) == nil {
			continue
		}
		New(GoogleEmulator, reg)
		after, err := stock.Run(p, mk(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before.Log, after.Log) {
			t.Errorf("seed %d: the stock engine's log changed once a hardened engine shared its registry:\n%+v\n%+v",
				seed, before.Log.Invocation(id), after.Log.Invocation(id))
		}
		return
	}
	t.Fatal("no program invoked the anchor API")
}

func TestRunRejectsInvalidInputs(t *testing.T) {
	e := New(GoogleEmulator, registryNone(t))
	p := prog(1, behavior.Benign, behavior.FamilyNone)
	if _, err := e.Run(p, monkey.Config{Events: 0}); err == nil {
		t.Error("Run accepted invalid monkey config")
	}
	bad := *p
	bad.Activities = nil
	if _, err := e.Run(&bad, mk(1)); err == nil {
		t.Error("Run accepted invalid program")
	}
}
