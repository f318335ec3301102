package adb

import (
	"context"
	"reflect"
	"testing"

	"apichecker/internal/apk"
	"apichecker/internal/behavior"
	"apichecker/internal/emulator"
	"apichecker/internal/framework"
	"apichecker/internal/hook"
	"apichecker/internal/monkey"
)

var (
	testU   = framework.MustGenerate(framework.TestConfig(3000))
	testGen = behavior.NewGenerator(testU)
)

func testRegistry(t *testing.T) *hook.Registry {
	t.Helper()
	return hook.MustNewRegistry(testU, testU.DesignedKeyAPIs())
}

func buildAPK(t *testing.T, pkg string, version int, seed int64) []byte {
	t.Helper()
	p := testGen.Generate(behavior.Spec{
		PackageName: pkg, Version: version, Seed: seed,
		Label: behavior.Benign, Category: behavior.CategoryTool,
	})
	data, err := apk.Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestInstallRunUninstallClear(t *testing.T) {
	dev := NewDevice("emulator-5554", emulator.GoogleEmulator, testRegistry(t))
	data := buildAPK(t, "com.adb.app", 3, 1)

	parsed, err := dev.Install(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := dev.InstalledPackages(); len(got) != 1 || got[0] != "com.adb.app" {
		t.Fatalf("installed = %v", got)
	}
	res, err := dev.RunMonkeyContext(context.Background(), parsed.PackageName(), monkey.ProductionConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 5000 {
		t.Errorf("events = %d", res.Events)
	}
	if dev.State() != StateDirty {
		t.Errorf("state after run = %v, want dirty", dev.State())
	}
	if len(dev.ResidualFiles("com.adb.app")) == 0 {
		t.Error("no residual data after emulation")
	}
	if err := dev.Uninstall("com.adb.app"); err != nil {
		t.Fatal(err)
	}
	if len(dev.ResidualFiles("com.adb.app")) == 0 {
		t.Error("uninstall removed residual data; only ClearData should")
	}
	dev.ClearData("com.adb.app")
	if !dev.Clean() || dev.State() != StateIdle {
		t.Errorf("device not clean/idle: state=%v", dev.State())
	}
	logcat := dev.Logcat()
	if len(logcat) == 0 {
		t.Error("empty logcat")
	}
	if second := dev.Logcat(); len(second) != 0 {
		t.Error("logcat not drained")
	}
}

func TestInstallRefusals(t *testing.T) {
	dev := NewDevice("emulator-5554", emulator.GoogleEmulator, testRegistry(t))
	if _, err := dev.Install([]byte("junk")); err == nil {
		t.Error("corrupt APK installed")
	}
	data := buildAPK(t, "com.adb.dup", 5, 2)
	if _, err := dev.Install(data); err != nil {
		t.Fatal(err)
	}
	// Same version again: downgrade/redundant refusal.
	if _, err := dev.Install(data); err == nil {
		t.Error("duplicate install accepted")
	}
	// Upgrade is fine.
	upgrade := buildAPK(t, "com.adb.dup", 6, 3)
	if _, err := dev.Install(upgrade); err != nil {
		t.Errorf("upgrade refused: %v", err)
	}
	// Dirty devices refuse installs.
	if _, err := dev.RunMonkeyContext(context.Background(), "com.adb.dup", monkey.ProductionConfig(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Install(buildAPK(t, "com.adb.other", 1, 4)); err == nil {
		t.Error("dirty device accepted install")
	}
}

func TestRunMonkeyRequiresInstall(t *testing.T) {
	dev := NewDevice("emulator-5554", emulator.GoogleEmulator, testRegistry(t))
	if _, err := dev.RunMonkeyContext(context.Background(), "com.not.there", monkey.ProductionConfig(1)); err == nil {
		t.Error("monkey ran on missing package")
	}
	if err := dev.Uninstall("com.not.there"); err == nil {
		t.Error("uninstalled missing package")
	}
}

func TestSessionVetLeavesDeviceClean(t *testing.T) {
	dev := NewDevice("emulator-5554", emulator.LightweightEmulator, testRegistry(t))
	s := NewSession(dev)
	for i := 0; i < 5; i++ {
		data := buildAPK(t, "com.adb.seq", i+1, int64(100+i))
		vr, err := s.Vet(data, monkey.ProductionConfig(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if vr.Run == nil || vr.Duration <= 0 {
			t.Fatalf("vet result %+v", vr)
		}
		if !dev.Clean() || dev.State() != StateIdle {
			t.Fatalf("device dirty after vet %d", i)
		}
		if len(vr.Logcat()) == 0 {
			t.Error("session lost the logcat")
		}
	}
}

func TestSessionVetCleansUpOnFailure(t *testing.T) {
	dev := NewDevice("emulator-5554", emulator.GoogleEmulator, testRegistry(t))
	s := NewSession(dev)
	if _, err := s.Vet([]byte("garbage"), monkey.ProductionConfig(1)); err == nil {
		t.Fatal("garbage vetted")
	}
	if !dev.Clean() || dev.State() != StateIdle {
		t.Error("device dirty after failed vet")
	}
	// Invalid monkey config fails mid-sequence; cleanup must still run.
	data := buildAPK(t, "com.adb.mid", 1, 9)
	if _, err := s.Vet(data, monkey.Config{Events: 0}); err == nil {
		t.Fatal("invalid monkey config accepted")
	}
	if !dev.Clean() || dev.State() != StateIdle {
		t.Errorf("device dirty after mid-sequence failure: state=%v installed=%v",
			dev.State(), dev.InstalledPackages())
	}
}

// TestLogcatMatchesRecordedTranscript: the device records what each logcat
// line says and formats on drain. The transcripts below were printed by the
// fmt.Sprintf calls the device made per line before that (4d11e0c's adb.go
// over this emulator), for one clean run, one crash-restart and one
// fallback; the drained log must be those lines, in that order.
func TestLogcatMatchesRecordedTranscript(t *testing.T) {
	activities := func(ids ...string) []string {
		out := []string{"ActivityManager: START u0 {cmp=com.adb.log.MainActivity}"}
		for _, id := range ids {
			out = append(out, "ActivityManager: START u0 {cmp=com.adb.log.Activity"+id+"}")
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		seed       int64
		activities []string
		after      []string // between the activity starts and the uninstall
	}{
		{"clean", 0, activities("2", "3", "5", "7", "8", "10"), nil},
		{"crash-restart", 13, activities("1", "3", "4", "5", "7", "8"),
			[]string{"SystemServer: process com.adb.log crashed, restarting emulation"}},
		{"fallback", 84, activities("2", "3", "4", "5", "6", "7", "8", "10", "12"),
			[]string{"SystemServer: com.adb.log incompatible with x86 engine, fell back to google-emulator"}},
	} {
		want := []string{
			"PackageManager: installed com.adb.log versionCode=2",
			"Monkey: injected 5000 events into com.adb.log",
		}
		want = append(want, tc.activities...)
		want = append(want, tc.after...)
		want = append(want, "PackageManager: uninstalled com.adb.log", "pm clear com.adb.log: OK")

		dev := NewDevice("emulator-5554", emulator.LightweightEmulator, testRegistry(t))
		vr, err := NewSession(dev).Vet(buildAPK(t, "com.adb.log", 2, tc.seed), monkey.ProductionConfig(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		if got := vr.Logcat(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: logcat\n%q\nwant\n%q", tc.name, got, want)
		}
		// The cleanup that runs after the session's drain stays with the
		// device, as it always has.
		if got := dev.Logcat(); !reflect.DeepEqual(got, []string{"pm clear com.adb.log: OK"}) {
			t.Errorf("%s: device log after the session: %q", tc.name, got)
		}
	}
}
