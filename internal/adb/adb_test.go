package adb

import (
	"context"
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
		if len(vr.Logcat) == 0 {
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
