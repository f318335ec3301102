// Package adb is the device control plane: the Android-debug-bridge layer
// the production system drives emulators through (§4.2: "we sequentially
// execute adb commands to automatically install the app, run the Monkey UI
// exerciser, record the running logs, uninstall the app, and clear up the
// residual data").
//
// A Device wraps one emulator instance with package-manager state, a
// logcat buffer, and residual-data tracking; a Session performs the full
// per-app vetting sequence with guaranteed cleanup, so one submission can
// never contaminate the next (stale caches and leftover databases are a
// classic source of cross-app contamination in emulator farms).
package adb

import (
	"context"
	"fmt"
	"sort"
	"time"

	"apichecker/internal/apk"
	"apichecker/internal/emulator"
	"apichecker/internal/hook"
	"apichecker/internal/monkey"
)

// DeviceState tracks a device's lifecycle.
type DeviceState uint8

const (
	// StateIdle: ready for the next app.
	StateIdle DeviceState = iota
	// StateBusy: an emulation is in flight.
	StateBusy
	// StateDirty: the last app was not cleaned up; installing is
	// refused until ClearData runs.
	StateDirty
)

func (s DeviceState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateBusy:
		return "busy"
	case StateDirty:
		return "dirty"
	}
	return fmt.Sprintf("DeviceState(%d)", uint8(s))
}

// Device is one controlled emulator instance.
type Device struct {
	serial string
	emu    *emulator.Emulator

	state     DeviceState
	installed map[string]*apk.APK
	// residual tracks per-package leftover files (databases, caches)
	// created during emulation; uninstalling does NOT remove them —
	// that is what "clear up the residual data" is for.
	residual map[string][]string
	log      []logEntry
}

// logKind names one logcat line's shape.
type logKind uint8

const (
	logInstalled logKind = iota // n is the version code
	logMonkey                   // n is the event count
	logActivity                 // arg is the activity started
	logCrashed
	logFellBack // arg is the engine fallen back to
	logUninstalled
	logCleared
)

// logEntry is one recorded logcat line. The device keeps what a line says,
// not the line: a vet records a dozen of these and nobody reads them, so
// the text is made by Logcat, for the reader that drains it.
type logEntry struct {
	kind     logKind
	pkg, arg string
	n        int
}

func (e logEntry) String() string {
	switch e.kind {
	case logInstalled:
		return fmt.Sprintf("PackageManager: installed %s versionCode=%d", e.pkg, e.n)
	case logMonkey:
		return fmt.Sprintf("Monkey: injected %d events into %s", e.n, e.pkg)
	case logActivity:
		return fmt.Sprintf("ActivityManager: START u0 {cmp=%s}", e.arg)
	case logCrashed:
		return fmt.Sprintf("SystemServer: process %s crashed, restarting emulation", e.pkg)
	case logFellBack:
		return fmt.Sprintf("SystemServer: %s incompatible with x86 engine, fell back to %s", e.pkg, e.arg)
	case logUninstalled:
		return fmt.Sprintf("PackageManager: uninstalled %s", e.pkg)
	default:
		return fmt.Sprintf("pm clear %s: OK", e.pkg)
	}
}

func formatLog(entries []logEntry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.String()
	}
	return out
}

// NewDevice creates a device over an emulation profile and hook registry.
func NewDevice(serial string, profile emulator.Profile, reg *hook.Registry) *Device {
	return &Device{
		serial:    serial,
		emu:       emulator.New(profile, reg),
		installed: make(map[string]*apk.APK),
		residual:  make(map[string][]string),
	}
}

// State returns the device lifecycle state.
func (d *Device) State() DeviceState { return d.state }

// Emulator returns the underlying engine.
func (d *Device) Emulator() *emulator.Emulator { return d.emu }

// InstalledPackages lists installed package names, sorted.
func (d *Device) InstalledPackages() []string {
	out := make([]string, 0, len(d.installed))
	for pkg := range d.installed {
		out = append(out, pkg)
	}
	sort.Strings(out)
	return out
}

// ResidualFiles returns leftover files for a package.
func (d *Device) ResidualFiles(pkg string) []string { return d.residual[pkg] }

// Logcat drains the device log buffer, formatting its lines.
func (d *Device) Logcat() []string { return formatLog(d.drain()) }

// drain empties the log buffer into an exactly-sized copy; the buffer's
// storage stays with the device for the next app.
func (d *Device) drain() []logEntry {
	out := append([]logEntry(nil), d.log...)
	d.log = d.log[:0]
	return out
}

func (d *Device) record(e logEntry) { d.log = append(d.log, e) }

// Install parses and installs an APK. It refuses on a busy/dirty device,
// on corrupt archives, and on duplicate installs.
func (d *Device) Install(data []byte) (*apk.APK, error) {
	if d.state != StateIdle {
		return nil, fmt.Errorf("adb: %s: install on %s device", d.serial, d.state)
	}
	parsed, err := apk.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("adb: %s: install: %w", d.serial, err)
	}
	return parsed, d.installParsed(parsed)
}

// InstallParsed installs an already-parsed APK (the simulation fast path).
func (d *Device) InstallParsed(parsed *apk.APK) error {
	if d.state != StateIdle {
		return fmt.Errorf("adb: %s: install on %s device", d.serial, d.state)
	}
	return d.installParsed(parsed)
}

func (d *Device) installParsed(parsed *apk.APK) error {
	pkg := parsed.PackageName()
	if existing, dup := d.installed[pkg]; dup {
		if existing.VersionCode() >= parsed.VersionCode() {
			return fmt.Errorf("adb: %s: INSTALL_FAILED_VERSION_DOWNGRADE: %s %d <= %d",
				d.serial, pkg, parsed.VersionCode(), existing.VersionCode())
		}
	}
	d.installed[pkg] = parsed
	d.record(logEntry{kind: logInstalled, pkg: pkg, n: parsed.VersionCode()})
	return nil
}

// RunMonkeyContext exercises an installed package and records the run into
// the logcat buffer (activity starts, crash reports, fallback notices). A
// cancelled or expired context aborts the emulation at the next
// crash-restart or event-batch boundary. The device is left dirty (exactly as a real aborted run would),
// so the session cleanup path still applies.
func (d *Device) RunMonkeyContext(ctx context.Context, pkg string, mk monkey.Config) (*emulator.Result, error) {
	parsed, ok := d.installed[pkg]
	if !ok {
		return nil, fmt.Errorf("adb: %s: monkey: package %s not installed", d.serial, pkg)
	}
	if d.state != StateIdle {
		return nil, fmt.Errorf("adb: %s: monkey on %s device", d.serial, d.state)
	}
	d.state = StateBusy
	defer func() { d.state = StateDirty }()

	res, err := d.emu.RunContext(ctx, parsed.Program, mk)
	if err != nil {
		return nil, fmt.Errorf("adb: %s: monkey %s: %w", d.serial, pkg, err)
	}
	d.record(logEntry{kind: logMonkey, pkg: pkg, n: res.Events})
	for _, act := range res.Log.ReachedActivities {
		d.record(logEntry{kind: logActivity, arg: act})
	}
	for i := 0; i < res.Crashed; i++ {
		d.record(logEntry{kind: logCrashed, pkg: pkg})
	}
	if res.FellBack {
		d.record(logEntry{kind: logFellBack, pkg: pkg, arg: res.Profile})
	}
	// Emulation leaves app data behind.
	d.residual[pkg] = []string{
		"/data/data/" + pkg + "/databases/app.db",
		"/data/data/" + pkg + "/cache/webview",
		"/sdcard/Android/data/" + pkg,
	}
	return res, nil
}

// Uninstall removes the package but deliberately leaves residual data
// (matching pm uninstall semantics without the clear step).
func (d *Device) Uninstall(pkg string) error {
	if _, ok := d.installed[pkg]; !ok {
		return fmt.Errorf("adb: %s: uninstall: package %s not installed", d.serial, pkg)
	}
	delete(d.installed, pkg)
	d.record(logEntry{kind: logUninstalled, pkg: pkg})
	return nil
}

// ClearData removes a package's residual files and returns the device to
// idle.
func (d *Device) ClearData(pkg string) {
	delete(d.residual, pkg)
	if len(d.residual) == 0 && len(d.installed) == 0 && d.state == StateDirty {
		d.state = StateIdle
	}
	d.record(logEntry{kind: logCleared, pkg: pkg})
}

// Clean reports whether the device carries no apps and no residual data.
func (d *Device) Clean() bool {
	return len(d.installed) == 0 && len(d.residual) == 0
}

// Session performs the §4.2 per-app sequence with guaranteed cleanup.
type Session struct {
	dev *Device
}

// NewSession wraps a device.
func NewSession(dev *Device) *Session { return &Session{dev: dev} }

// VetResult is the outcome of one full device session.
type VetResult struct {
	APK      *apk.APK
	Run      *emulator.Result
	Duration time.Duration // virtual time incl. the run

	log []logEntry
}

// Logcat formats the session's device log.
func (r *VetResult) Logcat() []string { return formatLog(r.log) }

// Vet installs, exercises, uninstalls and cleans in order, returning the
// run result and the session's device log. The device is guaranteed idle and
// clean afterwards, whatever happened in between.
func (s *Session) Vet(data []byte, mk monkey.Config) (*VetResult, error) {
	return s.VetContext(context.Background(), data, mk)
}

// VetContext is Vet under a context. A context that expires mid-run aborts
// the emulation; the cleanup sequence (uninstall, clear residual data)
// still runs, so the device comes back idle and clean either way.
func (s *Session) VetContext(ctx context.Context, data []byte, mk monkey.Config) (*VetResult, error) {
	parsed, err := s.dev.Install(data)
	if err != nil {
		return nil, err
	}
	return s.finish(ctx, parsed, mk)
}

// VetParsedContext is VetContext for an already-parsed APK: the pipeline's
// decode stage has already unpacked the archive, so the device sequence
// starts at install. Run results are bit-identical to VetContext over the same
// serialized bytes.
func (s *Session) VetParsedContext(ctx context.Context, parsed *apk.APK, mk monkey.Config) (*VetResult, error) {
	if err := s.dev.InstallParsed(parsed); err != nil {
		return nil, err
	}
	return s.finish(ctx, parsed, mk)
}

func (s *Session) finish(ctx context.Context, parsed *apk.APK, mk monkey.Config) (*VetResult, error) {
	pkg := parsed.PackageName()
	defer func() {
		// Cleanup must run even on failure paths.
		if _, still := s.dev.installed[pkg]; still {
			_ = s.dev.Uninstall(pkg)
		}
		s.dev.ClearData(pkg)
	}()
	res, err := s.dev.RunMonkeyContext(ctx, pkg, mk)
	if err != nil {
		return nil, err
	}
	if err := s.dev.Uninstall(pkg); err != nil {
		return nil, err
	}
	s.dev.ClearData(pkg)
	if !s.dev.Clean() {
		return nil, fmt.Errorf("adb: %s: residual state after vetting %s", s.dev.serial, pkg)
	}
	return &VetResult{
		APK:      parsed,
		Run:      res,
		Duration: res.VirtualTime,
		log:      s.dev.drain(),
	}, nil
}
