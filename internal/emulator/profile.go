// Package emulator is the app-execution substrate: a discrete-event model
// of running an Android app under instrumentation, with a virtual clock
// calibrated to the paper's measured timing distributions.
//
// Two emulation engines exist (§4.2, §5.1):
//
//   - Google: the stock QEMU-based full-system emulator. Faithful but
//     slow — it pays full ARM system emulation on every instruction.
//   - Lightweight: Android-x86 with Intel Houdini ARM→x86 binary
//     translation, running one emulator per core on an x86 server. It cuts
//     per-app analysis time by ~70% but a small population of apps is
//     incompatible and falls back to the Google engine.
//
// Orthogonally, an engine can be hardened (§4.2's four improvements:
// realistic device identity, human-paced inputs, sensor-trace replay, and
// hidden hooking artifacts), which defeats emulator-detection probes, and
// there is a RealDevice profile used as the authenticity baseline.
package emulator

import "time"

// ProductionLanes is the deployed per-server emulator count (§4.2, §5.1:
// 16 emulators on one 5×4-core x86 server, the remaining cores scheduling,
// monitoring and logging). The serving layers default their lane counts to
// it; the engine itself is stateless and bounds nothing.
const ProductionLanes = 16

// Profile describes one execution environment.
type Profile struct {
	Name string

	// PerEvent is the median cost of executing one Monkey event
	// (includes app think time). Calibrated so 5K events ≈ 2.1 min on
	// the Google engine with no tracking (Fig. 3).
	PerEvent time.Duration

	// PerHook is the interception overhead per tracked API invocation.
	// Calibrated so tracking all 50K APIs ≈ 53.6 min mean (Fig. 3).
	PerHook time.Duration

	// SpeedSigma is the lognormal sigma of per-app speed variation.
	SpeedSigma float64

	// SpeedMin/SpeedMax clamp the per-app speed multiplier (the paper's
	// CDFs have finite support: 0.57-5.8 min with no tracking).
	SpeedMin, SpeedMax float64

	// Hardened engines defeat build-prop, sensor and hook-artifact
	// probes (input-timing resistance additionally needs a realistic
	// Monkey configuration).
	Hardened bool

	// RealDevice marks the physical-phone baseline: no emulation to
	// detect, live sensors available.
	RealDevice bool

	// CompatRisk marks engines whose OS port + binary translation can
	// fail on some apps (the lightweight engine; §5.1 reports < 1%).
	CompatRisk bool

	// Fallback is the engine incompatible apps are re-run on.
	Fallback *Profile
}

// Timing calibration (see DESIGN.md §2): the Google engine's measured
// means are 2.1 min for 5K untracked events and 53.6 min when tracking all
// 50K APIs over a mean of 42.3M invocations — i.e. ~25.2 ms/event and
// ~73 µs/interception. The lightweight engine saves ~70% of both.
var (
	// GoogleEmulator is the stock QEMU-based engine, hardened as
	// deployed in the collaborative study (§4.2).
	GoogleEmulator = Profile{
		Name:       "google-emulator",
		PerEvent:   25200 * time.Microsecond,
		PerHook:    73 * time.Microsecond,
		SpeedSigma: 0.42,
		SpeedMin:   0.27,
		SpeedMax:   2.76,
		Hardened:   true,
	}

	// StockGoogleEmulator is the same engine before the four hardening
	// improvements; used only in the authenticity experiment (§4.2).
	StockGoogleEmulator = Profile{
		Name:       "google-emulator-stock",
		PerEvent:   25200 * time.Microsecond,
		PerHook:    73 * time.Microsecond,
		SpeedSigma: 0.42,
		SpeedMin:   0.27,
		SpeedMax:   2.76,
		Hardened:   false,
	}

	// LightweightEmulator is the Android-x86 + Houdini engine (§5.1).
	LightweightEmulator = Profile{
		Name:       "lightweight-x86",
		PerEvent:   7560 * time.Microsecond,
		PerHook:    22 * time.Microsecond,
		SpeedSigma: 0.42,
		SpeedMin:   0.27,
		SpeedMax:   2.76,
		Hardened:   true,
		CompatRisk: true,
		Fallback:   &GoogleEmulator,
	}

	// RealDevice is the Nexus-6 style physical baseline.
	RealDevice = Profile{
		Name:       "real-device",
		PerEvent:   20000 * time.Microsecond,
		PerHook:    60 * time.Microsecond,
		SpeedSigma: 0.42,
		SpeedMin:   0.27,
		SpeedMax:   2.76,
		Hardened:   true, // nothing to detect
		RealDevice: true,
	}
)
