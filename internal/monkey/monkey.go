// Package monkey is the configuration of the UI exerciser (the paper drives
// apps with Android's Monkey, §4.2): how many events, at what pace and
// touch ratio, and which exploration strategy. The emulator turns it into a
// run, drawing from its own stream seeded by Config.Seed.
//
// Two properties of the configuration matter to the detection system:
//
//   - Volume: more events reach more activities (higher RAC) but cost more
//     emulation time. The production configuration is 5,000 events,
//     trading 9.5% of RAC for 94% of the time (Fig. 1).
//   - Realism: malware fingerprints machine-generated input by timing and
//     event mix. The hardened configuration paces inputs at human-like
//     intervals (throttle ≈ 500 ms) and keeps touch events dominant
//     (50-80%), defeating input-timing probes.
package monkey

import "fmt"

// Strategy selects how the exerciser explores the UI.
type Strategy uint8

const (
	// StrategyRandom is stock Monkey: events are drawn independently of
	// what has been discovered.
	StrategyRandom Strategy = iota
	// StrategyCoverage is the fuzzing-informed exploration the paper's
	// §6 proposes: the exerciser tracks which screens it has seen and
	// biases inputs toward untouched widgets and navigation paths,
	// which mostly helps the hard-to-reach activities.
	StrategyCoverage
)

func (s Strategy) String() string {
	switch s {
	case StrategyRandom:
		return "random"
	case StrategyCoverage:
		return "coverage-guided"
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// CoverageBoost is the effective discovery-rate multiplier coverage-guided
// exploration gives slow-to-reach activities (stuck exploration re-targets
// instead of re-rolling).
const CoverageBoost = 4.0

// Config controls the exerciser (mirrors Monkey's --throttle and
// --pct-touch flags).
type Config struct {
	// Events is the number of UI events to inject (paper default 5,000).
	Events int
	// ThrottleMs is the pause between input bursts in milliseconds.
	ThrottleMs int
	// PctTouch is the fraction of touch events among all inputs.
	PctTouch float64
	// Strategy selects random (deployed) or coverage-guided (§6)
	// exploration.
	Strategy Strategy
	// Seed seeds the emulator's run stream together with the app's.
	Seed int64
}

// ProductionConfig is the deployed configuration (§4.2): 5K events,
// human-like throttle, 50-80% touch (we fix the midpoint).
func ProductionConfig(seed int64) Config {
	return Config{Events: 5000, ThrottleMs: 500, PctTouch: 0.65, Seed: seed}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Events <= 0 {
		return fmt.Errorf("monkey: events %d must be positive", c.Events)
	}
	if c.ThrottleMs < 0 {
		return fmt.Errorf("monkey: throttle %d must be non-negative", c.ThrottleMs)
	}
	if c.PctTouch < 0 || c.PctTouch > 1 {
		return fmt.Errorf("monkey: pct-touch %f out of [0,1]", c.PctTouch)
	}
	return nil
}

// Realistic reports whether the configuration defeats input-timing probes:
// human-paced throttle and a natural touch-dominant mix.
func (c Config) Realistic() bool {
	return c.ThrottleMs >= 400 && c.PctTouch >= 0.5 && c.PctTouch <= 0.8
}
