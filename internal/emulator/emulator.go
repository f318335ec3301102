package emulator

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"apichecker/internal/behavior"
	"apichecker/internal/hook"
	"apichecker/internal/monkey"
)

// incompatibleThreshold: apps whose lightweight-engine crash bias exceeds
// this are deterministically incompatible with the x86 port (< 1% of apps)
// and fall back to the Google engine (§5.1).
const incompatibleThreshold = 0.0195

// speedStream is the PCG stream the app-speed draw is taken from (the
// 64-bit golden-ratio constant). A run's own stream is selected by the
// Monkey seed; this one by nothing but the app.
const speedStream = 0x9e3779b97f4a7c15

// Emulator runs programs under one profile with one hook registry.
type Emulator struct {
	profile Profile
	reg     *hook.Registry

	// fallback is the pre-built engine incompatible apps re-run on, so Run
	// builds nothing per app.
	fallback *Emulator
}

// New builds an emulator. A hardened profile (§4.2) defeats the app's
// detection probes (failedProbes); the registry is only read.
func New(profile Profile, reg *hook.Registry) *Emulator {
	e := &Emulator{profile: profile, reg: reg}
	if profile.CompatRisk && profile.Fallback != nil {
		e.fallback = New(*profile.Fallback, reg)
	}
	return e
}

// Result is the outcome of emulating one app.
type Result struct {
	Log *hook.Log

	// VirtualTime is the simulated wall-clock analysis time, including
	// crash retries and fallback re-runs.
	VirtualTime time.Duration

	// Events is the number of Monkey events injected.
	Events int

	// RAC is the Referred Activity Coverage achieved (§4.2).
	RAC float64

	// ReachedActivities / ReferencedActivities are RAC's numerator and
	// denominator.
	ReachedActivities    int
	ReferencedActivities int

	// Detected reports whether the app's emulator-detection probes
	// succeeded (and, if it suppresses, its payload stayed quiet).
	Detected bool

	// Suppressed reports that malicious-payload activities were muted.
	Suppressed bool

	// Crashed counts transient crashes (each costs a retry).
	Crashed int

	// FellBack reports that the app was incompatible with this engine
	// and was re-run on the fallback profile.
	FellBack bool

	// Profile names the engine that produced the final log.
	Profile string
}

// Clone returns a copy of the result that shares no storage with r; its
// log is sealed. A caller keeps a clone of a result run into scratch.
func (r *Result) Clone() *Result {
	c := *r
	c.Log = r.Log.Clone()
	return &c
}

// runCount totals emulations process-wide; see RunCount.
var runCount atomic.Int64

// RunCount returns the process-wide number of emulations performed so
// far. A fallback re-run counts as a second emulation (it costs one).
// Tests and benchmarks diff this counter to assert how many corpus passes
// a pipeline really paid for.
func RunCount() int64 { return runCount.Load() }

// Scratch is the storage one emulation run fills: the result, its hook
// log, the PCG the run's stream and then the app-speed draw are seeded
// into, and the list of active activities. A caller that runs program
// after program keeps one Scratch and hands it to each RunScratch, so a
// run allocates nothing once the scratch has grown to the programs it
// sees. The zero value is ready to use.
type Scratch struct {
	res     Result
	log     hook.Log
	pcg     rand.PCG
	actives []active
}

// active is an activity the run reached, and the event index it was
// discovered at.
type active struct {
	ab    *behavior.ActivityBehavior
	start float64
}

// Run emulates the program: install, exercise with the Monkey, record the
// hook log, uninstall. The virtual clock advances per event and per
// intercepted invocation.
func (e *Emulator) Run(p *behavior.Program, mk monkey.Config) (*Result, error) {
	return e.RunContext(context.Background(), p, mk)
}

// RunContext is Run under a context: cancellation is checked where the real
// control plane can actually abandon a run — before install, before a
// fallback re-run, at each crash-restart, and at every activity's
// event-batch boundary inside the Monkey loop — so a deadline stops an
// emulation mid-run instead of after it. The returned error wraps
// ctx.Err(), so errors.Is(err, context.DeadlineExceeded) identifies
// timeouts. A run that completes is bit-identical to Run: the checks
// consume no randomness.
//
// The result is the caller's to keep: the run fills a scratch of its own,
// and its log is sealed. The program is validated first (an invalid one
// is refused with an error wrapping behavior.ErrInvalid).
func (e *Emulator) RunContext(ctx context.Context, p *behavior.Program, mk monkey.Config) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("emulator: %w", err)
	}
	s := new(Scratch)
	res, err := e.RunScratch(ctx, p, mk, s)
	if err != nil {
		return nil, err
	}
	s.actives = nil // the kept result holds no pointer into the program
	res.Log.Seal()
	return res, nil
}

// RunScratch is RunContext into s, for a program already validated: the
// vet path's comes from behavior.Decode, which validates what it returns,
// or was validated at admission, so neither this run nor a fallback re-run
// validates it again. The result and its log are s's own storage, valid
// until s is handed to the next run, and the log is not sealed. The same
// program, Monkey and engine draw the same streams whatever s held before,
// so the result is bit-identical to RunContext's.
func (e *Emulator) RunScratch(ctx context.Context, p *behavior.Program, mk monkey.Config, s *Scratch) (*Result, error) {
	runCount.Add(1)
	if err := mk.Validate(); err != nil {
		return nil, fmt.Errorf("emulator: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, e.aborted(p, err)
	}

	// Incompatible apps abort early and re-run on the fallback engine.
	if e.fallback != nil && p.CrashBias > incompatibleThreshold {
		res, err := e.fallback.RunScratch(ctx, p, mk, s)
		if err != nil {
			return nil, err
		}
		// The aborted attempt still cost a partial run before the
		// SystemServer exception report arrived.
		res.VirtualTime += time.Duration(float64(e.profile.PerEvent) * float64(mk.Events) * 0.3)
		res.FellBack = true
		return res, nil
	}

	// The run stream: the app seed picks the generator's state, the Monkey
	// seed its stream, so distinct (app, Monkey) pairs never share a run.
	s.pcg.Seed(uint64(p.Seed), uint64(mk.Seed))
	rng := rand.New(&s.pcg)
	log := &s.log
	log.Reset(e.reg)
	res := &s.res
	*res = Result{Log: log, Events: mk.Events, Profile: e.profile.Name}

	// Transient crashes on risky engines: detect, restart, continue
	// (crash detection + restart is what keeps the engine reliable). Each
	// restart is a natural abandonment point.
	retryCost := 0.0
	if e.profile.CompatRisk {
		for rng.Float64() < p.CrashBias {
			res.Crashed++
			retryCost += 0.4
			if err := ctx.Err(); err != nil {
				return nil, e.aborted(p, err)
			}
			if res.Crashed >= 3 {
				break
			}
		}
	}

	// Emulator detection: which probes does this environment fail?
	failed := e.failedProbes(mk)
	res.Detected = p.EmulatorChecks&failed != 0
	res.Suppressed = res.Detected && p.SuppressOnEmulator

	// Activity discovery times (in events), driven by the Monkey's
	// exploration intensity.
	actives := s.actives[:0]
	referenced := 0
	reached := 0
	events := float64(mk.Events)
	for i := range p.Activities {
		ab := &p.Activities[i]
		if !ab.Referenced {
			continue
		}
		referenced++
		if ab.ReachRate <= 0 {
			continue
		}
		rate := ab.ReachRate
		// Coverage-guided exploration (§6) re-targets stuck input
		// streams, sharply accelerating discovery of the slow
		// activities; already-easy screens gain little.
		if mk.Strategy == monkey.StrategyCoverage && rate < 0.5 {
			rate *= monkey.CoverageBoost
		}
		start := 0.0
		if i > 0 {
			start = rng.ExpFloat64() * 1000 / rate
		}
		if start < events {
			reached++
			log.ObserveActivity(ab.Name)
			actives = append(actives, active{ab, start})
		}
	}
	res.ReferencedActivities = referenced
	res.ReachedActivities = reached
	if referenced > 0 {
		res.RAC = float64(reached) / float64(referenced)
	}

	// Dynamic payload joins after its download-and-load delay, unless
	// the app went quiet.
	if p.Payload != nil && !res.Suppressed {
		delay := 200 + rng.ExpFloat64()*300
		if delay < events {
			for i := range p.Payload.Activities {
				actives = append(actives, active{&p.Payload.Activities[i], delay})
			}
		}
	}
	s.actives = actives

	// Execute: each active activity emits its behaviour over its active
	// window. One activity's emission is one batch of Monkey events, so
	// the boundary between activities is where an aborted run stops.
	for _, ac := range actives {
		if err := ctx.Err(); err != nil {
			return nil, e.aborted(p, err)
		}
		ab := ac.ab
		if res.Suppressed && ab.MaliciousPayload {
			continue
		}
		if p.RequiresRealSensors && !e.profile.RealDevice && sensorGated(ab.Name) {
			continue // needs live sensor data no emulator can provide
		}
		window := (events - ac.start) / 1000.0
		for _, r := range ab.Direct {
			count := poissonCount(rng, r.Rate*window)
			if count == 0 {
				continue
			}
			log.Observe(r.API, count, sampleParam(rng))
		}
		for _, r := range ab.Reflection {
			// Reflection bypasses method hooks: invocations run,
			// are counted, but are never intercepted.
			count := poissonCount(rng, r.Rate*window)
			log.TotalInvocations += count
		}
		for _, in := range ab.SendIntents {
			log.ObserveIntent(in, 1+uint64(poissonCount(rng, 1.5*window)))
		}
	}

	// Virtual clock: per-app speed is a stable property of the app.
	speed := appSpeed(p, e.profile, &s.pcg)
	base := float64(e.profile.PerEvent) * events * speed
	hookCost := float64(e.profile.PerHook) * float64(log.Intercepted)
	res.VirtualTime = time.Duration(base*(1+retryCost) + hookCost)
	return res, nil
}

// aborted wraps a context error for an abandoned run.
func (e *Emulator) aborted(p *behavior.Program, err error) error {
	return fmt.Errorf("emulator: %s: run aborted: %w", p.PackageName, err)
}

// failedProbes returns the probe bitmask this environment fails (i.e. the
// probes that would detect it).
func (e *Emulator) failedProbes(mk monkey.Config) uint8 {
	if e.profile.RealDevice {
		return 0
	}
	var failed uint8
	if !e.profile.Hardened {
		failed |= behavior.CheckBuildProps | behavior.CheckSensors
		if e.reg.Size() > 0 {
			failed |= behavior.CheckHookArtifacts
		}
	}
	if !mk.Realistic() {
		failed |= behavior.CheckInputTiming
	}
	return failed
}

// appSpeed derives the app's stable speed multiplier on a profile: one
// draw from the app's own stream, whatever Monkey exercises it. src is
// reseeded for the draw.
func appSpeed(p *behavior.Program, prof Profile, src *rand.PCG) float64 {
	src.Seed(uint64(p.Seed), speedStream)
	rng := rand.New(src)
	s := math.Exp(rng.NormFloat64() * prof.SpeedSigma)
	if s < prof.SpeedMin {
		s = prof.SpeedMin
	}
	if s > prof.SpeedMax {
		s = prof.SpeedMax
	}
	return s
}

// sensorGated deterministically marks ~30% of an app's activities as
// requiring live sensor input.
func sensorGated(name string) bool {
	var h uint32 = 2166136261
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h%100 < 30
}

// sampleParam fabricates a plausible recorded parameter for an
// invocation: the draws only — hook.Log.Params renders the text for the
// readers that print it.
func sampleParam(rng *rand.Rand) hook.Param {
	switch rng.IntN(4) {
	case 0:
		return hook.Param{Kind: hook.ParamArg}
	case 1:
		return hook.Param{Kind: hook.ParamFlags, Value: int32(rng.IntN(1 << 12))}
	case 2:
		return hook.Param{Kind: hook.ParamUID, Value: int32(10000 + rng.IntN(500))}
	default:
		return hook.Param{Kind: hook.ParamCtx}
	}
}

// poissonCount samples a Poisson variate as uint64 (Knuth for small means,
// normal approximation above).
func poissonCount(rng *rand.Rand, lambda float64) uint64 {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return uint64(k)
			}
			k++
		}
	}
	v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
	if v < 0 {
		return 0
	}
	return uint64(math.Round(v))
}
