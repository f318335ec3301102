// Package behavior defines the executable semantics of synthetic apps.
//
// A real APK carries Dalvik bytecode; our APKs carry a Program: a set of
// activities that, when explored by the Monkey, emit framework-API
// invocations, reflective calls into hidden APIs, and intent sends. The
// Program is the ground truth the emulator executes; the manifest and the
// dex file packaged next to it are *derived views* of the Program (exactly
// as a manifest and compiled code are views of an app's real behaviour):
//
//   - the manifest declares the requested permissions, the declared
//     activities, and the receiver intent filters;
//   - the dex contains the statically visible call sites — direct API
//     calls, opaque reflection sites, intent sends, and dynamic-code
//     loading markers. Behaviour in a dynamic Payload has no dex call
//     sites at all, which is what defeats static baselines.
//
// Programs are generated by Generator from population statistics attached
// to the framework universe, per benign category or malware family.
package behavior

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"apichecker/internal/framework"
	"apichecker/internal/wire"
)

// Label is the ground-truth class of an app.
type Label uint8

const (
	// Benign apps have no malicious payload.
	Benign Label = iota
	// Malicious apps belong to a malware Family.
	Malicious
)

func (l Label) String() string {
	if l == Malicious {
		return "malicious"
	}
	return "benign"
}

// Family enumerates the malware families in the corpus. Families differ in
// which key-API groups they lean on and in their evasion traits, which is
// what gives the corpus the "no single feature view catches everything"
// structure of §4.4-§4.5.
type Family uint8

const (
	// FamilyNone marks benign apps.
	FamilyNone Family = iota
	// FamilySMSFraud sends premium SMS and intercepts confirmations.
	FamilySMSFraud
	// FamilySpyware exfiltrates contacts, location and device identity.
	FamilySpyware
	// FamilyRansomware encrypts storage and locks the device.
	FamilyRansomware
	// FamilyOverlay performs window-overlay / activity-hijack attacks.
	FamilyOverlay
	// FamilyRootExploit attempts privilege escalation via shell
	// execution and su binaries.
	FamilyRootExploit
	// FamilyUpdateAttack ships clean and pulls a malicious dex payload
	// at runtime (dynamic code loading).
	FamilyUpdateAttack
	// FamilyAdFraud performs click fraud and aggressive ad abuse.
	FamilyAdFraud
	// FamilyReflectionEvader replaces key-API calls with reflective
	// calls into hidden APIs (§4.5's first evasion mechanism).
	FamilyReflectionEvader
	// FamilyIntentEvader delegates sensitive actions to other apps via
	// intents (§4.5's second evasion mechanism).
	FamilyIntentEvader
	// FamilyLowProfile barely touches key APIs; the population behind
	// the paper's tolerated false negatives (§5.2).
	FamilyLowProfile
)

// NumFamilies is the count of real malware families (FamilyNone excluded).
const NumFamilies = 10

func (f Family) String() string {
	names := [...]string{"none", "sms-fraud", "spyware", "ransomware", "overlay",
		"root-exploit", "update-attack", "ad-fraud", "reflection-evader",
		"intent-evader", "low-profile"}
	if int(f) < len(names) {
		return names[f]
	}
	return fmt.Sprintf("Family(%d)", uint8(f))
}

// Category enumerates benign app categories; categories differ in which
// slices of the neutral API tail and which legitimate restricted APIs they
// use (the source of false-positive pressure).
type Category uint8

const (
	CategoryGame Category = iota
	CategorySocial
	CategoryTool
	CategoryMedia
	CategoryShopping
	CategoryNews
	CategoryFinance
	CategoryEducation
)

// NumCategories is the count of benign categories.
const NumCategories = 8

func (c Category) String() string {
	names := [...]string{"game", "social", "tool", "media", "shopping", "news",
		"finance", "education"}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// Emulator-detection probes an app may run (§4.2's four hardening areas).
// Each bit defeats one class of unhardened emulator.
const (
	// CheckBuildProps inspects static device configuration (IMEI, IMSI,
	// PRODUCT/MODEL, /proc/net/tcp).
	CheckBuildProps uint8 = 1 << iota
	// CheckInputTiming inspects the dynamic timing of user inputs.
	CheckInputTiming
	// CheckSensors inspects accelerometer/gyroscope streams.
	CheckSensors
	// CheckHookArtifacts looks for Xposed libraries and tampered
	// PackageManager results.
	CheckHookArtifacts
)

// AllChecks is the full probe bitmask.
const AllChecks = CheckBuildProps | CheckInputTiming | CheckSensors | CheckHookArtifacts

// APIRate is the expected number of invocations of one API per 1,000 Monkey
// events while the owning activity is in the foreground.
type APIRate struct {
	API  framework.APIID
	Rate float64
}

// ActivityBehavior is one activity's runtime behaviour.
type ActivityBehavior struct {
	// Name is the activity class name, declared in the manifest.
	Name string

	// Referenced reports whether app code actually references the
	// activity. Unreferenced activities are declared in the manifest but
	// can never run (§4.2 measures 88% referenced on average).
	Referenced bool

	// ReachRate is the discovery intensity: the probability weight per
	// 1,000 Monkey events that the exerciser first reaches this
	// activity. Zero means unreachable by automated exploration (e.g.
	// behind a login the hook cannot bypass).
	ReachRate float64

	// MaliciousPayload marks the activities carrying malicious
	// behaviour; they are suppressed when the app detects an emulator.
	MaliciousPayload bool

	// Direct are framework APIs invoked normally.
	Direct []APIRate

	// Reflection are hidden APIs invoked via java.lang.reflect; API
	// hooking does not see them, but their guarding permissions appear
	// in the manifest.
	Reflection []APIRate

	// SendIntents are intent actions sent while this activity runs
	// (observable as parameters of tracked intent-related APIs).
	SendIntents []framework.IntentID
}

// Payload is behaviour loaded dynamically at runtime (update attack); its
// activities exist in neither the manifest nor the dex.
type Payload struct {
	Activities []ActivityBehavior
}

// Program is the complete executable semantics of one synthetic app.
type Program struct {
	// PackageName and Version identify the app (same package + higher
	// version = app update).
	PackageName string
	Version     int

	// Seed drives all per-run jitter so emulation is reproducible.
	Seed int64

	// Label, Family and Category are generator bookkeeping. They are
	// stored in the dataset's ground-truth table, NOT inside the APK
	// (the APK builder must never serialize them).
	Label    Label
	Family   Family
	Category Category

	// Activities in declaration order; the first is the launcher.
	Activities []ActivityBehavior

	// ReceiverIntents are the system broadcasts the app listens for
	// (manifest receiver intent filters).
	ReceiverIntents []framework.IntentID

	// Permissions requested in the manifest. Includes everything the
	// program's API usage requires plus any over-requested extras.
	Permissions []framework.PermissionID

	// EmulatorChecks is the bitmask of detection probes the app runs.
	EmulatorChecks uint8

	// SuppressOnEmulator: when any probe succeeds, activities flagged
	// MaliciousPayload go quiet.
	SuppressOnEmulator bool

	// CrashBias is the per-emulation probability that the app hangs or
	// crashes on the lightweight Android-x86 engine (compatibility gaps
	// in the x86 port and binary translation, §5.1). The stock emulator
	// runs these apps fine.
	CrashBias float64

	// RequiresRealSensors marks apps needing live sensor data no
	// emulator can synthesize (the residual 1.4% in §4.2); some of
	// their behaviour never triggers on any emulator.
	RequiresRealSensors bool

	// NativeLibs bundled with the app (ARM ISA; the lightweight engine
	// binary-translates them).
	NativeLibs []string

	// Payload is non-nil for update-attack apps.
	Payload *Payload

	// digestMemo caches ContentDigest. Unexported, so it never travels in
	// the wire encoding; atomic.Value (not a mutex) so Programs stay
	// copyable and vet's copylocks check stays quiet.
	digestMemo atomic.Value
}

// ContentDigest returns the hex sha256 of the program's canonical Encode
// output — the verdict-cache key for program-payload submissions. The
// serving path digests the same shared Program once per unique app instead
// of re-encoding it for every duplicate submission, so the result is
// memoized; concurrent first calls race benignly (both compute the same
// string). Callers must not mutate a Program after its digest is taken.
func (p *Program) ContentDigest() (string, error) {
	if d := p.digestMemo.Load(); d != nil {
		return d.(string), nil
	}
	if err := p.Validate(); err != nil {
		return "", err
	}
	return p.ValidDigest(), nil
}

// ValidDigest is ContentDigest of a program the caller has validated: it
// does not validate again, so a vet that validated the program at
// admission validates it once.
func (p *Program) ValidDigest() string {
	if d := p.digestMemo.Load(); d != nil {
		return d.(string)
	}
	sum := sha256.Sum256(p.encode())
	var h [2 * sha256.Size]byte // formatted on the stack: one allocation, the string
	hex.Encode(h[:], sum[:])
	d := string(h[:])
	p.digestMemo.Store(d)
	return d
}

// ReferencedActivityCount returns how many declared activities are
// actually referenced by code.
func (p *Program) ReferencedActivityCount() int {
	n := 0
	for i := range p.Activities {
		if p.Activities[i].Referenced {
			n++
		}
	}
	return n
}

// Validate checks structural invariants; every failure wraps ErrInvalid.
// The numeric checks are written as what a value must be, not what it must
// not be: every comparison against NaN is false, so "rate < 0" alone lets
// NaN through to the emulator.
func (p *Program) Validate() error {
	if hook := ValidateHook.Load(); hook != nil {
		(*hook)(p)
	}
	if p.PackageName == "" {
		return invalid("program with empty package name")
	}
	if p.Version <= 0 {
		return invalid("%s: version %d must be positive", p.PackageName, p.Version)
	}
	if len(p.Activities) == 0 {
		return invalid("%s: no activities", p.PackageName)
	}
	if !p.Activities[0].Referenced || !(p.Activities[0].ReachRate > 0) {
		return invalid("%s: launcher activity must be referenced and reachable", p.PackageName)
	}
	repeat := wire.FirstRepeat(len(p.Activities), func(i int) string { return p.Activities[i].Name })
	for i := range p.Activities {
		a := &p.Activities[i]
		if a.Name == "" {
			return invalid("%s: activity %d has empty name", p.PackageName, i)
		}
		if i == repeat {
			return invalid("%s: duplicate activity %s", p.PackageName, a.Name)
		}
		if err := a.validate(); err != nil {
			return invalid("%s: activity %s has %w", p.PackageName, a.Name, err)
		}
	}
	if p.Payload != nil {
		for i := range p.Payload.Activities {
			a := &p.Payload.Activities[i]
			if err := a.validate(); err != nil {
				return invalid("%s: payload activity %s has %w", p.PackageName, a.Name, err)
			}
		}
	}
	for _, id := range p.ReceiverIntents {
		if id < 0 {
			return invalid("%s: invalid receiver intent %d", p.PackageName, id)
		}
	}
	for _, id := range p.Permissions {
		if id < 0 {
			return invalid("%s: invalid permission %d", p.PackageName, id)
		}
	}
	if !(p.CrashBias >= 0 && p.CrashBias <= 1) {
		return invalid("%s: crash bias %f out of range", p.PackageName, p.CrashBias)
	}
	return nil
}

// ErrInvalid is what every Validate failure wraps: the program breaks a
// structural invariant, and nothing may emulate it.
var ErrInvalid = errors.New("invalid program")

// ValidateHook, when set, is called with each program Validate checks.
// Tests count validations through it; nothing else sets it.
var ValidateHook atomic.Pointer[func(*Program)]

// invalid formats a Validate failure.
func invalid(format string, a ...any) error {
	return fmt.Errorf("behavior: %w: "+format, append([]any{ErrInvalid}, a...)...)
}

// validate checks one activity's numbers: rates finite and non-negative,
// ids non-negative (the upper bound is a property of the deployment's
// universe, which the vet pipeline checks).
func (a *ActivityBehavior) validate() error {
	if !validRate(a.ReachRate) {
		return fmt.Errorf("invalid reach rate %v", a.ReachRate)
	}
	for _, r := range a.Direct {
		if !validRate(r.Rate) || r.API < 0 {
			return fmt.Errorf("invalid direct rate %+v", r)
		}
	}
	for _, r := range a.Reflection {
		if !validRate(r.Rate) || r.API < 0 {
			return fmt.Errorf("invalid reflection rate %+v", r)
		}
	}
	for _, id := range a.SendIntents {
		if id < 0 {
			return fmt.Errorf("invalid send-intent %d", id)
		}
	}
	return nil
}

// validRate reports whether v is a finite, non-negative number.
func validRate(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }
