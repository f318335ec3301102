// Package staticanalysis extracts features from an APK without running it:
// manifest metadata, statically visible API references, intent actions,
// and the referenced-activity scan behind the RAC metric (§4.2).
//
// It also exposes the static feature views that the baseline detectors in
// Table 1 consume (Drebin- and DroidAPIMiner-style pipelines work entirely
// from this package's output). Static analysis is blind to reflection
// targets and dynamically loaded code — the limitation that motivates the
// paper's dynamic approach.
package staticanalysis

import (
	"fmt"
	"sort"

	"apichecker/internal/apk"
	"apichecker/internal/framework"
)

// Report is the static view of one APK.
type Report struct {
	Package     string
	VersionCode int

	// DeclaredActivities and ReferencedActivities drive the RAC
	// denominator scan: referenced = declared ∩ mentioned-in-code
	// (launcher included via its MAIN intent filter).
	DeclaredActivities   []string
	ReferencedActivities []string

	// Permissions are the requested permission ids resolvable in the
	// universe; UnknownPermissions counts unresolvable names.
	Permissions        []framework.PermissionID
	UnknownPermissions int

	// DirectAPIs are the framework APIs referenced by direct call
	// sites; UnknownAPIs counts unresolvable names (obfuscated targets
	// are *not* counted here — they appear as reflection sites).
	DirectAPIs  []framework.APIID
	UnknownAPIs int

	// IntentActions is the union of receiver intent filters and static
	// intent-send sites.
	IntentActions []framework.IntentID

	// Evasion-surface indicators.
	UsesReflection   bool
	LoadsDynamicCode bool
	NativeLibCount   int
}

// Analyze scans a parsed APK against the universe.
func Analyze(a *apk.APK, u *framework.Universe) (*Report, error) {
	if a == nil || a.Manifest == nil || a.Dex == nil {
		return nil, fmt.Errorf("staticanalysis: incomplete APK")
	}
	r := &Report{
		Package:            a.Manifest.Package,
		VersionCode:        a.Manifest.VersionCode,
		DeclaredActivities: a.Manifest.ActivityNames(),
		UsesReflection:     a.Dex.UsesReflection(),
		LoadsDynamicCode:   a.Dex.LoadsDynamicCode(),
		NativeLibCount:     len(a.Dex.NativeLibs),
	}

	declared := make(map[string]bool, len(r.DeclaredActivities))
	for _, name := range r.DeclaredActivities {
		declared[name] = true
	}
	seen := make(map[string]bool)
	// The launcher (MAIN intent filter) is referenced by definition.
	for _, act := range a.Manifest.Application.Activities {
		for _, f := range act.Filters {
			for _, action := range f.Actions {
				if action.Name == "android.intent.action.MAIN" && !seen[act.Name] {
					seen[act.Name] = true
					r.ReferencedActivities = append(r.ReferencedActivities, act.Name)
				}
			}
		}
	}
	for _, name := range a.Dex.ReferencedActivities() {
		if declared[name] && !seen[name] {
			seen[name] = true
			r.ReferencedActivities = append(r.ReferencedActivities, name)
		}
	}
	sort.Strings(r.ReferencedActivities)

	for _, name := range a.Manifest.PermissionNames() {
		if id, ok := u.LookupPermission(name); ok {
			r.Permissions = append(r.Permissions, id)
		} else {
			r.UnknownPermissions++
		}
	}
	sort.Slice(r.Permissions, func(i, j int) bool { return r.Permissions[i] < r.Permissions[j] })

	for _, name := range a.Dex.DirectAPIRefs() {
		if id, ok := u.LookupAPI(name); ok {
			r.DirectAPIs = append(r.DirectAPIs, id)
		} else {
			r.UnknownAPIs++
		}
	}
	sort.Slice(r.DirectAPIs, func(i, j int) bool { return r.DirectAPIs[i] < r.DirectAPIs[j] })

	intentSeen := make(map[framework.IntentID]bool)
	addIntent := func(name string) {
		if id, ok := u.LookupIntent(name); ok && !intentSeen[id] {
			intentSeen[id] = true
			r.IntentActions = append(r.IntentActions, id)
		}
	}
	for _, name := range a.Manifest.ReceiverActions() {
		addIntent(name)
	}
	for _, name := range a.Dex.IntentActions() {
		addIntent(name)
	}
	sort.Slice(r.IntentActions, func(i, j int) bool { return r.IntentActions[i] < r.IntentActions[j] })
	return r, nil
}
