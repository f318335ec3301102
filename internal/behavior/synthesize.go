package behavior

import (
	"fmt"

	"apichecker/internal/dex"
	"apichecker/internal/framework"
	"apichecker/internal/manifest"
)

// Manifest derives the AndroidManifest view of the program: identity,
// requested permissions, declared activities (referenced or not), and
// receiver intent filters.
func (p *Program) Manifest(u *framework.Universe) (*manifest.Manifest, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p.ValidManifest(u), nil
}

// ValidManifest is Manifest of a program the caller has validated, and
// whose ids u holds: it does not validate again.
func (p *Program) ValidManifest(u *framework.Universe) *manifest.Manifest {
	m := manifest.New(p.PackageName, p.Version)
	m.Application.Label = p.PackageName
	for _, perm := range p.Permissions {
		m.AddPermission(u.Permission(perm).Name)
	}
	for i := range p.Activities {
		a := manifest.Activity{Name: p.Activities[i].Name}
		if i == 0 {
			a.Exported = true
			a.Filters = []manifest.IntentFilter{{Actions: []manifest.Action{
				{Name: "android.intent.action.MAIN"},
			}}}
		}
		m.Application.Activities = append(m.Application.Activities, a)
	}
	if len(p.ReceiverIntents) > 0 {
		r := manifest.Receiver{Name: p.PackageName + ".SystemReceiver"}
		var f manifest.IntentFilter
		for _, id := range p.ReceiverIntents {
			f.Actions = append(f.Actions, manifest.Action{Name: u.Intent(id).Name})
		}
		r.Filters = []manifest.IntentFilter{f}
		m.Application.Receivers = append(m.Application.Receivers, r)
	}
	return m
}

// Dex derives the statically visible code view of the program. Direct API
// calls appear with their real names; reflection sites carry obfuscated
// tokens; payload behaviour is represented only by a CallLoadDex site.
func (p *Program) Dex(u *framework.Universe) (*dex.File, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var f dex.File
	f.NativeLibs = append(f.NativeLibs, p.NativeLibs...)

	for i := range p.Activities {
		a := &p.Activities[i]
		if !a.Referenced {
			continue // declared in the manifest but absent from code paths
		}
		c := dex.Class{Name: a.Name, IsActivity: true}
		onCreate := dex.Method{Name: "onCreate"}
		for _, r := range a.Direct {
			onCreate.Calls = append(onCreate.Calls, dex.CallSite{
				Kind:   dex.CallDirect,
				Target: u.API(r.API).Name,
			})
		}
		for _, r := range a.Reflection {
			onCreate.Calls = append(onCreate.Calls, dex.CallSite{
				Kind:   dex.CallReflection,
				Target: obfuscate(r.API, p.Seed),
			})
		}
		for _, in := range a.SendIntents {
			onCreate.Calls = append(onCreate.Calls, dex.CallSite{
				Kind:   dex.CallIntentSend,
				Target: u.Intent(in).Name,
			})
		}
		// Reference the next referenced activity so the static
		// reference graph matches the Referenced flags.
		if next := p.nextReferenced(i); next >= 0 {
			onCreate.Calls = append(onCreate.Calls, dex.CallSite{
				Kind:   dex.CallStartActivity,
				Target: p.Activities[next].Name,
			})
		}
		if p.Payload != nil && i == 0 {
			onCreate.Calls = append(onCreate.Calls, dex.CallSite{
				Kind:   dex.CallLoadDex,
				Target: "assets/update.dex",
			})
		}
		c.Methods = append(c.Methods, onCreate)
		f.Classes = append(f.Classes, c)
	}
	// A helper class keeps non-activity code plausible.
	f.Classes = append(f.Classes, dex.Class{
		Name:    p.PackageName + ".Util",
		Methods: []dex.Method{{Name: "init"}},
	})
	return &f, nil
}

// nextReferenced returns the index of the next referenced activity after i
// (wrapping, excluding i itself and the launcher's self-reference), or -1.
func (p *Program) nextReferenced(i int) int {
	for step := 1; step < len(p.Activities); step++ {
		j := (i + step) % len(p.Activities)
		if j != i && p.Activities[j].Referenced {
			return j
		}
	}
	return -1
}

// obfuscate produces the opaque reflection token static analysis sees
// instead of the hidden API's real name.
func obfuscate(id framework.APIID, seed int64) string {
	h := uint64(id)*0x9e3779b97f4a7c15 ^ uint64(seed)
	return fmt.Sprintf("obf$%08x", uint32(h>>13))
}
