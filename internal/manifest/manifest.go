// Package manifest models AndroidManifest.xml: the APK configuration file
// that declares the package identity, the requested permissions, and the
// app's components (activities, services, broadcast receivers) with their
// intent filters.
//
// APICHECKER reads two things from the manifest: the requested permissions
// (the "P" auxiliary feature, §4.5) and the declared activities (the
// denominator material for Referred Activity Coverage, §4.2). Receiver
// intent filters contribute to the "I" auxiliary feature.
package manifest

import (
	"encoding/xml"
	"fmt"

	"apichecker/internal/wire"
)

// Manifest is the parsed AndroidManifest.xml.
type Manifest struct {
	XMLName     xml.Name    `xml:"manifest"`
	Package     string      `xml:"package,attr"`
	VersionCode int         `xml:"versionCode,attr"`
	VersionName string      `xml:"versionName,attr"`
	MinSDK      int         `xml:"uses-sdk>minSdkVersion"`
	TargetSDK   int         `xml:"uses-sdk>targetSdkVersion"`
	Permissions []UsesPerm  `xml:"uses-permission"`
	Application Application `xml:"application"`
}

// UsesPerm is one <uses-permission> entry.
type UsesPerm struct {
	Name string `xml:"name,attr"`
}

// Application holds the component declarations.
type Application struct {
	Label      string     `xml:"label,attr"`
	Activities []Activity `xml:"activity"`
	Services   []Service  `xml:"service"`
	Receivers  []Receiver `xml:"receiver"`
}

// Activity is one declared <activity>.
type Activity struct {
	Name     string         `xml:"name,attr"`
	Exported bool           `xml:"exported,attr"`
	Filters  []IntentFilter `xml:"intent-filter"`
}

// Service is one declared <service>.
type Service struct {
	Name string `xml:"name,attr"`
}

// Receiver is one declared broadcast <receiver>.
type Receiver struct {
	Name    string         `xml:"name,attr"`
	Filters []IntentFilter `xml:"intent-filter"`
}

// IntentFilter declares the intent actions a component responds to.
type IntentFilter struct {
	Actions []Action `xml:"action"`
}

// Action is one <action> inside an intent filter.
type Action struct {
	Name string `xml:"name,attr"`
}

// New returns a minimal valid manifest for the given package.
func New(pkg string, versionCode int) *Manifest {
	return &Manifest{
		Package:     pkg,
		VersionCode: versionCode,
		VersionName: fmt.Sprintf("%d.0", versionCode),
		MinSDK:      19,
		TargetSDK:   27,
	}
}

// PermissionNames returns the requested permission names in declaration
// order, deduplicated on first occurrence: a manifest may carry repeated
// <uses-permission> entries (hand-edited or merged manifests do), and the
// install-time semantics grant each permission once, so downstream
// consumers — universe resolution, static triage features, privilege
// scoring — must never see a permission twice.
func (m *Manifest) PermissionNames() []string {
	out := make([]string, 0, len(m.Permissions))
	seen := make(map[string]bool, len(m.Permissions))
	for _, p := range m.Permissions {
		if !seen[p.Name] {
			seen[p.Name] = true
			out = append(out, p.Name)
		}
	}
	return out
}

// RequestsPermission reports whether the manifest requests the named
// permission.
func (m *Manifest) RequestsPermission(name string) bool {
	for _, p := range m.Permissions {
		if p.Name == name {
			return true
		}
	}
	return false
}

// AddPermission appends a <uses-permission> entry if not already present.
func (m *Manifest) AddPermission(name string) {
	if !m.RequestsPermission(name) {
		m.Permissions = append(m.Permissions, UsesPerm{Name: name})
	}
}

// ActivityNames returns the declared activity names.
func (m *Manifest) ActivityNames() []string {
	out := make([]string, len(m.Application.Activities))
	for i, a := range m.Application.Activities {
		out[i] = a.Name
	}
	return out
}

// ReceiverActions returns the union of intent actions declared across all
// receiver intent filters (metadata input to the "I" feature).
func (m *Manifest) ReceiverActions() []string {
	var out []string
	seen := make(map[string]bool)
	for _, r := range m.Application.Receivers {
		for _, f := range r.Filters {
			for _, a := range f.Actions {
				if !seen[a.Name] {
					seen[a.Name] = true
					out = append(out, a.Name)
				}
			}
		}
	}
	return out
}

// Validate checks structural invariants.
func (m *Manifest) Validate() error {
	if m.Package == "" {
		return fmt.Errorf("manifest: empty package name")
	}
	if m.VersionCode <= 0 {
		return fmt.Errorf("manifest: package %s: versionCode %d must be positive", m.Package, m.VersionCode)
	}
	acts := m.Application.Activities
	repeat := wire.FirstRepeat(len(acts), func(i int) string { return acts[i].Name })
	for i, a := range acts {
		if a.Name == "" {
			return fmt.Errorf("manifest: package %s: activity with empty name", m.Package)
		}
		if i == repeat {
			return fmt.Errorf("manifest: package %s: duplicate activity %s", m.Package, a.Name)
		}
	}
	return nil
}

// Encode serializes the manifest to XML.
func (m *Manifest) Encode() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	b, err := xml.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("manifest: encode %s: %w", m.Package, err)
	}
	return append([]byte(xml.Header), b...), nil
}

// Decode parses an AndroidManifest.xml document. A document in the shape
// Encode emits is read by scan without reflection; any other document goes
// through encoding/xml, which is the only judge of what is well-formed.
func Decode(data []byte) (*Manifest, error) { return new(Decoder).Decode(data) }

// Decoder is Decode with storage kept from one document to the next: the
// Manifest it returns and the arrays that manifest's tables are carved
// from. Once they have grown to the documents it sees, a decode in
// Encode's shape allocates only the copy of the document that every value
// is a substring of, and the package name. The returned manifest is valid
// until the next Decode. The zero value is ready to use.
type Decoder struct {
	m Manifest

	perms      []UsesPerm
	activities []Activity
	services   []Service
	receivers  []Receiver
	filters    []IntentFilter
	actions    []Action
}

// Decode is the package's Decode into d's storage.
func (d *Decoder) Decode(data []byte) (*Manifest, error) {
	m := &d.m
	if !d.scan(data) {
		*m = Manifest{}
		if err := xml.Unmarshal(data, m); err != nil {
			return nil, fmt.Errorf("manifest: decode: %w", err)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
