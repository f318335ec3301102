package manifest

import (
	"encoding/xml"
	"strings"
)

// scan is Decode's fast path, into d's manifest and arrays: a recognizer
// for exactly the document shape Encode emits, and nothing wider.
//
//	doc     = [xml.Header] sp
//	          `<manifest package="V" versionCode="N" versionName="V">` sp
//	          `<uses-sdk>` sp `<minSdkVersion>` N `</minSdkVersion>` sp
//	          `<targetSdkVersion>` N `</targetSdkVersion>` sp `</uses-sdk>` sp
//	          { `<uses-permission name="V"></uses-permission>` sp }
//	          `<application label="V">` sp
//	          { `<activity name="V" exported="B">` sp filters `</activity>` sp }
//	          { `<service name="V"></service>` sp }
//	          { `<receiver name="V">` sp filters `</receiver>` sp }
//	          `</application>` sp `</manifest>` sp
//	filters = { `<intent-filter>` sp { `<action name="V"></action>` sp } `</intent-filter>` sp }
//
// with sp any run of space, tab, CR, LF; V printable ASCII without `"`, `&`
// or `<`; N one to nine digits; B `true` or `false`. Every tag is matched
// as a literal, so attribute order, spacing and the open/close pairing are
// Encode's. Within that shape encoding/xml has no latitude — no entities,
// no namespaces, no trimming, no repeated or reordered fields — so the
// result is the value xml.Unmarshal builds, which FuzzFastPathMatchesXML
// checks.
//
// ok is false for everything else, malformed or merely different; that is
// not a verdict on the document, only "not mine": Decode then runs
// xml.Unmarshal, which alone decides accept or reject and words the error.
// On false the manifest holds whatever the scan got to.
func (d *Decoder) scan(data []byte) (ok bool) {
	s := scanner{s: string(data)}
	s.lit(xml.Header)
	s.space()

	m := &d.m
	*m = Manifest{XMLName: xml.Name{Local: "manifest"}}
	if !s.lit("<manifest") || !s.attr("package", &m.Package) ||
		!s.intAttr("versionCode", &m.VersionCode) ||
		!s.attr("versionName", &m.VersionName) || !s.lit(">") {
		return false
	}
	// Package is the one string that outlives a vet — it names the verdict,
	// and records and caches keep verdicts — so it alone is copied out: as
	// a substring it would keep the whole document alive with it.
	m.Package = strings.Clone(m.Package)
	s.space()
	if !s.lit("<uses-sdk>") {
		return false
	}
	s.space()
	if !s.lit("<minSdkVersion>") || !s.digits(&m.MinSDK) || !s.lit("</minSdkVersion>") {
		return false
	}
	s.space()
	if !s.lit("<targetSdkVersion>") || !s.digits(&m.TargetSDK) || !s.lit("</targetSdkVersion>") {
		return false
	}
	s.space()
	if !s.lit("</uses-sdk>") {
		return false
	}
	s.space()

	// A `<` can only open a tag in this shape, so counting a tag's opening
	// literal counts its elements: each table is carved from its array at
	// full size, and the array grows at most once. All six are counted
	// here, in one pass: no value holds a `<`, so the permissions and the
	// application tag add none of the other five.
	count := countTags(s.s[s.off:])
	m.Permissions = table(&d.perms, count[tagPermission])
	for s.lit("<uses-permission") {
		var p UsesPerm
		if !s.attr("name", &p.Name) || !s.lit("></uses-permission>") {
			return false
		}
		m.Permissions = append(m.Permissions, p)
		s.space()
	}

	app := &m.Application
	if !s.lit("<application") || !s.attr("label", &app.Label) || !s.lit(">") {
		return false
	}
	s.space()
	// Every component's filters, and every filter's actions, are carved
	// out of one backing array each.
	filters := table(&d.filters, count[tagFilter])
	actions := table(&d.actions, count[tagAction])

	app.Activities = table(&d.activities, count[tagActivity])
	for s.lit("<activity") {
		var a Activity
		if !s.attr("name", &a.Name) || !s.boolAttr("exported", &a.Exported) || !s.lit(">") {
			return false
		}
		s.space()
		if a.Filters, ok = s.filters(&filters, &actions); !ok || !s.lit("</activity>") {
			return false
		}
		app.Activities = append(app.Activities, a)
		s.space()
	}
	app.Services = table(&d.services, count[tagService])
	for s.lit("<service") {
		var sv Service
		if !s.attr("name", &sv.Name) || !s.lit("></service>") {
			return false
		}
		app.Services = append(app.Services, sv)
		s.space()
	}
	app.Receivers = table(&d.receivers, count[tagReceiver])
	for s.lit("<receiver") {
		var r Receiver
		if !s.attr("name", &r.Name) || !s.lit(">") {
			return false
		}
		s.space()
		if r.Filters, ok = s.filters(&filters, &actions); !ok || !s.lit("</receiver>") {
			return false
		}
		app.Receivers = append(app.Receivers, r)
		s.space()
	}

	if !s.lit("</application>") {
		return false
	}
	s.space()
	if !s.lit("</manifest>") {
		return false
	}
	s.space()
	return s.off == len(s.s)
}

// table returns room for n elements carved from the start of *array,
// which it first grows if n would not fit: empty, with capacity n, so
// appends stay inside it. It is nil when n is zero, as xml.Unmarshal
// leaves a table with no elements.
func table[T any](array *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if cap(*array) < n {
		*array = make([]T, n)
	}
	return (*array)[:0:n]
}

// scanner is a cursor over the document, held as one string so attribute
// values are substrings of it and not copies.
type scanner struct {
	s   string
	off int
}

// lit consumes x if the rest of the document starts with it.
func (s *scanner) lit(x string) bool {
	if !strings.HasPrefix(s.s[s.off:], x) {
		return false
	}
	s.off += len(x)
	return true
}

func (s *scanner) space() {
	for s.off < len(s.s) {
		switch s.s[s.off] {
		case ' ', '\n', '\t', '\r':
			s.off++
		default:
			return
		}
	}
}

// countedTags are the opening literals of the elements scan counts before
// it reads them, indexed by the tag constants.
var countedTags = [...]string{"<uses-permission ", "<intent-filter>", "<action ", "<activity ", "<service ", "<receiver "}

const (
	tagPermission = iota
	tagFilter
	tagAction
	tagActivity
	tagService
	tagReceiver
)

// countTags counts every countedTags literal in doc in one pass. Each
// literal's one `<` is its first byte, so no two occurrences overlap and
// counting the literals at each `<` gives strings.Count's answers.
func countTags(doc string) (n [len(countedTags)]int) {
	for i := strings.IndexByte(doc, '<'); i >= 0; i = strings.IndexByte(doc, '<') {
		doc = doc[i+1:]
		for k, tag := range countedTags {
			if len(doc) > 0 && doc[0] == tag[1] && strings.HasPrefix(doc, tag[1:]) {
				n[k]++
				break
			}
		}
	}
	return n
}

// open consumes ` name="`, the start of an attribute.
func (s *scanner) open(name string) bool {
	return s.lit(" ") && s.lit(name) && s.lit(`="`)
}

// attr consumes ` name="V"` and stores V.
func (s *scanner) attr(name string, v *string) bool {
	if !s.open(name) {
		return false
	}
	start := s.off
	for ; s.off < len(s.s); s.off++ {
		switch c := s.s[s.off]; {
		case c == '"':
			*v = s.s[start:s.off]
			s.off++
			return true
		case c < 0x20 || c > 0x7E || c == '&' || c == '<':
			return false
		}
	}
	return false
}

func (s *scanner) intAttr(name string, v *int) bool {
	return s.open(name) && s.digits(v) && s.lit(`"`)
}

func (s *scanner) boolAttr(name string, v *bool) bool {
	if !s.open(name) {
		return false
	}
	switch {
	case s.lit(`true"`):
		*v = true
	case s.lit(`false"`):
		*v = false
	default:
		return false
	}
	return true
}

// digits consumes one to nine decimal digits: always within an int, on
// every platform, so strconv could not have refused them.
func (s *scanner) digits(v *int) bool {
	n, start := 0, s.off
	for s.off < len(s.s) && s.s[s.off] >= '0' && s.s[s.off] <= '9' {
		n = n*10 + int(s.s[s.off]-'0')
		s.off++
	}
	if s.off == start || s.off-start > 9 {
		return false
	}
	*v = n
	return true
}

// filters consumes a component's intent filters, appending them and their
// actions to the shared backing arrays, and returns the component's view:
// nil for none, as xml.Unmarshal leaves it, and capacity-clipped so that
// a caller's append cannot reach a neighbour's elements.
func (s *scanner) filters(filters *[]IntentFilter, actions *[]Action) ([]IntentFilter, bool) {
	first := len(*filters)
	for s.lit("<intent-filter>") {
		s.space()
		firstAction := len(*actions)
		for s.lit("<action") {
			var a Action
			if !s.attr("name", &a.Name) || !s.lit("></action>") {
				return nil, false
			}
			*actions = append(*actions, a)
			s.space()
		}
		if !s.lit("</intent-filter>") {
			return nil, false
		}
		s.space()
		*filters = append(*filters, IntentFilter{Actions: clip((*actions)[firstAction:])})
	}
	return clip((*filters)[first:]), true
}

// clip returns s with no spare capacity, or nil when s is empty.
func clip[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s[:len(s):len(s)]
}
