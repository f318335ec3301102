package manifest

import (
	"encoding/xml"
	"reflect"
	"strings"
	"testing"
)

// nearMisses are documents encoding/xml reads but Encode would never have
// written, one departure each from sample()'s encoding. scan must leave
// every one of them to xml.Unmarshal.
func nearMisses(t testing.TB) map[string][]byte {
	good, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	edit := func(old, new string) []byte {
		if !strings.Contains(string(good), old) {
			t.Fatalf("sample encoding has no %q to edit", old)
		}
		return []byte(strings.Replace(string(good), old, new, 1))
	}
	return map[string][]byte{
		"entity in a name":    edit(`name="android.permission.INTERNET"`, `name="android.permission.A&amp;B"`),
		"single quotes":       edit(`label="Demo"`, `label='Demo'`),
		"comment":             edit(`<uses-sdk>`, `<!-- built by hand --><uses-sdk>`),
		"unknown attribute":   edit(`label="Demo"`, `label="Demo" debuggable="true"`),
		"exported=1":          edit(`exported="true"`, `exported="1"`),
		"padded versionCode":  edit(`versionCode="3"`, `versionCode=" 7 "`),
		"namespace prefix":    edit(`<manifest package=`, `<manifest xmlns:android="http://schemas.android.com/apk/res/android" package=`),
		"NUL byte":            edit(`label="Demo"`, "label=\"De\x00mo\""),
		"self-closing tag":    edit(`<service name="com.example.demo.SyncService"></service>`, `<service name="com.example.demo.SyncService"/>`),
		"reordered attribute": edit(`package="com.example.demo" versionCode="3"`, `versionCode="3" package="com.example.demo"`),
		"signed SDK":          edit(`<minSdkVersion>19<`, `<minSdkVersion>+19<`),
		"ten-digit SDK":       edit(`<minSdkVersion>19<`, `<minSdkVersion>0000000019<`),
		"non-ASCII label":     edit(`label="Demo"`, `label="Démo"`),
		"trailing element":    append(append([]byte{}, good...), "<extra/>"...),
		"repeated uses-sdk":   edit(`<application`, `<uses-sdk><minSdkVersion>1</minSdkVersion></uses-sdk><application`),
	}
}

// checkFastPath is the differential property: whenever scan claims data,
// xml.Unmarshal accepts it and builds a DeepEqual Manifest. It reports
// whether scan claimed it.
func checkFastPath(t *testing.T, data []byte) bool {
	t.Helper()
	got, ok := scan(data)
	if !ok {
		if got != nil {
			t.Fatalf("scan returned a manifest with ok=false on %q", data)
		}
		return false
	}
	var want Manifest
	if err := xml.Unmarshal(data, &want); err != nil {
		t.Fatalf("scan claimed a document xml.Unmarshal rejects (%v):\n%q", err, data)
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("scan and xml.Unmarshal disagree on %q:\nscan %+v\nxml  %+v", data, got, &want)
	}
	return true
}

// TestNearMissesTakeFallback counts, here and not in production code, which
// path each document takes: Encode's own output is claimed by scan, every
// near miss is not, and Decode still answers for both as xml.Unmarshal
// would.
func TestNearMissesTakeFallback(t *testing.T) {
	good, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !checkFastPath(t, good) {
		t.Fatalf("scan did not claim Encode's own output:\n%s", good)
	}
	fast, fallback := 1, 0
	misses := nearMisses(t)
	for name, doc := range misses {
		if checkFastPath(t, doc) {
			t.Errorf("%s: scan claimed a document Encode cannot emit:\n%s", name, doc)
			fast++
			continue
		}
		fallback++
		var want Manifest
		wantErr := xml.Unmarshal(doc, &want)
		if wantErr == nil {
			wantErr = want.Validate()
		}
		got, err := Decode(doc)
		if (err == nil) != (wantErr == nil) {
			t.Errorf("%s: Decode err %v, xml.Unmarshal+Validate err %v", name, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, &want) {
			t.Errorf("%s: Decode diverged from xml.Unmarshal:\n%+v\n%+v", name, got, &want)
		}
	}
	if want := len(misses); fast != 1 || fallback != want {
		t.Errorf("paths taken: fast %d, fallback %d; want 1 and %d", fast, fallback, want)
	}
}

// TestCountsMatchesCount: countTags's one pass counts each tag as
// strings.Count does, on Encode's output, on every near miss, and on runs
// of `<` and tags cut short.
func TestCountsMatchesCount(t *testing.T) {
	good, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	docs := nearMisses(t)
	docs["sample"] = good
	docs["tags cut short"] = []byte("<<action <<activity<service <receiver<intent-filter<uses-permission <")
	docs["back to back"] = []byte("<action <action <intent-filter><intent-filter><<<receiver <")
	for name, doc := range docs {
		got := countTags(string(doc))
		for k, tag := range countedTags {
			if want := strings.Count(string(doc), tag); got[k] != want {
				t.Errorf("%s: %d of %q, strings.Count %d", name, got[k], tag, want)
			}
		}
	}
}

// TestEncodeOutputTakesFastPath: whatever Encode can emit, scan claims —
// including the characters Encode has to escape, which come out as
// entities and so must (and do) fall back without changing the answer.
func TestEncodeOutputTakesFastPath(t *testing.T) {
	minimal := New("a.b", 1)
	noFilters := sample()
	noFilters.Application.Receivers = nil
	emptyFilter := sample()
	emptyFilter.Application.Activities[1].Filters = []IntentFilter{{}}
	for name, m := range map[string]*Manifest{"sample": sample(), "minimal": minimal, "no receivers": noFilters, "empty filter": emptyFilter} {
		doc, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !checkFastPath(t, doc) {
			t.Errorf("%s: scan did not claim Encode's output:\n%s", name, doc)
		}
	}
	escaped := sample()
	escaped.Application.Label = `Tom & "Jerry" <3`
	doc, err := escaped.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if checkFastPath(t, doc) {
		t.Errorf("scan claimed a document with entities:\n%s", doc)
	}
	got, err := Decode(doc)
	if err != nil || got.Application.Label != escaped.Application.Label {
		t.Errorf("Decode of escaped label = %+v, %v", got, err)
	}
}

// TestScanLatitudeMatchesXML covers the little latitude the grammar has
// beyond Encode's exact bytes — the prolog is optional, inter-element white
// space is free, attribute values may hold `>`, `'` and `]]>` — and checks
// that each such document is both claimed and read as encoding/xml reads it.
func TestScanLatitudeMatchesXML(t *testing.T) {
	good, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	doc := string(good)
	body := strings.TrimPrefix(doc, xml.Header)
	flat := strings.NewReplacer("\n", "", "  ", "").Replace(body)
	for name, variant := range map[string]string{
		"no prolog":          body,
		"space before root":  "\n\t " + body,
		"CRLF":               xml.Header + strings.ReplaceAll(body, "\n", "\r\n"),
		"tabs":               strings.ReplaceAll(doc, "  ", "\t"),
		"no white space":     flat,
		"trailing space":     doc + " \n\n",
		"odd but legal text": strings.Replace(doc, `label="Demo"`, `label="a>b ]]> 'c' {} \ ;"`, 1),
		"leading zeros":      strings.Replace(doc, `versionCode="3"`, `versionCode="000000003"`, 1),
	} {
		if !checkFastPath(t, []byte(variant)) {
			t.Errorf("%s: scan did not claim:\n%s", name, variant)
		}
	}
}

// FuzzFastPathMatchesXML is the differential target for scan. Seeds: real
// manifests (sample, minimal, and those of built archives under testdata)
// and the near misses.
func FuzzFastPathMatchesXML(f *testing.F) {
	good, err := sample().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	minimal, err := New("a.b", 1).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(minimal)
	f.Add([]byte("<manifest></manifest>"))
	for _, doc := range nearMisses(f) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFastPath(t, data)
	})
}

// TestDecoderReuseReadsAsFresh: one Decoder reads Encode's output for a
// full and a bare manifest and every near miss — the scanner's path and
// the fallback's, interleaved, in order and then backwards — exactly as a
// fresh Decode reads each document.
func TestDecoderReuseReadsAsFresh(t *testing.T) {
	good, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	bare, err := New("com.example.bare", 2).Encode()
	if err != nil {
		t.Fatal(err)
	}
	docs := [][]byte{good, bare}
	for _, doc := range nearMisses(t) {
		docs = append(docs, doc, good, bare)
	}
	var d Decoder
	for k := range 2 * len(docs) {
		doc := docs[k%len(docs)]
		if k >= len(docs) {
			doc = docs[2*len(docs)-1-k]
		}
		got, gotErr := d.Decode(doc)
		want, wantErr := Decode(doc)
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("document %d: a reused Decoder read %+v (%v), a fresh one %+v (%v):\n%s", k, got, gotErr, want, wantErr, doc)
		}
	}
}
