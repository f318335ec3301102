package manifest_test

import (
	"encoding/xml"
	"reflect"
	"testing"

	"apichecker/internal/dataset"
	"apichecker/internal/framework"
	"apichecker/internal/manifest"
)

// TestPayloadCorpusTakesFastPath builds the manifests of a corpus shaped
// like the serving benchmark's payload set (bench/inputs.go: a 6000-API
// universe, 4000 apps, corpus seed = run seed + 11) and counts the path
// each takes: all of them the scanner, none the xml.Unmarshal fallback,
// and each read exactly as xml.Unmarshal reads it — also by one Decoder
// reused across the corpus, the way an archive handle decodes them.
func TestPayloadCorpusTakesFastPath(t *testing.T) {
	const apps, seed = 4000, 1
	ucfg := framework.TestConfig(6000)
	ucfg.Seed = seed
	u, err := framework.Generate(ucfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dataset.DefaultConfig()
	dcfg.Seed = seed + 11
	dcfg.NumApps = apps
	corpus, err := dataset.Generate(u, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	fast, fallback := 0, 0
	var dec manifest.Decoder
	for i := 0; i < corpus.Len(); i++ {
		m, err := corpus.Program(i).Manifest(u)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, ok := manifest.Scan(doc)
		if !ok {
			if fallback++; fallback <= 3 {
				t.Errorf("app %d: scan left Encode's output to the fallback:\n%s", i, doc)
			}
			continue
		}
		fast++
		var want manifest.Manifest
		if err := xml.Unmarshal(doc, &want); err != nil {
			t.Fatalf("app %d: xml.Unmarshal rejects Encode's output: %v", i, err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("app %d: scan and xml.Unmarshal disagree:\n%+v\n%+v", i, got, &want)
		}
		if again, err := dec.Decode(doc); err != nil || !reflect.DeepEqual(again, &want) {
			t.Fatalf("app %d: a reused Decoder read %+v (%v), xml.Unmarshal %+v", i, again, err, &want)
		}
	}
	if fast != apps || fallback != 0 {
		t.Errorf("paths taken over %d manifests: fast %d, fallback %d; want all fast", apps, fast, fallback)
	}
}
