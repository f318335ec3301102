package emulator

import (
	"math/rand/v2"
	"reflect"
	"strconv"
	"testing"

	"apichecker/internal/behavior"
	"apichecker/internal/framework"
	"apichecker/internal/hook"
)

// sampleParamStrings is sampleParam as it stood while the emulator built
// the parameter text itself, kept as the reference: same draws in the same
// order, the string made on the spot.
func sampleParamStrings(rng *rand.Rand, api *framework.API) string {
	switch rng.IntN(4) {
	case 0:
		return "arg=" + api.Name[max(0, len(api.Name)-12):]
	case 1:
		return "flags=0x" + strconv.FormatInt(int64(rng.IntN(1<<12)), 16)
	case 2:
		return "uid=" + strconv.Itoa(10000+rng.IntN(500))
	default:
		return "ctx=app"
	}
}

// TestSampleParamMatchesStringReference replays, for a few hundred
// generated programs, one parameter draw per direct API rate through
// sampleParam and the string-building reference on twin generators: the
// log must format exactly the strings the reference built (the first four
// per API, as the old slab kept), and the two generators must never fall
// out of step. Whole runs on both serving profiles are pinned end to end by
// TestAnalysisLogMatchesRecordedStrings.
func TestSampleParamMatchesStringReference(t *testing.T) {
	reg := registryAll(t)
	compared := 0
	for i := 0; i < 300; i++ {
		label, fam := behavior.Benign, behavior.FamilyNone
		if i%2 == 1 {
			label, fam = behavior.Malicious, behavior.Family(1+(i/2)%behavior.NumFamilies)
		}
		p := prog(int64(900+i), label, fam)
		rng, ref := rand.New(rand.NewPCG(uint64(p.Seed), 1)), rand.New(rand.NewPCG(uint64(p.Seed), 1))
		log := hook.NewLog(reg)
		want := map[framework.APIID][]string{}
		for a := range p.Activities {
			for _, r := range p.Activities[a].Direct {
				log.Observe(r.API, 1, sampleParam(rng))
				s := sampleParamStrings(ref, testU.API(r.API))
				if reg.Tracks(r.API) && len(want[r.API]) < 4 {
					want[r.API] = append(want[r.API], s)
				}
			}
		}
		if rng.Uint64() != ref.Uint64() {
			t.Fatalf("app %d: sampleParam drew differently from the reference", i)
		}
		log.Seal()
		invs := log.Invocations()
		if len(invs) != len(want) {
			t.Fatalf("app %d: %d invocation records, want %d", i, len(invs), len(want))
		}
		for j := range invs {
			if got := log.Params(&invs[j]); !reflect.DeepEqual(got, want[invs[j].API]) {
				t.Fatalf("app %d API %d: params %q, reference %q", i, invs[j].API, got, want[invs[j].API])
			}
			compared += len(want[invs[j].API])
		}
	}
	if compared < 5000 {
		t.Fatalf("compared only %d parameters", compared)
	}
}
