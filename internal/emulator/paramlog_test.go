package emulator_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"apichecker/internal/analysislog"
	"apichecker/internal/behavior"
	"apichecker/internal/emulator"
	"apichecker/internal/framework"
	"apichecker/internal/hook"
	"apichecker/internal/monkey"
)

// analysisLogGolden is the sha256 of the analysis log — every invocation's
// count and formatted parameters included — of 300 generated programs run
// under full tracking on both serving profiles. First recorded at d28d648
// (0d4bec85…), when the emulator still built each parameter string as it
// sampled it. Re-recorded once, on top of 4d11e0c, for the stream move: the
// run and app-speed streams are math/rand/v2 PCG streams now, so every
// count, parameter draw and scan time in the log moved, and the records say
// "v":2. Nothing else may move it: an RNG draw or a format that shifts
// shows here.
const analysisLogGolden = "73e3cedb21b0d5fab9cedd9d43f3447eae5e0b1a67828db3ddce97a1c99faa72"

func TestAnalysisLogMatchesRecordedStrings(t *testing.T) {
	u := framework.MustGenerate(framework.TestConfig(3000))
	gen := behavior.NewGenerator(u)
	var ids []framework.APIID
	for _, a := range u.APIs() {
		if !a.Hidden {
			ids = append(ids, a.ID)
		}
	}
	var buf bytes.Buffer
	w := analysislog.NewWriter(&buf)
	params := 0
	for _, prof := range []emulator.Profile{emulator.GoogleEmulator, emulator.LightweightEmulator} {
		emu := emulator.New(prof, hook.MustNewRegistry(u, ids))
		for i := 0; i < 300; i++ {
			spec := behavior.Spec{
				PackageName: fmt.Sprintf("com.params.app%03d", i),
				Version:     1 + i%4,
				Seed:        int64(5000 + 13*i),
				Label:       behavior.Benign,
				Category:    behavior.Category(i % behavior.NumCategories),
			}
			if i%2 == 1 {
				spec.Label = behavior.Malicious
				spec.Family = behavior.Family(1 + (i/2)%behavior.NumFamilies)
			}
			p := gen.Generate(spec)
			res, err := emu.Run(p, monkey.ProductionConfig(int64(77+i)))
			if err != nil {
				t.Fatal(err)
			}
			rec := analysislog.FromResult(p.PackageName, p.Version, "", res, u)
			for _, inv := range rec.Invocations {
				params += len(inv.Params)
			}
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if params < 10000 {
		t.Fatalf("only %d sampled parameters in the log; the golden would pin little", params)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != analysisLogGolden {
		t.Errorf("analysis log moved: sha256 over %d bytes (%d parameters) = %s, want %s",
			buf.Len(), params, got, analysisLogGolden)
	}
}
