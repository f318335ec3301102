package apk

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"apichecker/internal/behavior"
)

// buildBytesGolden is the sha256 over the concatenation of the 32 archives
// goldenArchives builds. Build's bytes are the benchmark's inputs and the
// verdict cache's keys: a decoder change must not move them.
//
// Re-recorded once, on purpose, for behaviour blob v2: assets/behavior.bin
// went from a gob stream to the cursor format of behavior.Encode, so every
// archive's bytes (and with them every content digest and digest-seeded
// Monkey stream) moved. Mean size of these 32 archives 6,166.7 → 5,550.7 B;
// their blobs 2,525.8 → 1,423.3 B raw. Before that it stood at
// 2e2aaf51…8492a7c4, recorded at d581e77 ahead of the decode diet.
const buildBytesGolden = "8299886976f6b6fa147d91514756e52398be1a542b9a5e1043803ec565ec5a91"

// goldenArchives builds 32 archives from fixed seeds: every malware family
// and every benign category appears at least once.
func goldenArchives(tb testing.TB) [][]byte {
	tb.Helper()
	out := make([][]byte, 32)
	for i := range out {
		spec := behavior.Spec{
			PackageName: fmt.Sprintf("com.golden.app%02d", i),
			Version:     1 + i%5,
			Seed:        int64(1000 + 7*i),
			Label:       behavior.Benign,
			Category:    behavior.Category(i % behavior.NumCategories),
		}
		if i%2 == 1 {
			spec.Label = behavior.Malicious
			spec.Family = behavior.Family(1 + (i/2)%behavior.NumFamilies)
		}
		data, err := Build(testGen.Generate(spec), testU)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = data
	}
	return out
}

func TestBuildBytesGolden(t *testing.T) {
	h := sha256.New()
	for _, data := range goldenArchives(t) {
		h.Write(data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != buildBytesGolden {
		t.Errorf("Build bytes moved: sha256 over 32 fixed-seed archives = %s, want %s", got, buildBytesGolden)
	}
}
