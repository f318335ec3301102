package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"apichecker/internal/ml"
)

// entryBytesGolden is the sha256 over the concatenated EncodeEntry of
// goldenEntries. DecodeEntry is canonical (FuzzEntryDecode), so its accept
// set is EncodeEntry's image only while EncodeEntry does not move; this
// pins it. Recorded at c261443, before the decoder moved onto internal/wire.
const entryBytesGolden = "cefeb91d3c8dda1f08c253f510d414cbbd32a60cb201e66345baa40edccb5a27"

// goldenEntries: a tier-2 verdict with a vector, a tier-1 verdict with an
// empty vector, and a NaN score.
func goldenEntries() []byte {
	entries := []struct {
		v Verdict
		x ml.Vector
	}{
		{Verdict{Package: "com.golden.tier2", VersionCode: 7, Generation: 3, Malicious: true, Score: 0.8125,
			Tier: 2, ScanTime: 95 * time.Second, OverallTime: 97 * time.Second, FellBack: true, Crashes: 2,
			Engine: "google-emulator", InvokedKeyAPIs: 41}, ml.Vector{1, 0xFFFF_FFFF_FFFF_FFFF, 1 << 63}},
		{Verdict{Package: "com.golden.tier1", VersionCode: -1, Generation: 1, Score: 0.03125, Tier: 1,
			ScanTime: 75 * time.Microsecond, OverallTime: 75*time.Microsecond + FixedOverhead,
			Engine: "triage.static"}, ml.Vector{}},
		{Verdict{Package: "com.golden.nan", Score: math.NaN(), Tier: 2, Engine: "lightweight"}, nil},
	}
	var all []byte
	for _, e := range entries {
		all = append(all, EncodeEntry(&e.v, e.x)...)
	}
	return all
}

func TestEntryBytesGolden(t *testing.T) {
	sum := sha256.Sum256(goldenEntries())
	if got := hex.EncodeToString(sum[:]); got != entryBytesGolden {
		t.Errorf("EncodeEntry bytes moved: sha256 = %s, want %s", got, entryBytesGolden)
	}
}
