package modelstore

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// Artifact bytes pinned: sha256 over the concatenated Encode of the
// fixed-seed artifacts goldenArtifacts builds, without and with the
// optional TRI1 section. Decode is canonical (FuzzArtifactDecode), so its
// accept set is Encode's image only while Encode does not move; these pin
// it. Re-recorded on purpose for format version 3, whose hand-written
// fields carry the model half of core.Config (the triage band included)
// and no node settings, so randomArtifact no longer draws a cache bound.
const (
	artifactBytesGolden       = "fa963bba46d6d0579c854f696f2540ca079d6c9046bb3b4480c1962860661166"
	artifactTriageBytesGolden = "3dc2a37e04fae0b3673b0fb5ac448a07c331f1a6aaaf2874e15bbbdb2378c01c"
)

// goldenArtifacts builds the artifacts of seeds 1-4, bare or with a triage
// model.
func goldenArtifacts(t *testing.T, triage bool) []byte {
	t.Helper()
	var all []byte
	for seed := int64(1); seed <= 4; seed++ {
		a := randomArtifact(t, seed)
		if triage {
			a = withTriage(t, a, seed*31)
		}
		enc, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, enc...)
	}
	return all
}

func TestArtifactBytesGolden(t *testing.T) {
	for _, tc := range []struct {
		triage bool
		want   string
	}{{false, artifactBytesGolden}, {true, artifactTriageBytesGolden}} {
		sum := sha256.Sum256(goldenArtifacts(t, tc.triage))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("Encode bytes moved (triage %v): sha256 = %s, want %s", tc.triage, got, tc.want)
		}
	}
}
