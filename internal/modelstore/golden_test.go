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
// it. First recorded at c261443, before the decoder moved onto
// internal/wire; re-recorded on purpose for format version 2, which drops
// core.Config's Lanes field from the Cfg walk (randomArtifact stopped
// drawing it, so the fixed-seed contents moved too).
const (
	artifactBytesGolden       = "8c0847738c7a9e2c8036ff51ec1908d5ed84d9ef058bc5f9effcf6323764c9ea"
	artifactTriageBytesGolden = "b4f3837ea354be5b2ed68bc82c209eb044bb52b8ce5d118302b80a14b7dce214"
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
