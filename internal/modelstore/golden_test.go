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
// it. Recorded at c261443, before the decoder moved onto internal/wire.
const (
	artifactBytesGolden       = "337862ed8092e5e86e5dc8874a61fbd4c9d55750bd44187a1053a989b7640083"
	artifactTriageBytesGolden = "0b6bca605a79f96c80bba8486a0b81fcf22de5bd8b6bd3e25fba20c11a532de6"
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
