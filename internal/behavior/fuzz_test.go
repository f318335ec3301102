package behavior

import "testing"

// FuzzBehaviorMatchesReference is the differential target for the version
// 2 codec: on any input Decode either rejects it or returns a Program that
// re-encodes to the same bytes and that the gob reference codec carries
// through its own round trip unchanged (checkAgainstReference). Seeds are
// the blobs of corpusPrograms, a cut and a padded one, the near-misses of
// TestDecodeRejectsWhatEncodeNeverWrites' kind, and (under testdata/fuzz)
// the assets/behavior.bin of three archives apk.Build wrote.
func FuzzBehaviorMatchesReference(f *testing.F) {
	for _, p := range corpusPrograms() {
		data, err := p.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	good, err := corpusPrograms()[0].Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte{}, good...), 0))
	f.Add([]byte{})
	f.Add([]byte(blobMagic))
	f.Add([]byte(blobMagic + "\xFF\xFF\xFF\xFF\x0F"))
	f.Add([]byte(blobMagic + "\x01\x00\x00\x00\x00\x81\x00"))
	gobBlob, err := encodeReference(corpusPrograms()[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gobBlob)

	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
	})
}
