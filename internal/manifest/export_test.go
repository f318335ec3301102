package manifest

// scan runs the fast path alone, on a decoder of its own: the manifest, or
// false where Decode would fall back to encoding/xml.
func scan(data []byte) (*Manifest, bool) {
	var d Decoder
	if !d.scan(data) {
		return nil, false
	}
	return &d.m, true
}

// Scan exposes the fast path to the external corpus test, which must
// import packages that themselves import this one.
var Scan = scan
