package cluster

// The wire codec, for the external tests that speak the protocol by hand
// (they stand up the real gateway, which this package must not import).
var (
	AppendClaimRequest = appendClaimRequest
	DecodeClaim        = decodeClaim
)
