package cluster

import "apichecker/internal/core"

// The wire codec and the affinity rule, for the external tests that speak
// the protocol by hand (they stand up the real gateway, which this package
// must not import).
var (
	AppendClaimRequest = appendClaimRequest
	DecodeClaim        = decodeClaim
	AffinityOwner      = affinityOwner
)

// AppendAck encodes the report of verdict v for the claim (seq, token), as
// a lane appends it to its next claim request.
func AppendAck(seq int64, token uint64, v *core.Verdict) []byte {
	return appendAck(nil, &ackRequest{Seq: seq, Token: token, Verdict: v})
}

// ClaimCarriesAck reports whether a claim request body carries an ack.
func ClaimCarriesAck(body []byte) bool {
	req, err := decodeClaimRequest(body)
	return err == nil && req.Ack != nil
}

// ClaimWaitMS reads a claim request body's long-poll budget; -1 when the
// body does not decode.
func ClaimWaitMS(body []byte) int64 {
	req, err := decodeClaimRequest(body)
	if err != nil {
		return -1
	}
	return req.WaitMS
}
