package cluster

import (
	"context"
	"net/http"

	"apichecker/internal/core"
)

// The affinity rule, for the external tests that speak the protocol by
// hand (they stand up the real gateway, which this package must not
// import).
var AffinityOwner = affinityOwner

// The stream's frame types and protocol token, for tests that watch a
// stream go by.
const (
	UpClaim        = upClaim
	UpHeartbeat    = upHeartbeat
	UpModel        = upModel
	DownClaim      = downClaim
	DownModel      = downModel
	StreamProtocol = streamProtocol
	NodeHeader     = nodeHeader
	MaxNodeName    = maxNodeName
	MaxControl     = maxControlBytes
)

// EnvelopeOf is a stream frame of type typ that declares n body bytes and
// carries body.
var EnvelopeOf = envelopeOf

// AppendAck encodes the report of verdict v for the claim (seq, token,
// key), as a lane appends it to its next claim request.
func AppendAck(seq int64, token uint64, key string, v *core.Verdict) []byte {
	return appendAck(nil, &ackRequest{Seq: seq, Token: token, Key: []byte(key), Verdict: v})
}

// ClaimCarriesAck reports whether a claim request body carries an ack.
func ClaimCarriesAck(body []byte) bool {
	req, err := new(requestDecoder).decode(body)
	return err == nil && req.Acked
}

// ClaimWaitMS reads a claim request body's long-poll budget; -1 when the
// body does not decode.
func ClaimWaitMS(body []byte) int64 {
	req, err := new(requestDecoder).decode(body)
	if err != nil {
		return -1
	}
	return req.WaitMS
}

// Claim is a decoded claim frame.
type Claim = claim

// Stream is a claim stream driven by hand, one frame at a time, and the
// lane of a worker of its own that opened it.
type Stream struct {
	s  *stream
	ln *lane
}

// OpenStream opens a claim stream to the coordinator at base as node, the
// way a lane does; client nil is http.DefaultClient.
func OpenStream(base, node string, client *http.Client) (*Stream, error) {
	if client == nil {
		client = http.DefaultClient
	}
	w := &Worker{cfg: WorkerConfig{Coordinator: base, Node: node}, client: client, ctx: context.Background()}
	s, err := w.dial(context.Background())
	if err != nil {
		return nil, err
	}
	return &Stream{s: s, ln: &lane{w: w, s: s}}, nil
}

// Heartbeat is the lane's Heartbeat for the claim (seq, token), on the
// stream: lost when the coordinator refused it 410.
func (s *Stream) Heartbeat(seq int64, token uint64) (lost bool, err error) {
	return s.ln.Heartbeat(&job{claim: claim{Seq: seq, Token: token}})
}

// Stats is the stream's worker's.
func (s *Stream) Stats() WorkerStats { return s.ln.w.Stats() }

// Write writes p to the stream as it is, for frames no lane would send.
func (s *Stream) Write(p []byte) (int, error) { return s.s.rw.Write(p) }

// Send sends a claim request carrying ack (nil: none) and does not wait
// for its answer.
func (s *Stream) Send(waitMS int64, ack []byte) error {
	return s.s.send(appendClaimRequest(s.s.frame(upClaim), waitMS, ack))
}

// Answer reads one answer: "claim" with its frame, "empty", "drained" or
// "model"; a refusal is the error a lane would report.
func (s *Stream) Answer() (string, *claim, error) {
	typ, body, err := s.s.read(down)
	if err != nil {
		return "", nil, err
	}
	switch typ {
	case downClaim:
		cl := new(claim)
		return "claim", cl, decodeClaim(body, cl)
	case downEmpty:
		return "empty", nil, nil
	case downDrained:
		return "drained", nil, nil
	case downModel:
		return "model", nil, nil
	}
	_, err = readRefusal(typ, body)
	return "refused", nil, err
}

// Claim sends a claim request and reads its answer.
func (s *Stream) Claim(waitMS int64, ack []byte) (string, *claim, error) {
	if err := s.Send(waitMS, ack); err != nil {
		return "", nil, err
	}
	return s.Answer()
}

// Close ends the stream.
func (s *Stream) Close() error { return s.s.rw.Close() }
