// Package cluster is the multi-node half of the vet-cluster protocol:
// the network layer that turns the in-process queue/claim/execute
// decomposition (internal/workqueue + internal/worker) into the fleet
// the paper actually operates — one coordinator owning the durable
// submission queue, N worker nodes claiming work over HTTP, and lease
// heartbeats making node death just another reclaim (the
// taskcluster-worker shape). A node's lanes are internal/worker's one
// executor running over this package's HTTP Claimer (worker.go): Claim is
// the long-poll below, carrying the lane's pending ack; Heartbeat is the
// heartbeat route, whose 410 is the one answer that cancels a vet; Ack
// keeps the report for the next claim; Nack is the nack route. Local lanes
// run the same executor over the queue, so the lease rules are one.
//
// The wire protocol is three POSTs plus one GET, mounted on the
// coordinator's gateway mux. Coordinator and workers ship together: the
// wire is versioned, not negotiated, and a peer of another build is
// refused with an error that says so.
//
//   - POST /v1/cluster/claim — report the lane's last finished vet (if
//     any) and long-poll for the lowest-seq pending submission this node
//     may take (digest-affinity routing: repeat submissions land on the
//     node whose verdict cache already holds them). The request is a
//     small JSON body; the coordinator settles the ack it carries —
//     first-wins verdict record, then the lease, exactly like a local
//     lane: a verdict computed under a lost lease is still correct
//     (content determinism) and is absorbed by first-wins, never
//     double-booked — before it starts to poll. The 200 body is a claim
//     frame (frame.go): a fixed binary header, then the raw archive
//     bytes. 204 means the poll came back empty. Any 2xx acknowledges
//     the ack; until a lane has seen one it sends the ack again, and a
//     repeated ack changes nothing. wait_ms <= 0 claims nothing: it is
//     how a stopping lane flushes its last ack.
//   - POST /v1/cluster/heartbeat — extend the lease mid-emulation;
//     410 means the lease was reclaimed and the node must abandon the
//     vet (workqueue.ErrLeaseLost semantics, over the wire).
//   - POST /v1/cluster/nack — return the claim for another attempt
//     (node shutting down, model pull failed, ack refused).
//   - GET /v1/model/{digest} — the encoded APKMODEL artifact, content-
//     addressed, so a stale node hot-swaps to the advertised generation
//     before vetting. No node ever serves a stale generation.
//
// Bit-identity discipline: verdicts derive from submission content
// alone, the coordinator pins sequence numbers at admission, and the
// first-wins record absorbs at-least-once delivery — so N remote nodes
// produce exactly the verdict set one serial Vet loop would.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"apichecker/internal/core"
	"apichecker/internal/vcache"
)

// Wire paths. PathModel is a prefix; the digest is the final segment.
const (
	PathClaim     = "/v1/cluster/claim"
	PathHeartbeat = "/v1/cluster/heartbeat"
	PathNack      = "/v1/cluster/nack"
	PathModel     = "/v1/model/"
)

// claimRequest reports the lane's last vet and asks for one unit of work.
type claimRequest struct {
	// V is the sender's wire version; the coordinator refuses any other
	// than frameVersion (a request from an older build carries none).
	V int `json:"v"`
	// Node is the worker node's stable name — its affinity and liveness
	// identity. Required.
	Node string `json:"node"`
	// WaitMS is the long-poll budget in milliseconds; the coordinator
	// answers 204 when nothing became claimable within it (capped by the
	// coordinator's MaxPoll). <= 0 claims nothing: the request only
	// delivers Ack.
	WaitMS int64 `json:"wait_ms"`
	// Ack is the lane's finished vet, settled before the poll starts.
	Ack *ackRequest `json:"ack,omitempty"`
}

// leaseRequest is the heartbeat/nack body.
type leaseRequest struct {
	Node  string `json:"node"`
	Seq   int64  `json:"seq"`
	Token uint64 `json:"token"`
	// Cause is the nack reason (nack only).
	Cause string `json:"cause,omitempty"`
}

// ackRequest reports one completed vet; it rides a claimRequest, whose
// Node names the reporter.
type ackRequest struct {
	Seq   int64  `json:"seq"`
	Token uint64 `json:"token"`

	// ModelDigest is the generation the node vetted under — the
	// propagation audit trail.
	ModelDigest string `json:"model_digest"`

	// Outcome is how the node's verdict cache served the vet
	// (bypass|miss|hit|coalesced).
	Outcome string `json:"outcome"`
	// WallNS is the node-side wall-clock vet cost in nanoseconds.
	WallNS int64 `json:"wall_ns"`

	// Verdict is the result (nil when the vet failed). Its Digest does not
	// travel: the coordinator keyed the claim by it and sets it from its
	// own record (vetsvc.ReportRemote), so a node cannot report a verdict
	// under another archive's identity.
	Verdict *core.Verdict `json:"verdict,omitempty"`
	// Error and ErrorKind report a failed vet; ErrorKind "deadline" maps
	// back to core.ErrDeadlineExceeded so coordinator-side accounting and
	// gateway status codes survive the wire.
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
}

// The control bodies have a fixed shape and one goes out per verdict, so
// the worker appends them by hand; the coordinator reads them with
// encoding/json, and TestControlBodiesMatchEncodingJSON holds the two to
// the same document.

// appendClaimRequest appends the claim body; ack is an encoded ackRequest
// (appendAck) or empty.
func appendClaimRequest(dst []byte, node string, waitMS int64, ack []byte) []byte {
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, frameVersion, 10)
	dst = appendJSONString(append(dst, `,"node":`...), node)
	dst = strconv.AppendInt(append(dst, `,"wait_ms":`...), waitMS, 10)
	if len(ack) > 0 {
		dst = append(append(dst, `,"ack":`...), ack...)
	}
	return append(dst, '}')
}

// appendLeaseRequest appends a heartbeat (cause empty) or nack body.
func appendLeaseRequest(dst []byte, node string, seq int64, token uint64, cause string) []byte {
	dst = appendJSONString(append(dst, `{"node":`...), node)
	dst = strconv.AppendInt(append(dst, `,"seq":`...), seq, 10)
	dst = strconv.AppendUint(append(dst, `,"token":`...), token, 10)
	if cause != "" {
		dst = appendJSONString(append(dst, `,"cause":`...), cause)
	}
	return append(dst, '}')
}

// appendAck appends one ackRequest. The score travels in the shortest
// form that parses back to the same float64; a score JSON cannot carry
// (NaN, ±Inf) produces a body the coordinator refuses, which the worker
// turns into a nack.
func appendAck(dst []byte, a *ackRequest) []byte {
	dst = strconv.AppendInt(append(dst, `{"seq":`...), a.Seq, 10)
	dst = strconv.AppendUint(append(dst, `,"token":`...), a.Token, 10)
	dst = appendJSONString(append(dst, `,"model_digest":`...), a.ModelDigest)
	dst = appendJSONString(append(dst, `,"outcome":`...), a.Outcome)
	dst = strconv.AppendInt(append(dst, `,"wall_ns":`...), a.WallNS, 10)
	if v := a.Verdict; v != nil {
		dst = appendJSONString(append(dst, `,"verdict":{"Package":`...), v.Package)
		dst = strconv.AppendInt(append(dst, `,"VersionCode":`...), int64(v.VersionCode), 10)
		dst = strconv.AppendUint(append(dst, `,"Generation":`...), v.Generation, 10)
		dst = strconv.AppendBool(append(dst, `,"Malicious":`...), v.Malicious)
		dst = strconv.AppendFloat(append(dst, `,"Score":`...), v.Score, 'g', -1, 64)
		dst = strconv.AppendInt(append(dst, `,"Tier":`...), int64(v.Tier), 10)
		dst = strconv.AppendInt(append(dst, `,"ScanTime":`...), int64(v.ScanTime), 10)
		dst = strconv.AppendInt(append(dst, `,"OverallTime":`...), int64(v.OverallTime), 10)
		dst = strconv.AppendBool(append(dst, `,"FellBack":`...), v.FellBack)
		dst = strconv.AppendInt(append(dst, `,"Crashes":`...), int64(v.Crashes), 10)
		dst = appendJSONString(append(dst, `,"Engine":`...), v.Engine)
		dst = strconv.AppendInt(append(dst, `,"InvokedKeyAPIs":`...), int64(v.InvokedKeyAPIs), 10)
		dst = append(dst, '}')
	}
	if a.Error != "" {
		dst = appendJSONString(append(dst, `,"error":`...), a.Error)
		dst = appendJSONString(append(dst, `,"error_kind":`...), a.ErrorKind)
	}
	return append(dst, '}')
}

// appendJSONString appends s as a JSON string. Bytes that are not valid
// UTF-8 pass through; the decoder reads them as U+FFFD, which is what
// encoding/json would have sent.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// errorKind classifies a vet error for the wire.
func errorKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, core.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return ""
	}
}

// parseOutcome maps the wire outcome back to the vcache enum; unknown
// strings read as bypass (the conservative bucket).
func parseOutcome(s string) vcache.Outcome {
	switch s {
	case "miss":
		return vcache.OutcomeMiss
	case "hit":
		return vcache.OutcomeHit
	case "coalesced":
		return vcache.OutcomeCoalesced
	default:
		return vcache.OutcomeBypass
	}
}

// remoteError reconstructs a typed error from the wire form.
func remoteError(msg, kind string) error {
	if msg == "" {
		return nil
	}
	if kind == "deadline" {
		return fmt.Errorf("%s: %w", msg, core.ErrDeadlineExceeded)
	}
	return fmt.Errorf("cluster: remote vet: %s", msg)
}
