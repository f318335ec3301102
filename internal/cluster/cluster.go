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
// refused with an error that says so. Every request body, and the claim
// answer, is a fixed little-endian layout that starts with the wire
// version (frame.go); a refusal comes back as a JSON {"error": …}
// envelope.
//
//   - POST /v1/cluster/claim — report the lane's last finished vet (if
//     any) and long-poll for the lowest-seq pending submission this node
//     may take (digest-affinity routing: repeat submissions land on the
//     node whose verdict cache already holds them). The coordinator
//     settles the ack the request carries — first-wins verdict record,
//     then the lease, exactly like a local lane: a verdict computed under
//     a lost lease is still correct (content determinism) and is absorbed
//     by first-wins, never double-booked — before it starts to poll. The
//     200 body is a claim frame: a fixed binary header, then the raw
//     archive bytes. 204 means the poll came back empty. Any 2xx
//     acknowledges the ack; until a lane has seen one it sends the ack
//     again, and a repeated ack changes nothing. A wait <= 0 claims
//     nothing: it is how a stopping lane flushes its last ack.
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
	"fmt"

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
	// Node is the worker node's stable name — its affinity and liveness
	// identity. Required.
	Node string
	// WaitMS is the long-poll budget in milliseconds; the coordinator
	// answers 204 when nothing became claimable within it (capped by the
	// coordinator's maxPoll). <= 0 claims nothing: the request only
	// delivers Ack.
	WaitMS int64
	// Ack is the lane's finished vet, settled before the poll starts.
	Ack *ackRequest
}

// leaseRequest is the heartbeat/nack body.
type leaseRequest struct {
	Node  string
	Seq   int64
	Token uint64
	// Cause is the nack reason (nack only).
	Cause string
}

// ackRequest reports one completed vet; it rides a claimRequest, whose
// Node names the reporter.
type ackRequest struct {
	Seq   int64
	Token uint64

	// ModelDigest is the generation the node vetted under — the
	// propagation audit trail.
	ModelDigest string

	// Outcome is how the node's verdict cache served the vet.
	Outcome vcache.Outcome
	// WallNS is the node-side wall-clock vet cost in nanoseconds.
	WallNS int64

	// Verdict is the result (nil when the vet failed). Its Digest does not
	// travel: the coordinator keyed the claim by it and sets it from its
	// own record (vetsvc.Remote.Ack), so a node cannot report a verdict
	// under another archive's identity.
	Verdict *core.Verdict
	// Error reports a failed vet; Deadline marks it a missed deadline, which
	// maps back to core.ErrDeadlineExceeded so coordinator-side accounting
	// and gateway status codes survive the wire.
	Error    string
	Deadline bool
}

// remoteError reconstructs a typed error from the wire form.
func remoteError(msg string, deadline bool) error {
	if msg == "" {
		return nil
	}
	if deadline {
		return fmt.Errorf("%s: %w", msg, core.ErrDeadlineExceeded)
	}
	return fmt.Errorf("cluster: remote vet: %s", msg)
}
