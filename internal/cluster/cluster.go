// Package cluster is the multi-node half of the vet-cluster protocol:
// the network layer that turns the in-process queue/claim/execute
// decomposition (internal/workqueue + internal/worker) into the fleet
// the paper actually operates — one coordinator owning the durable
// submission queue, N worker nodes claiming work over one upgraded HTTP
// connection per lane, and lease TTLs making node death just another
// reclaim (the
// taskcluster-worker shape). A node's lanes are internal/worker's one
// executor running over this package's Claimer (worker.go), one claim
// stream per lane: Claim is a long-poll on the stream, carrying the lane's
// pending ack; Heartbeat is a frame on the stream, whose 410 is the one
// answer that cancels a vet; Ack keeps the report for the next claim; Nack
// is a frame on the stream. The executor never overlaps Heartbeat with
// Claim, Ack or Nack, so one stream carries all four, one request at a
// time. Local lanes run the same executor over the queue, so the lease
// rules are one.
//
// The wire is one stream per lane, the one route the coordinator mounts
// on its gateway mux. Coordinator and workers ship together: the
// wire is versioned, not negotiated, and a peer of another build is
// refused with an error that says so. Every frame and body is a fixed
// little-endian layout (frame.go).
//
//   - POST /v1/cluster/stream, Upgrade: apichecker-claim/8 — the lane's
//     claim stream. The node name rides the upgrade, once, in the
//     Apichecker-Node header; the coordinator answers 101 and the
//     connection then carries frames. A claim request reports the lane's
//     last finished vet (if any) and long-polls for the lowest-seq pending
//     submission this node may take (digest-affinity routing: repeat
//     submissions land on the node whose verdict cache already holds
//     them). The coordinator settles the ack it carries — first-wins
//     verdict record, then the lease, exactly like a local lane: a verdict
//     computed under a lost lease is still correct (content determinism)
//     and is absorbed by first-wins, never double-booked — before it
//     starts to poll. The answer is a claim frame (a fixed binary header,
//     then the raw archive bytes), empty when the poll came back empty,
//     drained, or a refusal. Any answer but a refusal acknowledges the
//     ack; until a lane has seen one it sends the ack again, and a
//     repeated ack changes nothing. A wait <= 0 claims nothing: it is how
//     a stopping lane flushes its last ack. A nack returns a claim for
//     another attempt (node shutting down, model pull failed, ack
//     refused). A stopping lane cancels its poll in flight; a claim that
//     overtook the cancel is nacked at once. A stream that ends cancels
//     its poll; the leases it holds expire by their TTL, and a lane that
//     stops reading loses its stream when a write outlasts the TTL.
//   - A heartbeat frame extends a lease mid-emulation; a 410 refusal means
//     the lease was reclaimed and the node must abandon the vet
//     (workqueue.ErrLeaseLost semantics, over the wire).
//   - A model request names a digest and is answered with the encoded
//     APKMODEL artifact, content-addressed, so a stale node hot-swaps to
//     the advertised generation before vetting (404 for a digest the
//     coordinator does not hold). No node ever serves a stale generation.
//
// A refusal before the upgrade is a JSON {"error": …} envelope.
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

// PathStream is the claim stream's route, the cluster's one.
const PathStream = "/v1/cluster/stream"

// The stream's upgrade token, whose version is frameVersion, and the
// header that names the node on the upgrade.
const (
	streamProtocol = "apichecker-claim/8"
	nodeHeader     = "Apichecker-Node"
)

// claimRequest reports the lane's last vet and asks for one unit of work.
type claimRequest struct {
	// WaitMS is the long-poll budget in milliseconds; the coordinator
	// answers empty when nothing became claimable within it (capped by the
	// coordinator's maxPoll). <= 0 claims nothing: the request only
	// delivers Ack.
	WaitMS int64
	// Acked says the request carries Ack, the lane's finished vet, which is
	// settled before the poll starts.
	Acked bool
	Ack   ackRequest
}

// leaseRequest is the heartbeat/nack body.
type leaseRequest struct {
	Seq   int64
	Token uint64
	// Cause is the nack reason (nack only).
	Cause string
}

// ackRequest reports one completed vet; it rides a claimRequest, on a
// stream whose upgrade named the reporter.
type ackRequest struct {
	Seq   int64
	Token uint64
	// Key is the claim frame's key, echoed: the content digest of the bytes
	// the node vetted. The coordinator refuses an ack whose key is not the
	// digest of the submission that now holds Seq.
	Key []byte

	// ModelDigest is the generation the node vetted under — the
	// propagation audit trail.
	ModelDigest string

	// Outcome is how the node's verdict cache served the vet.
	Outcome vcache.Outcome
	// WallNS is the node-side wall-clock vet cost in nanoseconds.
	WallNS int64

	// Verdict is the result (nil when the vet failed). Its Digest does not
	// travel: Key stands for it, and the coordinator sets it from its own
	// record once Key has matched the record's (vetsvc.Remote.Ack), so a
	// node cannot report a verdict under another archive's identity.
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
