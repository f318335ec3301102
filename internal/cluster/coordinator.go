package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"apichecker/internal/core"
	"apichecker/internal/modelstore"
	"apichecker/internal/obs"
	"apichecker/internal/vetsvc"
	"apichecker/internal/workqueue"
)

// CoordinatorConfig tunes the cluster's queue-owning side.
type CoordinatorConfig struct {
	// NodeTTL is the worker-node liveness window: a node unseen for
	// longer drops out of the affinity set and the live count; <= 0
	// selects 15s.
	NodeTTL time.Duration

	// PollSlice is how often a blocked claim re-evaluates node liveness
	// and affinity (each slice is one bounded ClaimWhere); <= 0 selects
	// 250ms. Tests shrink it.
	PollSlice time.Duration

	// StealAge is the anti-starvation bound: a pending item older than
	// this is claimable by any node, affinity notwithstanding (its owner
	// is slow, dead, or drowning); <= 0 selects NodeTTL.
	StealAge time.Duration

	// Registry, when set, serves older generations' artifact bytes for
	// GET /v1/model/{digest} misses (the in-memory window holds only the
	// last few snapshots).
	Registry *modelstore.Registry

	// OnVerdict, when set, observes every remote verdict report as it
	// lands (after first-wins recording). Called synchronously from the
	// ack handler: keep it fast.
	OnVerdict func(RemoteVerdict)
}

// RemoteVerdict is one worker-node verdict report, as observed by the
// coordinator.
type RemoteVerdict struct {
	Node        string
	Seq         int64
	ModelDigest string // the generation the node vetted under
	Verdict     *core.Verdict
	Err         string
	// Recorded: this report settled the first-wins verdict record (false
	// for reclaim-raced duplicates).
	Recorded bool
}

// Coordinator is the cluster's wire in front of the service's claimer: it
// mounts the claim protocol on the gateway mux, tracks worker-node
// liveness, routes claims by digest affinity, and serves model artifacts
// so nodes always vet on the advertised generation. Claims and their
// settlement are vetsvc.Remote's — the local lanes' claim path, settle
// rule and the queue's one lease table — so the coordinator holds no lease
// of its own. Construct with NewCoordinator over a running vetsvc.Service
// (normally one opened in coordinator mode,
// vetsvc.Config.DisableLocalLanes; local lanes and remote nodes can also
// share a queue — first-wins records absorb the overlap).
type Coordinator struct {
	remote vetsvc.Remote
	ck     *core.Checker
	ttl    time.Duration // the queue's lease TTL, shipped in every claim frame
	cfg    CoordinatorConfig

	// nodes is the worker registry: each node's last sighting, by name;
	// liveness is a sighting within NodeTTL. live is the sorted live set,
	// recomputed only when it can have changed: a node joined (live == nil)
	// or the earliest expiry seen at the last recompute (liveUntil) has
	// passed. A published live slice is never written again.
	nodesMu   sync.Mutex
	nodes     map[string]time.Time
	live      []string
	liveUntil time.Time

	// model memoizes the serving generation's encoded artifact, keyed by
	// the checker's generation ID: SetTriageBand republishes the same
	// parts under the same artifact digest, but a fresh snapshot is the
	// only digest source that always matches what the checker serves.
	modelMu     sync.Mutex
	modelGen    uint64
	modelDigest string
	models      map[string][]byte
	modelOrder  []string

	nodesGauge                 *obs.Gauge
	claims, acks, nacks, pulls *obs.Counter
}

// maxPoll caps a claim request's long-poll budget.
const maxPoll = 30 * time.Second

// modelWindow bounds the in-memory digest → artifact map (current
// generation plus a few predecessors, so a node pulling the digest a
// just-superseded claim advertised still succeeds without a registry).
const modelWindow = 4

// NewCoordinator builds a coordinator over a running service. Cluster
// metrics (cluster.nodes, cluster.claims/acks/nacks/model_pulls) register
// on the service's obs collector, so they flow into GET /metrics with no
// exporter changes; reclaims and lease ages are the queue's own
// (svc.queue.reclaimed, svc.queue.lease_age).
func NewCoordinator(svc *vetsvc.Service, cfg CoordinatorConfig) *Coordinator {
	if cfg.NodeTTL <= 0 {
		cfg.NodeTTL = 15 * time.Second
	}
	if cfg.PollSlice <= 0 {
		cfg.PollSlice = 250 * time.Millisecond
	}
	if cfg.StealAge <= 0 {
		cfg.StealAge = cfg.NodeTTL
	}
	col := svc.Obs()
	return &Coordinator{
		remote:     svc.Remote(),
		ck:         svc.Checker(),
		ttl:        svc.Config().LeaseTTL,
		cfg:        cfg,
		nodes:      make(map[string]time.Time),
		models:     make(map[string][]byte),
		nodesGauge: col.Gauge("cluster.nodes"),
		claims:     col.Counter("cluster.claims"),
		acks:       col.Counter("cluster.acks"),
		nacks:      col.Counter("cluster.nacks"),
		pulls:      col.Counter("cluster.model_pulls"),
	}
}

// Mount registers the claim protocol and the model endpoint on mux.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathClaim, c.handleClaim)
	mux.HandleFunc("POST "+PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc("POST "+PathNack, c.handleNack)
	mux.HandleFunc("GET "+PathModel+"{digest}", c.handleModel)
}

// LiveNodes reports how many worker nodes are within their liveness
// window right now (the healthz surface).
func (c *Coordinator) LiveNodes() int { return len(c.liveNodes(time.Now())) }

// touch books one sighting of node.
func (c *Coordinator) touch(node string, now time.Time) {
	c.nodesMu.Lock()
	if _, ok := c.nodes[node]; !ok {
		c.live = nil
	}
	c.nodes[node] = now
	c.nodesMu.Unlock()
}

// liveNodes returns the live node names, sorted for deterministic
// affinity, and refreshes the live gauge when the set is recomputed.
func (c *Coordinator) liveNodes(now time.Time) []string {
	c.nodesMu.Lock()
	defer c.nodesMu.Unlock()
	if c.live != nil && now.Before(c.liveUntil) {
		return c.live
	}
	live := make([]string, 0, len(c.nodes))
	first := now
	for name, seen := range c.nodes {
		if now.Sub(seen) > c.cfg.NodeTTL {
			delete(c.nodes, name)
			continue
		}
		live = append(live, name)
		if seen.Before(first) {
			first = seen
		}
	}
	sort.Strings(live)
	c.live, c.liveUntil = live, first.Add(c.cfg.NodeTTL)
	c.nodesGauge.Set(int64(len(live)))
	return live
}

// affinityOwner picks the live node whose verdict cache most likely
// holds key: rendezvous (highest-random-weight) hashing over the live
// node set, so repeat submissions route to the same node while a
// membership change only reshuffles the keys the lost node owned.
func affinityOwner(key string, live []string) string {
	best, bestH := "", uint64(0)
	for _, n := range live {
		h := rendezvousHash(key, n)
		if best == "" || h > bestH || (h == bestH && n < best) {
			best, bestH = n, h
		}
	}
	return best
}

// rendezvousHash is FNV-1a over key ∥ 0x00 ∥ node.
func rendezvousHash(key, node string) uint64 {
	const offset, prime = uint64(14695981039346656037), uint64(1099511628211)
	h := offset
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	h = (h ^ 0) * prime
	for i := 0; i < len(node); i++ {
		h = (h ^ uint64(node[i])) * prime
	}
	return h
}

// handleClaim is POST /v1/cluster/claim: settle the ack the request
// carries, then long-poll for the lowest-seq pending item this node may
// take. The poll is sliced so node liveness and affinity are re-evaluated
// every PollSlice; 204 means nothing became claimable within the budget
// (the worker just re-polls), or that nothing was asked for.
func (c *Coordinator) handleClaim(w http.ResponseWriter, r *http.Request) {
	req, ok := readRequest(w, r, decodeClaimRequest)
	if !ok {
		return
	}
	if req.Node == "" {
		httpError(w, http.StatusBadRequest, "claim requires a node name")
		return
	}
	now := time.Now()
	c.touch(req.Node, now)
	if req.Ack != nil {
		c.settleAck(req.Node, req.Ack)
	}
	if req.WaitMS <= 0 {
		w.WriteHeader(http.StatusNoContent)
		return
	}

	deadline := now.Add(min(time.Duration(req.WaitMS)*time.Millisecond, maxPoll))
	for now.Before(deadline) {
		live := c.liveNodes(now)
		accept := func(it workqueue.Item) bool {
			if it.Payload == nil {
				// Memory-only submissions cannot ship; local lanes (if
				// any) own them.
				return false
			}
			if it.Key == "" || len(live) <= 1 {
				return true
			}
			if now.Sub(it.EnqueuedAt) >= c.cfg.StealAge {
				return true
			}
			return affinityOwner(it.Key, live) == req.Node
		}
		until := now.Add(min(c.cfg.PollSlice, deadline.Sub(now)))
		l, dl, err := c.remote.Claim(r.Context(), until, accept)
		switch {
		case err == nil:
			c.respondClaim(w, req.Node, l, dl)
			return
		case errors.Is(err, workqueue.ErrDrained):
			c.writeFrame(w, &claim{Drained: true}, nil)
			return
		case errors.Is(err, workqueue.ErrClosed):
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		case !errors.Is(err, workqueue.ErrNothingClaimable):
			return // the client went away
		}
		// Slice expired: refresh liveness and try again within the budget.
		now = time.Now()
	}
	w.WriteHeader(http.StatusNoContent)
}

// respondClaim writes the claim frame for lease l. A frame that cannot be
// built or written returns the item at once rather than stranding it until
// the lease TTL: if the bytes did reach the node, the duplicate vet is
// absorbed by first-wins like any other.
func (c *Coordinator) respondClaim(w http.ResponseWriter, node string, l *workqueue.Lease, deadline time.Time) {
	it, id := l.Item(), l.ID()
	digest, gen, err := c.currentModel()
	if err != nil {
		c.nack(id, fmt.Errorf("cluster: model snapshot: %w", err))
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	c.claims.Inc()
	cl := claim{
		Seq:         it.Seq,
		Key:         it.Key,
		Attempts:    uint32(it.Attempts),
		Token:       id.Token,
		LeaseTTLMS:  c.ttl.Milliseconds(),
		ModelDigest: digest,
		Generation:  gen,
	}
	if !deadline.IsZero() {
		cl.DeadlineUnixNano = deadline.UnixNano()
	}
	if err := c.writeFrame(w, &cl, it.Payload); err != nil {
		c.nack(id, fmt.Errorf("cluster: claim frame to node %s: %w", node, err))
	}
}

// nack returns id's submission for another attempt; cluster.nacks counts
// the nacks that found the lease still held.
func (c *Coordinator) nack(id workqueue.LeaseID, cause error) error {
	err := c.remote.Nack(id, cause)
	if err == nil {
		c.nacks.Inc()
	}
	return err
}

// writeFrame writes one claim frame: the header, then payload as it lies
// in the queue.
func (c *Coordinator) writeFrame(w http.ResponseWriter, cl *claim, payload []byte) error {
	bp := bufs.Get().(*[]byte)
	defer bufs.Put(bp)
	hdr, err := appendClaimHeader((*bp)[:0], cl)
	*bp = hdr[:0]
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return err
	}
	h := w.Header()
	h["Content-Type"] = octetStream
	h["Content-Length"] = []string{strconv.Itoa(len(hdr) + len(payload))}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// handleHeartbeat is POST /v1/cluster/heartbeat: extend the lease one
// TTL. 410 tells the node its lease is gone and the vet must be
// abandoned.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	req, ok := readRequest(w, r, decodeLeaseRequest)
	if !ok {
		return
	}
	c.touch(req.Node, time.Now())
	if err := c.remote.Heartbeat(workqueue.LeaseID{Seq: req.Seq, Token: req.Token}); err != nil {
		httpError(w, http.StatusGone, err.Error())
	}
}

// settleAck books one verdict report by the service's settle rule: the
// record (first-wins), then the lease. A report that arrives twice (the
// node never saw the first answer) finds the record settled and the lease
// acked, and changes nothing; cluster.acks counts reports that settled
// something.
func (c *Coordinator) settleAck(node string, req *ackRequest) {
	recorded, held := c.remote.Ack(workqueue.LeaseID{Seq: req.Seq, Token: req.Token},
		req.Verdict, req.Outcome, remoteError(req.Error, req.Deadline), time.Duration(req.WallNS))
	if recorded || held {
		c.acks.Inc()
	}
	if c.cfg.OnVerdict != nil {
		c.cfg.OnVerdict(RemoteVerdict{
			Node:        node,
			Seq:         req.Seq,
			ModelDigest: req.ModelDigest,
			Verdict:     req.Verdict,
			Err:         req.Error,
			Recorded:    recorded,
		})
	}
}

// handleNack is POST /v1/cluster/nack: return the claim for another
// attempt (or dead-letter it when attempts are exhausted).
func (c *Coordinator) handleNack(w http.ResponseWriter, r *http.Request) {
	req, ok := readRequest(w, r, decodeLeaseRequest)
	if !ok {
		return
	}
	c.touch(req.Node, time.Now())
	id := workqueue.LeaseID{Seq: req.Seq, Token: req.Token}
	if err := c.nack(id, fmt.Errorf("cluster: node %s: %s", req.Node, req.Cause)); err != nil {
		httpError(w, http.StatusGone, err.Error())
	}
}

// handleModel is GET /v1/model/{digest}: the content-addressed artifact
// bytes, from the in-memory snapshot window or the registry.
func (c *Coordinator) handleModel(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	c.modelMu.Lock()
	data := c.models[digest]
	c.modelMu.Unlock()
	if data == nil && c.cfg.Registry != nil {
		if b, err := c.cfg.Registry.ArtifactBytes(digest); err == nil {
			data = b
		}
	}
	if data == nil {
		httpError(w, http.StatusNotFound, "unknown model digest: "+digest)
		return
	}
	c.pulls.Inc()
	w.Header()["Content-Type"] = octetStream
	w.Write(data)
}

// currentModel resolves the serving generation's artifact digest,
// snapshotting and memoizing by generation ID. Snapshotting (not the
// checker's recorded digest) is the source of truth: a generation
// trained in-process has no recorded digest, and a runtime band override
// (SetTriageBand) re-encodes into a new digest even though the recorded
// one wouldn't change — either way the advertised digest always matches
// exactly what the checker serves.
func (c *Coordinator) currentModel() (digest string, gen uint64, err error) {
	g := c.ck.Generation()
	c.modelMu.Lock()
	defer c.modelMu.Unlock()
	if c.modelDigest != "" && c.modelGen == g.ID {
		return c.modelDigest, g.ID, nil
	}
	a, err := modelstore.Snapshot(c.ck)
	if err != nil {
		return "", 0, err
	}
	data, err := a.Encode()
	if err != nil {
		return "", 0, err
	}
	sum := sha256.Sum256(data)
	dig := hex.EncodeToString(sum[:])
	c.modelGen, c.modelDigest = g.ID, dig
	if _, ok := c.models[dig]; !ok {
		c.models[dig] = data
		c.modelOrder = append(c.modelOrder, dig)
		for len(c.modelOrder) > modelWindow {
			delete(c.models, c.modelOrder[0])
			c.modelOrder = c.modelOrder[1:]
		}
	}
	return dig, g.ID, nil
}

// maxControlBytes bounds a control body (claim, heartbeat, nack). They
// run to a few hundred bytes; the bound leaves room for what has no bound
// of its own — the package name a verdict carries comes from the
// submitted manifest.
const maxControlBytes = 64 << 10

// readRequest reads a control body whole and decodes it, answering 413
// beyond maxControlBytes and 400 for a body that is shorter than declared
// or does not decode.
func readRequest[T any](w http.ResponseWriter, r *http.Request, decode func([]byte) (T, error)) (req T, ok bool) {
	bp := bufs.Get().(*[]byte)
	defer bufs.Put(bp)
	b, err := *bp, error(nil)
	if n := r.ContentLength; n >= 0 && n <= maxControlBytes {
		b = slices.Grow(b[:0], int(n))[:n]
		*bp = b
		_, err = io.ReadFull(r.Body, b)
	} else {
		b, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxControlBytes))
	}
	// Closed once read to its end, the body is not drained again when the
	// answer starts.
	r.Body.Close()
	if err == nil {
		if req, err = decode(b); err == nil {
			return req, true
		}
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, err.Error())
	return req, false
}

// bufs recycles the coordinator's byte buffers: a control body until it
// is decoded, a frame header until it is written. Nothing decoded aliases
// one — the decoders copy every string they return.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// Header values set on every answer of their kind; net/http copies them
// out and never writes them.
var (
	octetStream = []string{"application/octet-stream"}
	jsonContent = []string{"application/json"}
)

// httpError writes the JSON error envelope {"error": msg}.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header()["Content-Type"] = jsonContent
	w.WriteHeader(code)
	w.Write(append(appendJSONString([]byte(`{"error":`), msg), "}\n"...))
}

// appendJSONString appends s as a JSON string. Bytes that are not valid
// UTF-8 pass through; a decoder reads them as U+FFFD.
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
