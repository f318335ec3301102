package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
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

	// MaxPoll caps a claim request's long-poll budget; <= 0 selects 30s.
	MaxPoll time.Duration

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

// Coordinator owns the durable queue side of the cluster: it mounts the
// claim protocol on the gateway mux, tracks worker-node liveness, routes
// claims by digest affinity, and serves model artifacts so nodes always
// vet on the advertised generation. Construct with NewCoordinator over a
// running vetsvc.Service (normally one opened in coordinator mode,
// vetsvc.Config.DisableLocalLanes; local lanes and remote nodes can also
// share a queue — first-wins records absorb the overlap).
type Coordinator struct {
	svc *vetsvc.Service
	ck  *core.Checker
	q   *workqueue.Queue
	cfg CoordinatorConfig

	// nodes is the worker registry, by node name; liveness is lastSeen
	// within NodeTTL. live is the sorted live set, recomputed only when it
	// can have changed: a node joined (live == nil) or the earliest expiry
	// seen at the last recompute (liveUntil) has passed. A published live
	// slice is never written again.
	nodesMu   sync.Mutex
	nodes     map[string]*nodeState
	live      []string
	liveUntil time.Time

	// leases maps seq → the wire-lease view of an outstanding remote
	// claim. A re-issued claim overwrites by seq; stale entries (node
	// death) are pruned on the claim path, at most once per lease TTL
	// (pruned is the last sweep). Never hold leaseMu across queue calls.
	leaseMu sync.Mutex
	leases  map[int64]*remoteLease
	pruned  time.Time

	// model memoizes the serving generation's encoded artifact, keyed by
	// the checker's generation ID: SetTriageBand republishes the same
	// parts under the same artifact digest, but a fresh snapshot is the
	// only digest source that always matches what the checker serves.
	modelMu     sync.Mutex
	modelGen    uint64
	modelDigest string
	models      map[string][]byte
	modelOrder  []string

	nodesGauge                       *obs.Gauge
	claims, acks, nacks, lost, pulls *obs.Counter
}

// nodeState is one worker node's registry entry.
type nodeState struct {
	lastSeen time.Time
	claims   uint64
	leaseAge *obs.Distribution // wall seconds per settled remote lease
}

// remoteLease pairs a queue lease with the node holding it.
type remoteLease struct {
	l        *workqueue.Lease
	node     string
	leasedAt time.Time
}

// modelWindow bounds the in-memory digest → artifact map (current
// generation plus a few predecessors, so a node pulling the digest a
// just-superseded claim advertised still succeeds without a registry).
const modelWindow = 4

// NewCoordinator builds a coordinator over a running service. Cluster
// metrics (cluster.nodes, cluster.claims/acks/nacks/reclaims, per-node
// cluster.lease_age.<node> distributions) register on the service's obs
// collector, so they flow into GET /metrics with no exporter changes.
func NewCoordinator(svc *vetsvc.Service, cfg CoordinatorConfig) *Coordinator {
	if cfg.NodeTTL <= 0 {
		cfg.NodeTTL = 15 * time.Second
	}
	if cfg.MaxPoll <= 0 {
		cfg.MaxPoll = 30 * time.Second
	}
	if cfg.PollSlice <= 0 {
		cfg.PollSlice = 250 * time.Millisecond
	}
	if cfg.StealAge <= 0 {
		cfg.StealAge = cfg.NodeTTL
	}
	col := svc.Obs()
	return &Coordinator{
		svc:        svc,
		ck:         svc.Checker(),
		q:          svc.Queue(),
		cfg:        cfg,
		nodes:      make(map[string]*nodeState),
		leases:     make(map[int64]*remoteLease),
		models:     make(map[string][]byte),
		nodesGauge: col.Gauge("cluster.nodes"),
		claims:     col.Counter("cluster.claims"),
		acks:       col.Counter("cluster.acks"),
		nacks:      col.Counter("cluster.nacks"),
		lost:       col.Counter("cluster.reclaims"),
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
	ns := c.nodes[node]
	if ns == nil {
		ns = &nodeState{leaseAge: c.svc.Obs().Distribution("cluster.lease_age." + node)}
		c.nodes[node] = ns
		c.live = nil
	}
	ns.lastSeen = now
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
	for name, st := range c.nodes {
		if now.Sub(st.lastSeen) > c.cfg.NodeTTL {
			// Expired registry entries are dropped; the node's obs
			// distribution survives on the collector and resumes if the
			// node returns.
			delete(c.nodes, name)
			continue
		}
		live = append(live, name)
		if st.lastSeen.Before(first) {
			first = st.lastSeen
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
	var req claimRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.V != frameVersion {
		httpError(w, http.StatusBadRequest, fmt.Sprintf(
			"claim wire version %d, want %d: coordinator and workers must be the same build", req.V, frameVersion))
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
	c.pruneLeases(now)

	deadline := now.Add(min(time.Duration(req.WaitMS)*time.Millisecond, c.cfg.MaxPoll))
	for {
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
		slice := min(c.cfg.PollSlice, deadline.Sub(now))
		if slice <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		sctx, cancel := context.WithTimeout(r.Context(), slice)
		l, err := c.q.ClaimWhere(sctx, accept)
		cancel()
		switch {
		case err == nil:
			c.respondClaim(w, req.Node, l)
			return
		case errors.Is(err, workqueue.ErrDrained):
			c.writeFrame(w, &claim{Drained: true}, nil)
			return
		case errors.Is(err, workqueue.ErrClosed):
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		case r.Context().Err() != nil:
			// Client went away; the slice context aborted with it.
			return
		}
		// Slice expired: refresh liveness and try again within the budget.
		now = time.Now()
	}
}

// respondClaim registers the wire lease and writes the claim frame. A
// frame that cannot be built or written returns the item at once rather
// than stranding it until the lease TTL: if the bytes did reach the node,
// the duplicate vet is absorbed by first-wins like any other.
func (c *Coordinator) respondClaim(w http.ResponseWriter, node string, l *workqueue.Lease) {
	it := l.Item()
	digest, gen, err := c.currentModel()
	if err != nil {
		l.Nack(fmt.Errorf("cluster: model snapshot: %w", err))
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	c.svc.MarkStarted(it.Seq)
	c.leaseMu.Lock()
	c.leases[it.Seq] = &remoteLease{l: l, node: node, leasedAt: time.Now()}
	c.leaseMu.Unlock()
	c.nodesMu.Lock()
	if ns := c.nodes[node]; ns != nil {
		ns.claims++
	}
	c.nodesMu.Unlock()
	c.claims.Inc()

	cl := claim{
		Seq:         it.Seq,
		Key:         it.Key,
		Attempts:    uint32(it.Attempts),
		Token:       l.Token(),
		LeaseTTLMS:  c.q.LeaseTTL().Milliseconds(),
		ModelDigest: digest,
		Generation:  gen,
	}
	if dl := c.svc.ClaimDeadline(it); !dl.IsZero() {
		cl.DeadlineUnixNano = dl.UnixNano()
	}
	if err := c.writeFrame(w, &cl, it.Payload); err != nil {
		if rl := c.takeLease(it.Seq, l.Token()); rl != nil {
			rl.l.Nack(fmt.Errorf("cluster: claim frame to node %s: %w", node, err))
			c.nacks.Inc()
		}
	}
}

// writeFrame writes one claim frame: the header, then payload as it lies
// in the queue.
func (c *Coordinator) writeFrame(w http.ResponseWriter, cl *claim, payload []byte) error {
	hdr, err := appendClaimHeader(make([]byte, 0, frameFixed+4+len(cl.Key)+len(cl.ModelDigest)), cl)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(hdr)+len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// takeLease resolves and removes the wire lease for (seq, token); nil
// when unknown or token-mismatched (reclaimed and possibly re-issued).
func (c *Coordinator) takeLease(seq int64, token uint64) *remoteLease {
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	rl := c.leases[seq]
	if rl == nil || rl.l.Token() != token {
		return nil
	}
	delete(c.leases, seq)
	return rl
}

// pruneLeases drops wire-lease entries whose queue lease has been
// reclaimed out from under the node (death mid-emulation). A re-issued
// claim overwrites its seq's entry anyway; pruning catches the tail —
// items dead-lettered or still pending — so the registry cannot leak. A
// lease is lost only by outliving the TTL, so one sweep per TTL finds
// every loss within two.
func (c *Coordinator) pruneLeases(now time.Time) {
	ttl := c.q.LeaseTTL()
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	if ttl <= 0 || now.Sub(c.pruned) < ttl {
		return
	}
	c.pruned = now
	for seq, rl := range c.leases {
		if !rl.l.Valid() {
			delete(c.leases, seq)
			c.lost.Inc()
		}
	}
}

// handleHeartbeat is POST /v1/cluster/heartbeat: extend the lease one
// TTL. 410 tells the node its lease is gone and the vet must be
// abandoned.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.touch(req.Node, time.Now())
	c.leaseMu.Lock()
	rl := c.leases[req.Seq]
	ok := rl != nil && rl.l.Token() == req.Token && rl.node == req.Node
	c.leaseMu.Unlock()
	if !ok {
		httpError(w, http.StatusGone, workqueue.ErrLeaseLost.Error())
		return
	}
	if err := rl.l.Heartbeat(); err != nil {
		c.leaseMu.Lock()
		delete(c.leases, req.Seq)
		c.leaseMu.Unlock()
		c.lost.Inc()
		httpError(w, http.StatusGone, err.Error())
	}
}

// settleAck books one verdict report: record the verdict (first-wins),
// then settle the lease. Record-before-ack mirrors the local lanes, whose
// claimer's Ack settles the record and then the lease, which may fail
// afterwards: a verdict computed under a lost lease is still the right
// verdict for those bytes. A report that arrives twice (the node never saw
// the first answer) finds the record settled and the lease taken, and
// changes nothing; cluster.acks counts reports that settled something.
func (c *Coordinator) settleAck(node string, req *ackRequest) {
	vetErr := remoteError(req.Error, req.ErrorKind)
	recorded := c.svc.ReportRemote(req.Seq, req.Verdict, parseOutcome(req.Outcome), vetErr, time.Duration(req.WallNS))

	// A missing wire lease means the queue reclaimed it (and the prune or
	// reclaim path already counted the loss); only a loss discovered here
	// — the lease looked live but Ack found it gone — bumps the counter.
	rl := c.takeLease(req.Seq, req.Token)
	if rl != nil {
		if errors.Is(rl.l.Ack(), workqueue.ErrLeaseLost) {
			c.lost.Inc()
		}
		c.observeLease(rl)
	}
	if recorded || rl != nil {
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
	var req leaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.touch(req.Node, time.Now())
	rl := c.takeLease(req.Seq, req.Token)
	if rl == nil {
		httpError(w, http.StatusGone, workqueue.ErrLeaseLost.Error())
		return
	}
	cause := fmt.Errorf("cluster: node %s: %s", req.Node, req.Cause)
	_, err := rl.l.Nack(cause)
	c.observeLease(rl)
	c.nacks.Inc()
	if errors.Is(err, workqueue.ErrLeaseLost) {
		c.lost.Inc()
		httpError(w, http.StatusGone, err.Error())
	}
}

// observeLease books the settled lease's age into the node's
// distribution.
func (c *Coordinator) observeLease(rl *remoteLease) {
	c.nodesMu.Lock()
	ns := c.nodes[rl.node]
	c.nodesMu.Unlock()
	if ns != nil {
		ns.leaseAge.Observe(time.Since(rl.leasedAt).Seconds())
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
	w.Header().Set("Content-Type", "application/octet-stream")
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

// decodeBody decodes a JSON request body, answering 413 beyond
// maxControlBytes and 400 on any other failure.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBytes)).Decode(into)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, "decoding request body: "+err.Error())
	return false
}

// httpError writes a JSON error envelope.
func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(body)
}
