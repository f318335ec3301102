package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"apichecker/internal/core"
	"apichecker/internal/httpio"
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
	// model requests the in-memory window misses (it holds only the last
	// few snapshots).
	Registry *modelstore.Registry

	// OnVerdict, when set, observes every remote verdict report as it
	// lands (after first-wins recording), except one refused for its key.
	// Called synchronously from the stream that carried the ack: keep it
	// fast.
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
	ttl    time.Duration // the queue's lease TTL, shipped in every claim frame; it bounds each stream write
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

	// models is the model window: the artifact bytes of the generations
	// claims advertised, by digest, the oldest evicted past modelWindow.
	modelMu    sync.Mutex
	models     map[string][]byte
	modelOrder []string

	nodesGauge                          *obs.Gauge
	claims, acks, refused, nacks, pulls *obs.Counter
}

// maxPoll caps a claim request's long-poll budget.
const maxPoll = 30 * time.Second

// modelWindow bounds the in-memory digest → artifact map (current
// generation plus a few predecessors, so a node pulling the digest a
// just-superseded claim advertised still succeeds without a registry).
const modelWindow = 4

// NewCoordinator builds a coordinator over a running service. Cluster
// metrics (cluster.nodes, cluster.claims/acks/acks_refused/nacks/
// model_pulls) register on the service's obs collector, so they flow into
// GET /metrics with no exporter changes; reclaims and lease ages are the
// queue's own (svc.queue.reclaimed, svc.queue.lease_age).
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
		refused:    col.Counter("cluster.acks_refused"),
		nacks:      col.Counter("cluster.nacks"),
		pulls:      col.Counter("cluster.model_pulls"),
	}
}

// Mount registers the cluster's one route, the claim stream, on mux.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathStream, c.handleStream)
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

// switching is the 101 that hands a stream's connection over to frames.
var switching = []byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + streamProtocol + "\r\n\r\n")

// handleStream is POST /v1/cluster/stream: it checks the node name and the
// protocol token, answers 101, and then serves the lane's frames on the
// connection until either side ends it. The stream's reader (readUp)
// decodes each up-frame and hands it over; this goroutine answers them one
// at a time, so a claim request's long-poll and everything after it keep
// their order.
func (c *Coordinator) handleStream(w http.ResponseWriter, r *http.Request) {
	node, err := nodeName(r)
	if err == nil && r.Header.Get("Upgrade") != streamProtocol {
		err = fmt.Errorf("cluster: stream protocol %q, want %q: coordinator and workers must be the same build",
			r.Header.Get("Upgrade"), streamProtocol)
	}
	if err != nil {
		httpio.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		httpio.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	defer conn.Close()
	// The server's read and write deadlines, if any, were for the request.
	conn.SetDeadline(time.Time{})
	s := &stream{rw: conn, r: brw.Reader}
	if c.ttl > 0 {
		s.rw = boundedConn{conn, c.ttl}
	}
	if _, err := s.rw.Write(switching); err != nil {
		return
	}
	c.touch(node, time.Now())

	ctx, end := context.WithCancel(context.Background())
	defer end()
	polls, cancelPolls := context.WithCancel(ctx)
	defer cancelPolls()
	frames := make(chan upFrame)
	reading := make(chan struct{})
	go func() {
		defer close(reading)
		readUp(s, frames, ctx.Done(), end, cancelPolls)
	}()
	defer func() { conn.Close(); <-reading }()
	for {
		select {
		case f := <-frames:
			if err := c.answer(polls, s, node, &f); err != nil {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// boundedConn bounds each write to a stream by the lease TTL: a lane that
// stops reading without closing ends its stream then, rather than holding
// the handler, and the claim it was sent goes back at once (sendClaim).
type boundedConn struct {
	net.Conn
	d time.Duration
}

func (c boundedConn) Write(p []byte) (int, error) {
	c.SetWriteDeadline(time.Now().Add(c.d))
	return c.Conn.Write(p)
}

// upFrame is one up-frame as the stream's reader decoded it.
type upFrame struct {
	typ    byte
	claim  claimRequest
	lease  leaseRequest
	digest string
	err    error
}

// readUp is a stream's one reader. It decodes each up-frame and hands it
// to the stream's handler, except a cancel, which it acts on at once: the
// poll in flight, and any later poll on the stream, ends empty. When the
// lane's side closes, or a frame breaks the framing, it ends the stream,
// which cancels a poll in flight as a request's context does. Claim
// requests decode into storage readUp owns (requestDecoder): frames is
// unbuffered, so the handler holds one frame while readUp decodes the next.
func readUp(s *stream, frames chan<- upFrame, done <-chan struct{}, end, cancelPolls context.CancelFunc) {
	defer end()
	var requests requestDecoder
	for {
		typ, body, err := s.read(up)
		f := upFrame{typ: typ, err: err}
		switch {
		case err != nil && !errors.Is(err, errBadFrame):
			return // the lane went away
		case err != nil:
		case typ == upCancel:
			cancelPolls()
			continue
		case typ == upClaim:
			f.claim, f.err = requests.decode(body)
		case typ == upModel:
			f.digest, f.err = decodeModelRequest(body)
		default:
			f.lease, f.err = decodeLeaseRequest(body)
		}
		select {
		case frames <- f:
		case <-done:
			return
		}
		if err != nil {
			return // the refusal is sent; the framing is lost
		}
	}
}

// answer answers one up-frame. A claim request settles the ack it carries,
// then long-polls; a nack returns its claim; a heartbeat extends its lease
// one TTL (410: it is gone); a model request gets the artifact. An error
// means the stream cannot be written and must end.
func (c *Coordinator) answer(polls context.Context, s *stream, node string, f *upFrame) error {
	if f.err != nil {
		return s.refuse(http.StatusBadRequest, f.err.Error())
	}
	now := time.Now()
	id := workqueue.LeaseID{Seq: f.lease.Seq, Token: f.lease.Token}
	switch f.typ {
	case upNack:
		if err := c.nack(id, fmt.Errorf("cluster: node %s: %s", node, f.lease.Cause)); err != nil {
			return s.refuse(http.StatusGone, err.Error())
		}
		return s.send(s.frame(downEmpty))
	case upHeartbeat:
		c.touch(node, now)
		if err := c.remote.Heartbeat(id); err != nil {
			return s.refuse(http.StatusGone, err.Error())
		}
		return s.send(s.frame(downEmpty))
	case upModel:
		data := c.artifact(f.digest)
		if data == nil {
			return s.refuse(http.StatusNotFound, "unknown model digest: "+f.digest)
		}
		c.pulls.Inc()
		return s.send(append(s.frame(downModel), data...))
	}
	req := &f.claim
	c.touch(node, now)
	if req.Acked {
		c.settleAck(node, &req.Ack)
	}
	if req.WaitMS <= 0 {
		return s.send(s.frame(downEmpty))
	}
	l, dl, err := c.poll(polls, node, now, time.Duration(req.WaitMS)*time.Millisecond)
	switch {
	case err == nil:
		return c.sendClaim(s, node, l, dl)
	case errors.Is(err, workqueue.ErrDrained):
		return s.send(s.frame(downDrained))
	case errors.Is(err, workqueue.ErrClosed):
		return s.refuse(http.StatusServiceUnavailable, err.Error())
	}
	// Nothing became claimable within the budget, or the poll was
	// cancelled (if the stream ended, this write goes nowhere).
	return s.send(s.frame(downEmpty))
}

// poll long-polls for the lowest-seq pending item node may take, for up to
// wait (capped by maxPoll). The poll is sliced so node liveness and
// affinity are re-evaluated every PollSlice; workqueue.ErrNothingClaimable
// means the budget ran out.
func (c *Coordinator) poll(ctx context.Context, node string, now time.Time, wait time.Duration) (*workqueue.Lease, time.Time, error) {
	deadline := now.Add(min(wait, maxPoll))
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
			return affinityOwner(it.Key, live) == node
		}
		until := now.Add(min(c.cfg.PollSlice, deadline.Sub(now)))
		l, dl, err := c.remote.Claim(ctx, until, accept)
		if !errors.Is(err, workqueue.ErrNothingClaimable) {
			return l, dl, err
		}
		// Slice expired: refresh liveness and try again within the budget.
		now = time.Now()
	}
	return nil, time.Time{}, workqueue.ErrNothingClaimable
}

// sendClaim writes the claim frame for lease l. A frame that cannot be
// built or written returns the item at once rather than stranding it until
// the lease TTL: if the bytes did reach the node, the duplicate vet is
// absorbed by first-wins like any other.
func (c *Coordinator) sendClaim(s *stream, node string, l *workqueue.Lease, deadline time.Time) error {
	it, id := l.Item(), l.ID()
	c.claims.Inc()
	cl := claim{
		Seq:         it.Seq,
		Key:         it.Key,
		Token:       id.Token,
		LeaseTTLMS:  c.ttl.Milliseconds(),
		ModelDigest: c.currentModel(),
	}
	if !deadline.IsZero() {
		cl.DeadlineUnixNano = deadline.UnixNano()
	}
	f, err := appendClaimHeader(s.frame(downClaim), &cl)
	if err != nil {
		c.nack(id, err)
		return s.refuse(http.StatusInternalServerError, err.Error())
	}
	if err := s.send(append(f, it.Payload...)); err != nil {
		err = fmt.Errorf("cluster: claim frame to node %s: %w", node, err)
		c.nack(id, err)
		return err
	}
	return nil
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

// nodeName reads the node name a stream's upgrade carries: it must be
// there, and at most maxName bytes, before the node is booked as live.
func nodeName(r *http.Request) (string, error) {
	node := r.Header.Get(nodeHeader)
	switch {
	case node == "":
		return "", fmt.Errorf("cluster: %s requires a node name (the %s header)", r.URL.Path, nodeHeader)
	case len(node) > maxName:
		return "", fmt.Errorf("cluster: a %d-byte node name, want at most %d", len(node), maxName)
	}
	return node, nil
}

// settleAck books one verdict report by the service's settle rule: the
// record (first-wins), then the lease. A report that arrives twice (the
// node never saw the first answer) finds the record settled and the lease
// acked, and changes nothing; cluster.acks counts reports that settled
// something. A report whose key is not the digest of the submission its
// seq names — one sent before a restart that gave the seq to other bytes —
// changes nothing either, and is counted as cluster.acks_refused; the
// lane drops it as it drops any ack an answer has acknowledged.
func (c *Coordinator) settleAck(node string, req *ackRequest) {
	recorded, held, err := c.remote.Ack(workqueue.LeaseID{Seq: req.Seq, Token: req.Token}, req.Key,
		req.Verdict, req.Outcome, remoteError(req.Error, req.Deadline), time.Duration(req.WallNS))
	if err != nil {
		c.refused.Inc()
		return
	}
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

// artifact returns the content-addressed artifact bytes for digest, from
// the model window or the registry; nil when neither holds them. A
// registry file is served only if it hashes to the digest asked for.
func (c *Coordinator) artifact(digest string) []byte {
	c.modelMu.Lock()
	data := c.models[digest]
	c.modelMu.Unlock()
	if data == nil && c.cfg.Registry != nil {
		if b, err := c.cfg.Registry.ArtifactBytes(digest); err == nil && core.ArtifactDigest(b) == digest {
			data = b
		}
	}
	return data
}

// currentModel pins the serving generation and returns its digest, first
// putting its artifact bytes in the model window so a node can pull what
// the claim advertises.
func (c *Coordinator) currentModel() string {
	g, data := c.ck.ArtifactBytes()
	c.modelMu.Lock()
	defer c.modelMu.Unlock()
	if _, ok := c.models[g.Digest]; !ok {
		c.models[g.Digest] = data
		c.modelOrder = append(c.modelOrder, g.Digest)
		for len(c.modelOrder) > modelWindow {
			delete(c.models, c.modelOrder[0])
			c.modelOrder = c.modelOrder[1:]
		}
	}
	return g.Digest
}
