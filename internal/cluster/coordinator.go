package cluster

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
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
	// PollSlice is how often a blocked claim re-reads the live node set
	// and affinity (each slice is one bounded ClaimWhere); <= 0 selects
	// 250ms. Tests shrink it.
	PollSlice time.Duration

	// StealAge is the anti-starvation bound: a pending item older than
	// this is claimable by any node, affinity notwithstanding (its owner
	// is slow, wedged, or drowning); <= 0 selects 15s.
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
// mounts the claim protocol on the gateway mux, counts each worker node's
// open streams (a node is live while one is open), routes claims by digest
// affinity, and serves model artifacts so nodes always vet on the
// advertised generation. Claims and their settlement are vetsvc.Remote's —
// the local lanes' claim path, settle rule and the queue's one lease table
// — so the coordinator holds no lease of its own. Construct with
// NewCoordinator over a running vetsvc.Service (normally one opened in
// coordinator mode, vetsvc.Config.DisableLocalLanes; local lanes and
// remote nodes can also share a queue — first-wins records absorb the
// overlap).
type Coordinator struct {
	remote vetsvc.Remote
	ck     *core.Checker
	ttl    time.Duration // the queue's lease TTL, shipped in every claim frame; it bounds each stream write
	cfg    CoordinatorConfig

	// nodes holds each live node, by name: a node joins with its first
	// stream's 101 and leaves when its last stream ends. live is the
	// sorted set of those names, built anew on each join and leave and
	// never written once published.
	nodesMu sync.Mutex
	nodes   map[string]*node
	live    []string

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
	if cfg.PollSlice <= 0 {
		cfg.PollSlice = 250 * time.Millisecond
	}
	if cfg.StealAge <= 0 {
		cfg.StealAge = 15 * time.Second
	}
	col := svc.Obs()
	return &Coordinator{
		remote:     svc.Remote(),
		ck:         svc.Checker(),
		ttl:        svc.Config().LeaseTTL,
		cfg:        cfg,
		nodes:      make(map[string]*node),
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

// LiveNodes reports how many worker nodes have a stream open right now
// (the healthz surface).
func (c *Coordinator) LiveNodes() int { return len(c.liveNodes()) }

// liveNodes returns the published live set, sorted for deterministic
// affinity.
func (c *Coordinator) liveNodes() []string {
	c.nodesMu.Lock()
	defer c.nodesMu.Unlock()
	return c.live
}

// node is one live node: its name, its open streams (one per lane), how
// many of them hold a claim, and when one of them last ended holding a
// claim, in Unix nanoseconds. For one PollSlice after that, the node's
// polls take no claim that was issued before: its other streams may be
// ending too, unnoticed, and a claim one of them took back would cost an
// attempt for nothing. Other nodes take it at once.
type node struct {
	name     string
	streams  int
	held     atomic.Int64
	returned atomic.Int64
}

// hold books one of n's streams going from holding was to holding now.
func (n *node) hold(was, now workqueue.LeaseID) {
	switch none := (workqueue.LeaseID{}); {
	case was == none && now != none:
		n.held.Add(1)
	case was != none && now == none:
		n.held.Add(-1)
	}
}

// HeldClaims reports each live node's streams that hold a claim: sent,
// and neither acked nor nacked yet (the healthz surface).
func (c *Coordinator) HeldClaims() map[string]int {
	c.nodesMu.Lock()
	defer c.nodesMu.Unlock()
	held := make(map[string]int, len(c.nodes))
	for name, n := range c.nodes {
		held[name] = int(n.held.Load())
	}
	return held
}

// book adds delta to name's open streams: +1 once a stream's 101 is
// written, -1 when it ends. When the node joins or leaves, it publishes
// a new live set and sets the live gauge. It returns the node, which
// stays the same while the stream that booked it is open.
func (c *Coordinator) book(name string, delta int) *node {
	c.nodesMu.Lock()
	defer c.nodesMu.Unlock()
	n := c.nodes[name]
	if n == nil {
		n = &node{name: name}
		c.nodes[name] = n
	}
	was := n.streams
	n.streams += delta
	if was > 0 && n.streams > 0 {
		return n // the node's other streams keep it live
	}
	if n.streams == 0 {
		delete(c.nodes, name)
	}
	c.live = slices.Sorted(maps.Keys(c.nodes))
	c.nodesGauge.Set(int64(len(c.live)))
	return n
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
// connection until either side ends it; the node is live from the 101
// until then. The stream's reader (readUp) decodes each up-frame and hands
// it over; this goroutine answers them one at a time, so a claim request's
// long-poll and everything after it keep their order. The stream holds the
// claim it last sent until an ack or nack of it arrives, and its end, for
// whatever reason, returns that claim before the connection closes.
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
	n := c.book(node, +1)
	defer c.book(node, -1)

	ctx, end := context.WithCancelCause(context.Background())
	frames := make(chan upFrame)
	reading := make(chan struct{})
	go func() {
		defer close(reading)
		readUp(s, frames, ctx.Done(), end)
	}()
	var (
		held  workqueue.LeaseID
		ended error
	)
	for ended == nil {
		select {
		case f := <-frames:
			ended = c.answer(ctx, s, n, &f, &held)
		case <-ctx.Done():
			ended = context.Cause(ctx)
		}
	}
	if held != (workqueue.LeaseID{}) {
		n.returned.Store(time.Now().UnixNano())
		c.nack(held, fmt.Errorf("cluster: node %s: stream ended: %w", node, ended))
		n.hold(held, workqueue.LeaseID{})
	}
	end(ended)
	conn.Close()
	<-reading
}

// boundedConn bounds each write to a stream by the lease TTL: a lane that
// stops reading without closing ends its stream then, rather than holding
// the handler, and the stream's end returns the claim it was sent.
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
// to the stream's handler. When the lane's side closes, it ends the stream
// with the read's error as the cause, which also ends a poll in flight.
// Claim requests decode into storage readUp owns (requestDecoder): frames
// is unbuffered, so the handler holds one frame while readUp decodes the
// next.
func readUp(s *stream, frames chan<- upFrame, done <-chan struct{}, end context.CancelCauseFunc) {
	var requests requestDecoder
	for {
		typ, body, err := s.read(up)
		if err != nil && !errors.Is(err, errBadFrame) {
			end(err) // the lane went away
			return
		}
		f := upFrame{typ: typ, err: err}
		switch {
		case err != nil:
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
		if f.err != nil {
			return // the handler refuses it, which ends the stream
		}
	}
}

// answer answers one up-frame. A claim request settles the ack it carries,
// then long-polls; a nack returns its claim; a heartbeat extends its lease
// one TTL (410: it is gone); a model request gets the artifact. held is the
// claim the stream last sent, until an ack or nack of it arrives. An error
// ends the stream: it cannot be written, or the frame was refused.
func (c *Coordinator) answer(ctx context.Context, s *stream, n *node, f *upFrame, held *workqueue.LeaseID) error {
	if f.err != nil {
		s.refuse(http.StatusBadRequest, f.err.Error())
		return fmt.Errorf("refused 400 Bad Request: %w", f.err)
	}
	id := workqueue.LeaseID{Seq: f.lease.Seq, Token: f.lease.Token}
	switch f.typ {
	case upNack:
		n.release(held, id)
		if err := c.nack(id, fmt.Errorf("cluster: node %s: %s", n.name, f.lease.Cause)); err != nil {
			return s.refuse(http.StatusGone, err.Error())
		}
		return s.send(s.frame(downEmpty))
	case upHeartbeat:
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
	if req.Acked {
		n.release(held, workqueue.LeaseID{Seq: req.Ack.Seq, Token: req.Ack.Token})
		c.settleAck(n.name, &req.Ack)
	}
	if req.WaitMS <= 0 {
		return s.send(s.frame(downEmpty))
	}
	l, dl, err := c.poll(ctx, n, time.Duration(req.WaitMS)*time.Millisecond)
	switch {
	case err == nil:
		n.hold(*held, l.ID())
		*held = l.ID()
		return c.sendClaim(s, &l, dl)
	case errors.Is(err, workqueue.ErrDrained):
		return s.send(s.frame(downDrained))
	case errors.Is(err, workqueue.ErrClosed):
		return s.refuse(http.StatusServiceUnavailable, err.Error())
	}
	// Nothing became claimable within the budget, or the stream ended (this
	// write then goes nowhere).
	return s.send(s.frame(downEmpty))
}

// poll long-polls for the lowest-seq pending item node n may take, for up
// to wait (capped by maxPoll). The poll is sliced so the live set and
// affinity are re-read every PollSlice: a node that joins or leaves
// reaches a waiting poll within one slice. workqueue.ErrNothingClaimable
// means the budget ran out.
func (c *Coordinator) poll(ctx context.Context, n *node, wait time.Duration) (workqueue.Lease, time.Time, error) {
	now := time.Now()
	deadline := now.Add(min(wait, maxPoll))
	for now.Before(deadline) {
		live := c.liveNodes()
		accept := func(it workqueue.Item) bool {
			if it.Payload == nil {
				// Memory-only submissions cannot ship; local lanes (if
				// any) own them.
				return false
			}
			if it.Attempts > 0 && now.UnixNano()-n.returned.Load() < int64(c.cfg.PollSlice) {
				return false // see node
			}
			if it.Key == "" || len(live) <= 1 {
				return true
			}
			if now.Sub(it.EnqueuedAt) >= c.cfg.StealAge {
				return true
			}
			return affinityOwner(it.Key, live) == n.name
		}
		until := now.Add(min(c.cfg.PollSlice, deadline.Sub(now)))
		l, dl, err := c.remote.Claim(ctx, until, accept)
		if !errors.Is(err, workqueue.ErrNothingClaimable) {
			return l, dl, err
		}
		// Slice expired: re-read the live set and try again within the budget.
		now = time.Now()
	}
	return workqueue.Lease{}, time.Time{}, workqueue.ErrNothingClaimable
}

// sendClaim writes the claim frame for lease l, the stream's held claim:
// a frame that cannot be built or written ends the stream, which returns
// the claim at once. If the bytes did reach the node, the duplicate vet is
// absorbed by first-wins like any other.
func (c *Coordinator) sendClaim(s *stream, l *workqueue.Lease, deadline time.Time) error {
	it := l.Item()
	c.claims.Inc()
	cl := claim{
		Seq:         it.Seq,
		Key:         it.Key,
		Token:       l.ID().Token,
		LeaseTTLMS:  c.ttl.Milliseconds(),
		ModelDigest: c.currentModel(),
	}
	if !deadline.IsZero() {
		cl.DeadlineUnixNano = deadline.UnixNano()
	}
	f, err := appendClaimHeader(s.frame(downClaim), &cl)
	if err != nil {
		s.refuse(http.StatusInternalServerError, err.Error())
		return err
	}
	return s.send(append(f, it.Payload...))
}

// release clears the stream's held claim when id names it.
func (n *node) release(held *workqueue.LeaseID, id workqueue.LeaseID) {
	if *held == id {
		n.hold(*held, workqueue.LeaseID{})
		*held = workqueue.LeaseID{}
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

// nodeName reads the node name a stream's upgrade carries: it must be
// there, and at most maxNodeName bytes, before the node is booked as live.
func nodeName(r *http.Request) (string, error) {
	node := r.Header.Get(nodeHeader)
	switch {
	case node == "":
		return "", fmt.Errorf("cluster: %s requires a node name (the %s header)", r.URL.Path, nodeHeader)
	case len(node) > maxNodeName:
		return "", fmt.Errorf("cluster: a %d-byte node name, want at most %d", len(node), maxNodeName)
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
