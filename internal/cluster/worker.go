package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"apichecker/internal/core"
	"apichecker/internal/worker"
	"apichecker/internal/workqueue"
)

// WorkerConfig tunes one worker node.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	// Required.
	Coordinator string

	// Node is this node's stable name, at most 255 bytes: its affinity
	// identity across the fleet, live while any of its lanes' streams is
	// open. Required, and must be unique per node.
	Node string

	// Lanes is the concurrent claim-loop count; <= 0 selects 4.
	Lanes int

	// PollWait is the long-poll budget sent with each claim request;
	// <= 0 selects 10s.
	PollWait time.Duration

	// Client is the HTTP client; nil builds one with no overall timeout
	// (a claim stream lives as long as its lane). Its transport must hand
	// over an upgraded connection, as http.Transport does.
	Client *http.Client

	// VerdictCache is the node's verdict-cache capacity: 0 selects the
	// default capacity, negative disables the cache. The model config
	// comes with the artifact; this is the node's whole node config.
	VerdictCache int

	// OnVet, when set, observes every completed vet before it is acked.
	OnVet func(seq int64, v *core.Verdict, err error)
}

// WorkerStats is a point-in-time activity snapshot for one node.
type WorkerStats struct {
	Claims     uint64 // claims taken
	Verdicts   uint64 // vets completed and reported
	Nacks      uint64 // claims returned (model failure, panic, shutdown)
	Panics     uint64 // vets that panicked (recovered, their claims nacked)
	LeaseLost  uint64 // heartbeats refused 410: the lease was lost, the vet abandoned
	ModelPulls uint64 // artifacts fetched over the wire
	ModelSwaps uint64 // hot-swaps adopted after cold-start
}

// Worker is one running worker node: Lanes claim lanes, each run by
// internal/worker's executor, vetting with the full local pipeline on a
// checker cold-started (and hot-swapped) from the coordinator's advertised
// model generation. Construct with StartWorker; Stop cancels the lanes,
// Wait blocks until they exit (coordinator drained or stopped).
type Worker struct {
	cfg    WorkerConfig
	client *http.Client

	ctx    context.Context
	cancel context.CancelFunc
	pool   *worker.Pool

	// modelMu serializes model management: the first lane to see a new
	// digest pulls and swaps while the others wait, so no lane ever vets
	// on a stale generation once a claim advertised a newer one.
	modelMu sync.Mutex
	ck      *core.Checker

	claims, verdicts, nacks, panics, leaseLost, pulls, swaps atomic.Uint64
}

// StartWorker launches a worker node and returns immediately; lanes run
// until Stop, a fatal configuration error, or the coordinator reports
// its queue drained.
func StartWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("cluster: worker requires a coordinator URL")
	}
	if cfg.Node == "" {
		return nil, fmt.Errorf("cluster: worker requires a node name")
	}
	if len(cfg.Node) > maxNodeName {
		return nil, fmt.Errorf("cluster: a %d-byte node name, want at most %d", len(cfg.Node), maxNodeName)
	}
	if i := strings.IndexFunc(cfg.Node, func(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f }); i >= 0 {
		return nil, fmt.Errorf("cluster: node name byte %#02x at %d: the name travels in an HTTP header", cfg.Node[i], i)
	}
	if cfg.Lanes <= 0 {
		cfg.Lanes = 4
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 10 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	w := &Worker{cfg: cfg, client: client}
	w.ctx, w.cancel = context.WithCancel(context.Background())
	w.pool = worker.Executor[*job]{
		Do:      w.vet,
		OnPanic: func(*job, any) { w.panics.Add(1) },
	}.Start(w.ctx, cfg.Lanes, func() worker.Claimer[*job] { return &lane{w: w} })
	return w, nil
}

// Stop cancels the lanes and waits for them to exit. In-flight vets are
// cancelled at the next emulation boundary and their claims nacked back
// to the coordinator for prompt re-issue; a vet that had finished is
// still reported. A lane stopped mid-poll closes its stream. Whatever a
// lane's stream still holds when it ends, by Stop or by SIGKILL, the
// coordinator returns at once.
func (w *Worker) Stop() {
	w.cancel()
	w.pool.Wait()
}

// Wait blocks until every lane has exited (Stop, or the coordinator
// drained).
func (w *Worker) Wait() { w.pool.Wait() }

// Done is closed when every lane has exited.
func (w *Worker) Done() <-chan struct{} { return w.pool.Done() }

// Stats snapshots node activity.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Claims:     w.claims.Load(),
		Verdicts:   w.verdicts.Load(),
		Nacks:      w.nacks.Load(),
		Panics:     w.panics.Load(),
		LeaseLost:  w.leaseLost.Load(),
		ModelPulls: w.pulls.Load(),
		ModelSwaps: w.swaps.Load(),
	}
}

// Checker returns the node's serving checker (nil before the first
// claim cold-starts it).
func (w *Worker) Checker() *core.Checker {
	w.modelMu.Lock()
	defer w.modelMu.Unlock()
	return w.ck
}

// ModelDigest returns the generation digest the node currently serves
// ("" before cold-start).
func (w *Worker) ModelDigest() string {
	if ck := w.Checker(); ck != nil {
		return ck.Generation().Digest
	}
	return ""
}

// job is one claim on a lane: the frame, the checker that serves its
// model, and, once vetted, the report Ack hands to the lane. Each lane owns
// one, which every claim frame decodes into.
type job struct {
	claim
	ck  *core.Checker
	rep ackRequest
	err error
}

// vet is the executor's Do: one claimed submission through the local vet
// pipeline.
func (w *Worker) vet(ctx context.Context, j *job) error {
	t0 := time.Now()
	v, out, err := j.ck.VetOutcome(ctx, core.Submission{Raw: j.Payload, Seq: j.Seq, Digest: j.Key})
	j.rep = ackRequest{
		Seq:         j.Seq,
		Token:       j.Token,
		Key:         append(j.rep.Key[:0], j.Key...),
		ModelDigest: j.ModelDigest,
		Outcome:     out,
		WallNS:      time.Since(t0).Nanoseconds(),
		Verdict:     v,
	}
	if err != nil {
		j.rep.Error = err.Error()
		j.rep.Deadline = errors.Is(err, core.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded)
	}
	j.err = err
	return err
}

// lane is the Claimer one executor lane loops over: one claim stream to
// the coordinator, opened on first use and again after it breaks. j is the
// lane's one job, which each claim frame decodes into and which holds
// until the lane's next poll; the executor is done with a claim by then.
// ack is the encoded report (appendAck) of the last finished vet, kept
// until an answer has come back to a request that carried it. Only the
// lane's goroutine touches them. Heartbeat runs on the lane's
// timer, but never while Claim, Ack or Nack runs (the executor's rule), so
// it has the stream to itself.
//
// mu guards the stream between the request in hand and cancel, which runs
// when the lane is stopped: polling says a claim request's long-poll is
// out, the one moment a stop must cut short.
type lane struct {
	w *Worker
	j job

	mu      sync.Mutex
	s       *stream
	polling bool
	unhook  func() bool

	ack []byte
}

// Claim sends the pending ack, if any, with each long-poll until one
// brings a claim for a model the node can serve. However the lane ends, a
// report still pending is flushed and the stream closed.
func (ln *lane) Claim(ctx context.Context) (worker.Claim[*job], error) {
	w := ln.w
	if ln.unhook == nil {
		ln.unhook = context.AfterFunc(ctx, ln.cancel)
	}
	for ctx.Err() == nil {
		cl, err := ln.exchange(ctx, w.cfg.PollWait)
		switch {
		case errors.Is(err, workqueue.ErrDrained):
			ln.close()
			return worker.Claim[*job]{}, err
		case err != nil:
			// Transient coordinator trouble (restart, network): back off
			// and re-poll rather than dying.
			select {
			case <-time.After(200 * time.Millisecond):
			case <-ctx.Done():
			}
			continue
		case cl == nil:
			continue // poll budget expired empty-handed
		}
		w.claims.Add(1)
		if ctx.Err() != nil {
			break // the claim overtook the stop: closing the stream returns it
		}
		ck, err := ln.ensureModel(cl.ModelDigest)
		if err != nil {
			ln.Nack(&ln.j, fmt.Sprintf("model %.12s: %v", cl.ModelDigest, err))
			continue
		}
		ln.j.ck = ck
		c := worker.Claim[*job]{Lease: &ln.j, TTL: time.Duration(cl.LeaseTTLMS) * time.Millisecond}
		if cl.DeadlineUnixNano > 0 {
			c.Deadline = time.Unix(0, cl.DeadlineUnixNano)
		}
		return c, nil
	}
	if len(ln.ack) > 0 {
		// One attempt: if it fails, the stream's end returns the claim.
		ln.exchange(context.Background(), 0)
	}
	ln.close()
	return worker.Claim[*job]{}, ctx.Err()
}

// Heartbeat extends j's lease over the lane's stream; a 410 refusal is the
// one answer that reports it lost.
func (ln *lane) Heartbeat(j *job) (bool, error) {
	s, err := ln.open(ln.w.ctx)
	if err != nil {
		return false, err
	}
	typ, body, err := ln.roundTrip(context.Background(), s, appendLeaseRequest(s.frame(upHeartbeat), j.Seq, j.Token, ""), false)
	if err != nil || typ == downEmpty {
		return false, err
	}
	if code, err := readRefusal(typ, body); code != http.StatusGone {
		return false, err
	}
	ln.w.leaseLost.Add(1)
	return true, nil
}

// Ack makes j's report the lane's pending ack: it rides the next claim
// request.
func (ln *lane) Ack(j *job) {
	w := ln.w
	if w.cfg.OnVet != nil {
		w.cfg.OnVet(j.Seq, j.rep.Verdict, j.err)
	}
	w.verdicts.Add(1)
	ln.ack = appendAck(ln.ack[:0], &j.rep)
}

// Nack returns j's claim to the coordinator. Best effort: a nack that
// does not arrive leaves the claim to its stream's end.
func (ln *lane) Nack(j *job, cause string) {
	ln.w.nacks.Add(1)
	if s, err := ln.open(context.Background()); err == nil {
		ln.roundTrip(context.Background(), s, appendLeaseRequest(s.frame(upNack), j.Seq, j.Token, cause), false)
	}
}

// exchange sends the pending ack, if any, with a claim request that
// long-polls for up to wait (<= 0: claim nothing, only deliver the ack);
// a claim is the lane's own (ln.j), (nil, nil) means the poll came back
// empty, workqueue.ErrDrained that the queue is. Any answer acknowledges
// the ack: a refusal of the request that carried it (a body past its
// bound, a score that is not finite) ends the stream, whose end returns
// the claim with the refusal as its cause.
func (ln *lane) exchange(ctx context.Context, wait time.Duration) (*claim, error) {
	s, err := ln.open(ctx)
	if err != nil {
		return nil, err
	}
	typ, body, err := ln.roundTrip(ctx, s, appendClaimRequest(s.frame(upClaim), wait.Milliseconds(), ln.ack), wait > 0)
	if err != nil {
		return nil, err
	}
	ln.ack = ln.ack[:0]
	switch typ {
	case downClaim:
		// The claim is the lane's job and its payload aliases the stream's
		// read buffer: both are good until the lane's next poll, after the
		// vet and its Ack.
		if err := decodeClaim(body, &ln.j.claim); err != nil {
			return nil, err
		}
		return &ln.j.claim, nil
	case downEmpty:
		return nil, nil
	case downDrained:
		return nil, workqueue.ErrDrained
	}
	_, err = readRefusal(typ, body)
	return nil, err
}

// roundTrip writes the up-frame f and reads its answer. A stop (ctx)
// closes the stream under a poll that is out, or as it is sent; a poll's
// answer, a claim frame, stays in the stream's buffer until the next poll.
// Any other answer is due at once (none within answerGrace loses the
// stream) and gets a buffer of its own, so a heartbeat or a model pull
// leaves the claim in hand intact. A stream that fails is closed; the next
// request opens another.
func (ln *lane) roundTrip(ctx context.Context, s *stream, f []byte, poll bool) (byte, []byte, error) {
	ln.mu.Lock()
	err := s.send(f)
	ln.polling = err == nil && poll
	if ln.polling && ctx.Err() != nil {
		s.rw.Close() // stopped as the poll went out
	}
	ln.mu.Unlock()
	var typ byte
	var body []byte
	switch {
	case err != nil:
	case poll:
		typ, body, err = s.read(down)
	default:
		t := time.AfterFunc(answerGrace, func() { s.rw.Close() })
		var own []byte
		typ, body, err = s.readInto(down, &own)
		t.Stop()
	}
	ln.mu.Lock()
	ln.polling = false
	if err != nil && ln.s == s {
		s.rw.Close()
		ln.s = nil
	}
	ln.mu.Unlock()
	return typ, body, err
}

// answerGrace is how long any request but a poll waits for its answer
// before the lane gives up on the stream.
const answerGrace = 10 * time.Second

// cancel is the lane's stop hook (context.AfterFunc on the executor's
// context). It cuts short the poll that is out, if one is, by closing the
// stream: the coordinator returns a claim the poll took.
func (ln *lane) cancel() {
	ln.mu.Lock()
	if ln.polling {
		ln.s.rw.Close()
	}
	ln.mu.Unlock()
}

// open returns the lane's stream, opening one when there is none.
func (ln *lane) open(ctx context.Context) (*stream, error) {
	if ln.s != nil {
		return ln.s, nil
	}
	s, err := ln.w.dial(ctx)
	if err != nil {
		return nil, err
	}
	ln.mu.Lock()
	ln.s = s
	ln.mu.Unlock()
	return s, nil
}

// close ends the lane's stream and its stop hook.
func (ln *lane) close() {
	ln.unhook()
	ln.mu.Lock()
	if ln.s != nil {
		ln.s.rw.Close()
		ln.s = nil
	}
	ln.mu.Unlock()
}

// dial opens one claim stream: POST /v1/cluster/stream, naming the node,
// upgraded to streamProtocol.
func (w *Worker) dial(ctx context.Context) (*stream, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+PathStream, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	req.Header = http.Header{
		"Connection": {"Upgrade"},
		"Upgrade":    {streamProtocol},
		nodeHeader:   {w.cfg.Node},
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: opening the claim stream: %w", err)
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || !ok {
		defer resp.Body.Close()
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("cluster: claim stream: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return &stream{rw: rwc, r: rwc}, nil
}

// ensureModel returns a checker serving exactly digest, pulling the
// artifact on ln's stream and adopting it when the node is stale.
// Serialized: during a generation swap every lane converges before any of
// them vets — no node ever serves a stale generation.
func (ln *lane) ensureModel(digest string) (*core.Checker, error) {
	w := ln.w
	w.modelMu.Lock()
	defer w.modelMu.Unlock()
	if w.ck != nil && w.ck.Generation().Digest == digest {
		return w.ck, nil
	}
	data, err := ln.fetchModel(digest)
	if err != nil {
		return nil, err
	}
	// Hash before decode: the digest is the content address of the bytes,
	// so anything that is not the advertised artifact is refused here and
	// never reaches the decoder. (Decoding is canonical — what decodes
	// re-encodes to the same bytes — so the decoded artifact's own digest
	// is this one.)
	if got := core.ArtifactDigest(data); got != digest {
		return nil, fmt.Errorf("cluster: model integrity: got %.12s want %.12s", got, digest)
	}
	a, err := core.Decode(data)
	if err != nil {
		return nil, err
	}
	if w.ck == nil {
		ck, err := a.Instantiate(core.NodeConfig{VerdictCache: w.cfg.VerdictCache})
		if err != nil {
			return nil, err
		}
		w.ck = ck
	} else {
		if _, err := w.ck.Adopt(a); err != nil {
			return nil, err
		}
		w.swaps.Add(1)
	}
	return w.ck, nil
}

// maxModelBytes bounds a fetched artifact. A paper-scale generation (426
// keys, 120 trees, a 50 K-entry SRC table) encodes to a few MiB; 64 MiB
// is an order of magnitude of headroom, not an expected size.
const maxModelBytes = 64 << 20

// fetchModel pulls an artifact's bytes by digest on the lane's stream, at
// most maxModelBytes.
func (ln *lane) fetchModel(digest string) ([]byte, error) {
	s, err := ln.open(ln.w.ctx)
	if err != nil {
		return nil, err
	}
	typ, body, err := ln.roundTrip(context.Background(), s, appendString16(s.frame(upModel), digest), false)
	if err == nil && typ != downModel {
		_, err = readRefusal(typ, body)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: fetching model: %w", err)
	}
	ln.w.pulls.Add(1)
	if len(body) > maxModelBytes {
		return nil, fmt.Errorf("cluster: fetching model: %d bytes, want at most %d", len(body), maxModelBytes)
	}
	return body, nil
}
