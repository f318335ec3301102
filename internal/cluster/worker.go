package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"apichecker/internal/core"
	"apichecker/internal/lifecycle"
	"apichecker/internal/modelstore"
	"apichecker/internal/worker"
	"apichecker/internal/workqueue"
)

// WorkerConfig tunes one worker node.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	// Required.
	Coordinator string

	// Node is this node's stable name — its affinity and liveness
	// identity across the fleet. Required, and must be unique per node.
	Node string

	// Lanes is the concurrent claim-loop count; <= 0 selects 4.
	Lanes int

	// PollWait is the long-poll budget sent with each claim request;
	// <= 0 selects 10s.
	PollWait time.Duration

	// HeartbeatEvery tunes the mid-vet lease heartbeat: 0 derives it from
	// the claim's lease TTL (TTL/3), positive sets the period, negative
	// disables heartbeats (lease-expiry drills).
	HeartbeatEvery time.Duration

	// Client is the HTTP client; nil builds one with no overall timeout
	// (claim requests long-poll; the per-request context bounds them).
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
	LeaseLost  uint64 // heartbeats answered 410: the lease was lost, the vet abandoned
	ModelPulls uint64 // artifacts fetched over the wire
	ModelSwaps uint64 // hot-swaps adopted after cold-start
}

// Worker is one running worker node: Lanes HTTP claim lanes, each run by
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
	digest  string

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
	if len(cfg.Node) > maxName {
		return nil, fmt.Errorf("cluster: a %d-byte node name: the wire carries at most %d", len(cfg.Node), maxName)
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
		HeartbeatEvery: cfg.HeartbeatEvery,
		Do:             w.vet,
		OnPanic:        func(*job, any) { w.panics.Add(1) },
	}.Start(w.ctx, cfg.Lanes, func() worker.Claimer[*job] { return &lane{w: w} })
	return w, nil
}

// Stop cancels the lanes and waits for them to exit. In-flight vets are
// cancelled at the next emulation boundary and their claims nacked back
// to the coordinator for prompt re-issue; a vet that had finished is
// still reported (a SIGKILL skips both; the lease TTL reclaims instead).
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
	w.modelMu.Lock()
	defer w.modelMu.Unlock()
	return w.digest
}

// job is one claim on a lane: the frame, the checker that serves its
// model, and, once vetted, the report Ack hands to the lane.
type job struct {
	*claim
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

// lane is the HTTP Claimer one executor lane loops over. ack is the
// encoded report (appendAck) of the last finished vet, kept until a 2xx
// has answered a request that carried it; ackSeq and ackToken name its
// claim for the nack that follows a refusal. Only the lane's goroutine
// touches them; Heartbeat, which runs on the lane's timer, does not.
type lane struct {
	w *Worker

	ack      []byte
	ackSeq   int64
	ackToken uint64
}

// Claim sends the pending ack, if any, with each long-poll until one
// brings a claim for a model the node can serve. However the lane ends, a
// report still pending is flushed.
func (ln *lane) Claim(ctx context.Context) (worker.Claim[*job], error) {
	w := ln.w
	for ctx.Err() == nil {
		// The request context allows one extra PollWait beyond the server's
		// budget so a healthy long-poll is never cut off by the client side.
		cl, err := ln.poll(ctx, 2*w.cfg.PollWait+5*time.Second, w.cfg.PollWait)
		switch {
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
		case cl.Drained:
			return worker.Claim[*job]{}, workqueue.ErrDrained
		}
		w.claims.Add(1)
		ck, err := w.ensureModel(cl.ModelDigest)
		if err != nil {
			w.nack(cl.Seq, cl.Token, fmt.Sprintf("model %.12s: %v", cl.ModelDigest, err))
			continue
		}
		c := worker.Claim[*job]{Lease: &job{claim: cl, ck: ck}, TTL: time.Duration(cl.LeaseTTLMS) * time.Millisecond}
		if cl.DeadlineUnixNano > 0 {
			c.Deadline = time.Unix(0, cl.DeadlineUnixNano)
		}
		return c, nil
	}
	ln.flush()
	return worker.Claim[*job]{}, ctx.Err()
}

// Heartbeat extends j's lease; a 410 is the one answer that reports it
// lost.
func (ln *lane) Heartbeat(j *job) (bool, error) {
	w := ln.w
	ctx, cancel := context.WithTimeout(w.ctx, 10*time.Second)
	defer cancel()
	resp, err := w.post(ctx, PathHeartbeat, appendLeaseRequest(nil, w.cfg.Node, j.Seq, j.Token, ""))
	if err != nil {
		return false, err
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		return false, nil
	case http.StatusGone:
		w.leaseLost.Add(1)
		return true, nil
	default:
		return false, httpStatusError("heartbeat", resp)
	}
}

// Ack makes j's report the lane's pending ack: it rides the next claim
// request.
func (ln *lane) Ack(j *job) {
	w := ln.w
	if w.cfg.OnVet != nil {
		w.cfg.OnVet(j.Seq, j.rep.Verdict, j.err)
	}
	w.verdicts.Add(1)
	ln.ack, ln.ackSeq, ln.ackToken = appendAck(ln.ack[:0], &j.rep), j.Seq, j.Token
}

// Nack returns j's claim to the coordinator.
func (ln *lane) Nack(j *job, cause string) { ln.w.nack(j.Seq, j.Token, cause) }

// poll sends the pending ack, if any, and long-polls the coordinator for
// work for up to wait (<= 0: claim nothing, only deliver the ack);
// (nil, nil) means the poll came back empty (204). A frame or a 204
// acknowledges the ack. A 4xx to a request that carried one means the
// coordinator will never take it (a body past its bound, a score that is
// not finite): the claim is nacked instead, so the item is re-issued at
// once and dead-lettered with that cause if every attempt ends the same
// way.
func (ln *lane) poll(parent context.Context, timeout, wait time.Duration) (*claim, error) {
	w := ln.w
	carried := len(ln.ack) > 0
	body := appendClaimRequest(make([]byte, 0, 64+len(w.cfg.Node)+len(ln.ack)),
		w.cfg.Node, wait.Milliseconds(), ln.ack)
	ctx, cancel := context.WithTimeout(parent, timeout)
	defer cancel()
	resp, err := w.post(ctx, PathClaim, body)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp)
	switch {
	case resp.StatusCode == http.StatusOK:
		ln.ack = ln.ack[:0]
		return readClaim(resp)
	case resp.StatusCode == http.StatusNoContent:
		ln.ack = ln.ack[:0]
		return nil, nil
	case carried && resp.StatusCode >= 400 && resp.StatusCode < 500:
		err := httpStatusError("ack refused", resp)
		ln.ack = ln.ack[:0]
		w.nack(ln.ackSeq, ln.ackToken, err.Error())
		return nil, err
	default:
		return nil, httpStatusError("claim", resp)
	}
}

// readClaim reads one claim frame into a buffer of exactly the declared
// size — the archive in it becomes Submission.Raw as it lies — after
// checking that a size was declared and is one a frame can have.
func readClaim(resp *http.Response) (*claim, error) {
	n := resp.ContentLength
	if n < 0 || n > maxFrameBytes {
		return nil, fmt.Errorf("%w: declared length %d, want 0..%d", errBadFrame, n, int64(maxFrameBytes))
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, b); err != nil {
		return nil, fmt.Errorf("cluster: reading claim frame: %w", err)
	}
	return decodeClaim(b)
}

// flush delivers a pending ack with a request that claims nothing; a
// stopping lane's last act. One attempt: if it fails the lease TTL
// reclaims the item, as for a node that was killed.
func (ln *lane) flush() {
	if len(ln.ack) > 0 {
		_, _ = ln.poll(context.Background(), 10*time.Second, 0)
	}
}

// nack returns a claim for another attempt. Best effort: a nack that does
// not arrive leaves the item to the lease TTL.
func (w *Worker) nack(seq int64, token uint64, cause string) {
	w.nacks.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if resp, err := w.post(ctx, PathNack, appendLeaseRequest(nil, w.cfg.Node, seq, token, cause)); err == nil {
		drainClose(resp)
	}
}

// ensureModel returns a checker serving exactly digest, pulling and
// adopting the artifact when the node is stale. Serialized: during a
// generation swap every lane converges before any of them vets — no node
// ever serves a stale generation.
func (w *Worker) ensureModel(digest string) (*core.Checker, error) {
	w.modelMu.Lock()
	defer w.modelMu.Unlock()
	if w.ck != nil && w.digest == digest {
		return w.ck, nil
	}
	data, err := w.fetchModel(digest)
	if err != nil {
		return nil, err
	}
	// Hash before decode: the digest is the content address of the bytes,
	// so anything that is not the advertised artifact is refused here and
	// never reaches the decoder. (Decoding is canonical — what decodes
	// re-encodes to the same bytes — so the decoded artifact's own digest
	// is this one.)
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != digest {
		return nil, fmt.Errorf("cluster: model integrity: got %.12s want %.12s", got, digest)
	}
	a, err := modelstore.Decode(data)
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
		if _, err := lifecycle.AdoptArtifact(w.ck, a); err != nil {
			return nil, err
		}
		w.swaps.Add(1)
	}
	w.digest = digest
	return w.ck, nil
}

// maxModelBytes bounds a fetched artifact. A paper-scale generation (426
// keys, 120 trees, a 50 K-entry SRC table) encodes to a few MiB; 64 MiB
// is an order of magnitude of headroom, not an expected size.
const maxModelBytes = 64 << 20

// fetchModel pulls an artifact's bytes by digest, at most maxModelBytes.
func (w *Worker) fetchModel(digest string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(w.ctx, time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.cfg.Coordinator+PathModel+digest, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetching model: %w", err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, httpStatusError("model fetch", resp)
	}
	w.pulls.Add(1)
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxModelBytes+1))
	if err != nil {
		return nil, fmt.Errorf("cluster: fetching model: %w", err)
	}
	if len(data) > maxModelBytes {
		return nil, fmt.Errorf("cluster: fetching model: body exceeds %d bytes", maxModelBytes)
	}
	return data, nil
}

// post sends one control body. The transport may still read body after
// post returns (an answer can overtake the request), so callers hand over
// a slice they do not write again.
func (w *Worker) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	req.Header["Content-Type"] = octetStream
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", path, err)
	}
	return resp, nil
}

// httpStatusError turns a non-2xx response into an error carrying the
// body's error envelope (truncated).
func httpStatusError(op string, resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("cluster: %s: %s: %s", op, resp.Status, bytes.TrimSpace(b))
}

// drainClose releases a response so the connection can be reused.
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
