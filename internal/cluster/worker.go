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

	// Configure, when set, overrides the artifact's deployment config at
	// node cold-start (e.g. disable the local verdict cache). Later
	// generation swaps keep the node-local overrides: SwapModel preserves
	// the running config except the artifact-carried triage band.
	Configure func(core.Config) core.Config

	// OnVet, when set, observes every completed vet before it is acked.
	OnVet func(seq int64, v *core.Verdict, err error)
}

// WorkerStats is a point-in-time activity snapshot for one node.
type WorkerStats struct {
	Claims     uint64 // claims taken
	Verdicts   uint64 // vets completed and reported
	Nacks      uint64 // claims returned (model failure, panic, shutdown)
	Panics     uint64 // vets that panicked (recovered, their claims nacked)
	LeaseLost  uint64 // vets abandoned mid-emulation (heartbeat got 410)
	ModelPulls uint64 // artifacts fetched over the wire
	ModelSwaps uint64 // hot-swaps adopted after cold-start
}

// Worker is one running worker node: Lanes concurrent claim loops over
// the coordinator's wire protocol, each running the full local vet
// pipeline on a checker cold-started (and hot-swapped) from the
// coordinator's advertised model generation. Construct with StartWorker;
// Stop cancels the lanes, Wait blocks until they exit (coordinator
// drained or stopped).
type Worker struct {
	cfg    WorkerConfig
	client *http.Client

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	done   chan struct{}

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
	w := &Worker{
		cfg:    cfg,
		client: client,
		done:   make(chan struct{}),
	}
	w.ctx, w.cancel = context.WithCancel(context.Background())
	w.wg.Add(cfg.Lanes)
	for i := 0; i < cfg.Lanes; i++ {
		go (&lane{w: w}).run()
	}
	go func() {
		w.wg.Wait()
		close(w.done)
	}()
	return w, nil
}

// Stop cancels the lanes and waits for them to exit. In-flight vets are
// cancelled at the next emulation boundary and their claims nacked back
// to the coordinator for prompt re-issue; a vet that had finished is
// still reported (a SIGKILL skips both; the lease TTL reclaims instead).
func (w *Worker) Stop() {
	w.cancel()
	w.wg.Wait()
}

// Wait blocks until every lane has exited (Stop, or the coordinator
// drained).
func (w *Worker) Wait() { <-w.done }

// Done is closed when every lane has exited.
func (w *Worker) Done() <-chan struct{} { return w.done }

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

// lane is one claim loop's state. Only its own goroutine touches it,
// except the heartbeat fields, which the timer's goroutine shares under
// hbMu.
type lane struct {
	w *Worker

	// ack is the encoded report (appendAck) of the last finished vet, kept
	// until a 2xx has answered a request that carried it; ackSeq and
	// ackToken name its claim for the nack that follows a refusal.
	ack      []byte
	ackSeq   int64
	ackToken uint64

	// One timer per lane, re-armed per claim, beats while a vet runs.
	// hbClaim is that vet's claim (nil between vets): a beat that finds
	// another claim there was overtaken and does nothing.
	hbMu     sync.Mutex
	hbTimer  *time.Timer
	hbClaim  *claim
	hbCancel context.CancelCauseFunc
	hbEvery  time.Duration
}

// run is the claim loop: claim (reporting the last vet) → ensure model →
// vet. However it ends, a report still pending is flushed.
func (ln *lane) run() {
	w := ln.w
	defer w.wg.Done()
	defer ln.flush()
	for w.ctx.Err() == nil {
		// The request context allows one extra PollWait beyond the server's
		// budget so a healthy long-poll is never cut off by the client side.
		cl, err := ln.claim(w.ctx, 2*w.cfg.PollWait+5*time.Second, w.cfg.PollWait)
		if err != nil {
			if w.ctx.Err() != nil {
				return
			}
			// Transient coordinator trouble (restart, network): back off
			// and re-poll rather than dying.
			select {
			case <-time.After(200 * time.Millisecond):
			case <-w.ctx.Done():
				return
			}
			continue
		}
		if cl == nil {
			continue // poll budget expired empty-handed
		}
		if cl.Drained {
			return
		}
		w.claims.Add(1)
		ck, err := w.ensureModel(cl.ModelDigest)
		if err != nil {
			w.nack(cl.Seq, cl.Token, fmt.Sprintf("model %.12s: %v", cl.ModelDigest, err))
			continue
		}
		ln.execute(ck, cl)
	}
}

// execute runs one claimed submission through the local vet pipeline,
// heartbeating during emulation; lease loss cancels the vet context with
// cause workqueue.ErrLeaseLost, mirroring the in-process worker pool. The
// result becomes the lane's pending ack and rides the next claim. A vet (or
// OnVet) that panics is isolated as the pool isolates it: the claim is
// nacked with the panic text and the lane goes on claiming, so an archive
// that panics on every attempt is dead-lettered by the attempt limit
// instead of killing a node per attempt.
func (ln *lane) execute(ck *core.Checker, cl *claim) {
	w := ln.w
	vctx, vcancel := context.WithCancelCause(w.ctx)
	defer vcancel(nil)
	jctx := context.Context(vctx)
	if cl.DeadlineUnixNano > 0 {
		dctx, dcancel := context.WithDeadline(jctx, time.Unix(0, cl.DeadlineUnixNano))
		defer dcancel()
		jctx = dctx
	}
	hb := w.cfg.HeartbeatEvery
	if hb == 0 {
		hb = time.Duration(cl.LeaseTTLMS) * time.Millisecond / 3
	}
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if hb > 0 {
			ln.stopBeats()
		}
		w.panics.Add(1)
		w.nack(cl.Seq, cl.Token, fmt.Sprintf("vet for seq %d panicked: %v", cl.Seq, p))
	}()
	if hb > 0 {
		ln.startBeats(cl, vcancel, hb)
	}

	sub := core.Submission{Raw: cl.Payload, Seq: cl.Seq, Digest: cl.Key}
	t0 := time.Now()
	v, out, err := ck.VetOutcome(jctx, sub)
	wall := time.Since(t0)
	if hb > 0 {
		ln.stopBeats()
	}

	if err != nil && errors.Is(err, context.Canceled) {
		if errors.Is(context.Cause(vctx), workqueue.ErrLeaseLost) {
			// Reclaimed mid-vet: the re-issued claim (on another node)
			// reports the verdict; this half is abandoned unreported.
			w.leaseLost.Add(1)
			return
		}
		if w.ctx.Err() != nil {
			// Node shutdown: hand the claim back for prompt re-issue.
			w.nack(cl.Seq, cl.Token, "worker stopping")
			return
		}
	}
	if w.cfg.OnVet != nil {
		w.cfg.OnVet(cl.Seq, v, err)
	}
	w.verdicts.Add(1)
	req := ackRequest{
		Seq:         cl.Seq,
		Token:       cl.Token,
		ModelDigest: cl.ModelDigest,
		Outcome:     out.String(),
		WallNS:      wall.Nanoseconds(),
		Verdict:     v,
	}
	if err != nil {
		req.Error, req.ErrorKind = err.Error(), errorKind(err)
	}
	ln.ack, ln.ackSeq, ln.ackToken = appendAck(ln.ack[:0], &req), cl.Seq, cl.Token
}

// startBeats arms the lane's timer to extend cl's lease every period
// until stopBeats.
func (ln *lane) startBeats(cl *claim, cancel context.CancelCauseFunc, every time.Duration) {
	ln.hbMu.Lock()
	defer ln.hbMu.Unlock()
	ln.hbClaim, ln.hbCancel, ln.hbEvery = cl, cancel, every
	if ln.hbTimer == nil {
		ln.hbTimer = time.AfterFunc(every, ln.beat)
	} else {
		ln.hbTimer.Reset(every)
	}
}

// stopBeats disarms the timer; a beat already on the wire finds hbClaim
// changed and does nothing.
func (ln *lane) stopBeats() {
	ln.hbMu.Lock()
	defer ln.hbMu.Unlock()
	ln.hbClaim = nil
	ln.hbTimer.Stop()
}

// beat is the timer's function: one heartbeat, then re-arm. A 410 from
// the coordinator cancels the vet with cause ErrLeaseLost. Transport
// errors do not cancel — a transient partition must not kill a healthy
// emulation; if the lease really expired, the next beat's 410 or the
// ack's first-wins absorption handles it.
func (ln *lane) beat() {
	ln.hbMu.Lock()
	cl := ln.hbClaim
	ln.hbMu.Unlock()
	if cl == nil {
		return
	}
	lost, err := ln.w.heartbeat(cl)
	ln.hbMu.Lock()
	defer ln.hbMu.Unlock()
	switch {
	case ln.hbClaim != cl:
		// The vet finished while the beat was on the wire.
	case err == nil && lost:
		ln.hbCancel(workqueue.ErrLeaseLost)
	default:
		ln.hbTimer.Reset(ln.hbEvery)
	}
}

// claim sends the pending ack, if any, and long-polls the coordinator for
// work for up to wait (<= 0: claim nothing, only deliver the ack);
// (nil, nil) means the poll came back empty (204). A frame or a 204
// acknowledges the ack. A 4xx to a request that carried one means the
// coordinator will never take it (a body past its bound, a score JSON
// cannot carry): the claim is nacked instead, so the item is re-issued at
// once and dead-lettered with that cause if every attempt ends the same
// way.
func (ln *lane) claim(parent context.Context, timeout, wait time.Duration) (*claim, error) {
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
		_, _ = ln.claim(context.Background(), 10*time.Second, 0)
	}
}

// heartbeat reports (lost, transport error).
func (w *Worker) heartbeat(cl *claim) (bool, error) {
	ctx, cancel := context.WithTimeout(w.ctx, 10*time.Second)
	defer cancel()
	resp, err := w.post(ctx, PathHeartbeat, appendLeaseRequest(nil, w.cfg.Node, cl.Seq, cl.Token, ""))
	if err != nil {
		return false, err
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		return false, nil
	case http.StatusGone:
		return true, nil
	default:
		return false, httpStatusError("heartbeat", resp)
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
		cfg := a.Cfg
		if w.cfg.Configure != nil {
			cfg = w.cfg.Configure(cfg)
		}
		parts, err := a.Parts()
		if err != nil {
			return nil, err
		}
		ck, err := core.NewFromParts(parts, cfg)
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
	req.Header.Set("Content-Type", "application/json")
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
