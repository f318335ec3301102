// Tests live in an external package so they can stand up the real
// gateway (gateway imports cluster's coordinator through its Config;
// cluster must never import gateway).
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unicode/utf8"

	"apichecker/internal/apk"
	"apichecker/internal/cluster"
	"apichecker/internal/core"
	"apichecker/internal/dataset"
	"apichecker/internal/framework"
	"apichecker/internal/gateway"
	"apichecker/internal/modelstore"
	"apichecker/internal/vcache"
	"apichecker/internal/vetsvc"
)

var testU = framework.MustGenerate(framework.TestConfig(3000))

// trainedArtifact trains one checker and snapshots it; every stack in a
// test (serial baseline, coordinator, worker nodes) instantiates from
// this single artifact so model content — and therefore verdicts — are
// identical by construction.
func trainedArtifact(t *testing.T) (*modelstore.Artifact, *dataset.Corpus) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumApps = 400
	corpus, err := dataset.Generate(testU, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, _, err := core.TrainFromCorpus(corpus, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := modelstore.Snapshot(ck)
	if err != nil {
		t.Fatal(err)
	}
	return a, corpus
}

// configOf is the artifact's model config under the default node config.
func configOf(a *modelstore.Artifact) core.Config { return core.Config{ModelConfig: a.Model} }

// instantiate builds a fresh checker from the artifact under cfg
// (generation 1, exactly like a worker node's cold start).
func instantiate(t *testing.T, a *modelstore.Artifact, cfg core.Config) *core.Checker {
	t.Helper()
	parts, err := a.Parts()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := core.NewFromParts(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// serialVerdicts vets subs one after another on a fresh checker under cfg:
// the oracle every cluster run is held to.
func serialVerdicts(t *testing.T, base *modelstore.Artifact, cfg core.Config, subs []core.Submission) []*core.Verdict {
	t.Helper()
	ck := instantiate(t, base, cfg)
	out := make([]*core.Verdict, len(subs))
	for i, sub := range subs {
		v, err := ck.Vet(context.Background(), sub)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// rawSubs builds n raw-APK submissions (with duplicates when n exceeds
// distinct) — the only payload shape that can travel to remote nodes.
func rawSubs(t *testing.T, corpus *dataset.Corpus, distinct, n int) []core.Submission {
	t.Helper()
	raws := make([][]byte, distinct)
	for i := range raws {
		var err error
		raws[i], err = apk.Build(corpus.Program(i), testU)
		if err != nil {
			t.Fatal(err)
		}
	}
	subs := make([]core.Submission, n)
	for i := range subs {
		subs[i] = core.Submission{Raw: raws[i%distinct]}
	}
	return subs
}

// clusterStack is one running coordinator + N worker nodes over an
// httptest server.
type clusterStack struct {
	svc     *vetsvc.Service
	coord   *cluster.Coordinator
	ts      *httptest.Server
	workers []*cluster.Worker
}

func startStack(t *testing.T, svc *vetsvc.Service, ccfg cluster.CoordinatorConfig, nodes int, wcfg cluster.WorkerConfig) *clusterStack {
	t.Helper()
	if ccfg.PollSlice == 0 {
		ccfg.PollSlice = 10 * time.Millisecond
	}
	if ccfg.StealAge == 0 {
		ccfg.StealAge = 150 * time.Millisecond
	}
	coord := cluster.NewCoordinator(svc, ccfg)
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	st := &clusterStack{svc: svc, coord: coord, ts: ts}
	for i := 0; i < nodes; i++ {
		cfg := wcfg
		cfg.Coordinator = ts.URL
		cfg.Node = fmt.Sprintf("node-%d", i)
		if cfg.Lanes == 0 {
			cfg.Lanes = 2
		}
		if cfg.PollWait == 0 {
			cfg.PollWait = 250 * time.Millisecond
		}
		w, err := cluster.StartWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.workers = append(st.workers, w)
	}
	t.Cleanup(st.stop)
	return st
}

// stop tears the stack down: workers first (their in-flight polls abort
// with the worker context), then the service, then the listener. The
// drain is bounded: a test that failed with submissions still queued has
// no fleet left to vet them, and must not sit out the test timeout.
func (st *clusterStack) stop() {
	for _, w := range st.workers {
		w.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	st.svc.Drain(ctx)
	cancel()
	st.svc.Close()
	st.ts.Close()
}

// eventually polls cond until it holds. A ticket completes when its
// record settles, a moment before the coordinator's OnVerdict hears of
// that report — tests that count reports wait for them here.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestClusterMatchesSerialVet is the acceptance contract: N remote
// worker nodes claiming over the wire produce verdicts bit-identical to
// one serial Vet loop, across the cache × triage deployment matrix.
func TestClusterMatchesSerialVet(t *testing.T) {
	base, corpus := trainedArtifact(t)
	const distinct, total, nodes = 18, 36, 3

	for _, tc := range []struct {
		name   string
		cache  bool
		triage bool
	}{
		{"cache-on/triage-off", true, false},
		{"cache-off/triage-off", false, false},
		{"cache-on/triage-on", true, true},
		{"cache-off/triage-on", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One deployment config for every checker in this case; the
			// band travels inside the artifact the coordinator advertises,
			// the cache knob through each worker's own VerdictCache.
			var wcfg cluster.WorkerConfig
			cfg := configOf(base)
			if !tc.cache {
				cfg.VerdictCache, wcfg.VerdictCache = -1, -1
			}
			if tc.triage {
				cfg.TriageLo, cfg.TriageHi = 0.05, 0.95
			} else {
				cfg.TriageLo, cfg.TriageHi = 0, 0
			}

			subs := rawSubs(t, corpus, distinct, total)
			serial := serialVerdicts(t, base, cfg, subs)

			ckCoord := instantiate(t, base, cfg)
			svc, err := vetsvc.Open(ckCoord, vetsvc.Config{
				QueueSize:         total,
				DisableLocalLanes: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			startStack(t, svc, cluster.CoordinatorConfig{}, nodes, wcfg)

			got, err := svc.VetBatch(context.Background(), subs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range serial {
				if *got[i] != *serial[i] {
					t.Fatalf("%s: submission %d: cluster %+v vs serial %+v",
						tc.name, i, *got[i], *serial[i])
				}
				// The ack does not carry the digest; the coordinator's
				// record does.
				if got[i].Digest != apk.Digest(subs[i].Raw) {
					t.Fatalf("%s: submission %d: acked verdict carries digest %q", tc.name, i, got[i].Digest)
				}
			}
		})
	}
}

// TestNodeKeepsItsOwnNodeConfig: a node cold-starts under the model config
// the coordinator's artifact carries and a node config of its own — not
// the coordinator's persist directory or cache bound.
func TestNodeKeepsItsOwnNodeConfig(t *testing.T) {
	base, corpus := trainedArtifact(t)
	cfg := configOf(base)
	cfg.VerdictCache, cfg.VerdictPersistDir = 8000, t.TempDir()
	ckCoord := instantiate(t, base, cfg)
	defer ckCoord.ClosePersist()
	svc, err := vetsvc.Open(ckCoord, vetsvc.Config{QueueSize: 4, DisableLocalLanes: true})
	if err != nil {
		t.Fatal(err)
	}
	const nodeCache = 64
	st := startStack(t, svc, cluster.CoordinatorConfig{}, 1, cluster.WorkerConfig{VerdictCache: nodeCache})
	if _, err := svc.VetBatch(context.Background(), rawSubs(t, corpus, 4, 4)); err != nil {
		t.Fatal(err)
	}
	node := st.workers[0].Checker()
	if node.PersistStats().Enabled {
		t.Error("the node opened the coordinator's persist directory")
	}
	if got, want := node.CacheStats().Capacity, vcache.New[[]byte](nodeCache).Stats().Capacity; got != want {
		t.Errorf("node verdict cache holds %d entries, want its own %d", got, want)
	}
}

// zombieClaim takes one claim over the wire as a node that will never
// heartbeat, ack, or nack — a worker killed mid-emulation. Its stream
// stays open, idle, until the test ends.
func zombieClaim(t *testing.T, baseURL string) (seq int64) {
	t.Helper()
	s, err := cluster.OpenStream(baseURL, "zombie", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	kind, cl, err := s.Claim(2000, nil)
	if err != nil || kind != "claim" {
		t.Fatalf("zombie claim: answered %s, %v", kind, err)
	}
	if len(cl.Payload) == 0 {
		t.Fatal("zombie claim carried no payload")
	}
	return cl.Seq
}

// TestClusterReclaimsDeadNode kills a node holding a lease mid-emulation
// (a wire claim that never heartbeats again): the lease expires, the
// queue re-issues the submission to a live node, and the verdict lands
// exactly once, bit-identical to serial — the at-least-once lease plus
// first-wins record contract, over the wire.
func TestClusterReclaimsDeadNode(t *testing.T) {
	base, corpus := trainedArtifact(t)
	const total = 8
	cfg := configOf(base)
	subs := rawSubs(t, corpus, total, total)

	serial := serialVerdicts(t, base, cfg, subs)

	ckCoord := instantiate(t, base, cfg)
	svc, err := vetsvc.Open(ckCoord, vetsvc.Config{
		QueueSize:         total,
		LeaseTTL:          300 * time.Millisecond,
		DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu       sync.Mutex
		recorded = map[int64]int{}
	)
	ccfg := cluster.CoordinatorConfig{
		NodeTTL:  time.Second,
		StealAge: 100 * time.Millisecond,
		OnVerdict: func(rv cluster.RemoteVerdict) {
			if rv.Recorded {
				mu.Lock()
				recorded[rv.Seq]++
				mu.Unlock()
			}
		},
	}

	// Bring up the coordinator with zero real workers, let the zombie
	// claim the first submission, then start the live fleet.
	st := startStack(t, svc, ccfg, 0, cluster.WorkerConfig{})
	tickets := make([]*vetsvc.Ticket, len(subs))
	for i, sub := range subs {
		tk, err := svc.Submit(context.Background(), sub)
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	deadSeq := zombieClaim(t, st.ts.URL)

	wcfg := cluster.WorkerConfig{Coordinator: st.ts.URL, Node: "live-0", Lanes: 2, PollWait: 250 * time.Millisecond}
	w, err := cluster.StartWorker(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	st.workers = append(st.workers, w)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, tk := range tickets {
		v, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("submission %d (seq %d): %v", i, tk.Seq(), err)
		}
		if *v != *serial[i] {
			t.Fatalf("submission %d: cluster %+v vs serial %+v", i, *v, *serial[i])
		}
	}

	if qs := svc.QueueStats(); qs.Reclaimed == 0 {
		t.Fatal("dead node's lease was never reclaimed")
	}
	eventually(t, "every recorded verdict to be reported", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(recorded) == total
	})
	mu.Lock()
	defer mu.Unlock()
	if n := recorded[deadSeq]; n != 1 {
		t.Fatalf("dead node's submission recorded %d times, want exactly 1", n)
	}
	for seq, n := range recorded {
		if n != 1 {
			t.Fatalf("seq %d recorded %d times, want exactly 1", seq, n)
		}
	}
}

// TestVerdictUnderLostLeaseIsNotReissued: a node's report that lands after
// its lease was reclaimed still records the verdict (first-wins), and the
// item the reclaim put back is settled work — the coordinator acks it away,
// as a local lane does, instead of handing a node a second vet of a
// submission already answered.
func TestVerdictUnderLostLeaseIsNotReissued(t *testing.T) {
	base, corpus := trainedArtifact(t)
	subs := rawSubs(t, corpus, 1, 1)
	want := serialVerdicts(t, base, configOf(base), subs)[0]
	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{
		QueueSize: 2, LeaseTTL: 100 * time.Millisecond, DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := startStack(t, svc, cluster.CoordinatorConfig{NodeTTL: time.Minute, StealAge: time.Hour}, 0, cluster.WorkerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	tk, err := svc.Submit(ctx, subs[0])
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string]*cluster.Stream{}
	claimAs := func(node string, waitMS int64, ack []byte) (string, *cluster.Claim) {
		t.Helper()
		s := streams[node]
		if s == nil {
			var err error
			if s, err = cluster.OpenStream(st.ts.URL, node, nil); err != nil {
				t.Fatal(err)
			}
			streams[node] = s
			t.Cleanup(func() { s.Close() })
		}
		kind, cl, err := s.Claim(waitMS, ack)
		if err != nil {
			t.Fatal(err)
		}
		return kind, cl
	}

	// The submission's affinity owner takes it. Once the lease has lapsed,
	// the other node's poll reclaims it but may not take it (StealAge is an
	// hour), so it lies pending when the owner's late report lands.
	owner := cluster.AffinityOwner(apk.Digest(subs[0].Raw), []string{"a", "b"})
	other := map[string]string{"a": "b", "b": "a"}[owner]
	kind, cl := claimAs(owner, 2000, nil)
	if kind != "claim" {
		t.Fatalf("owner's claim: answered %s", kind)
	}
	time.Sleep(150 * time.Millisecond)
	if kind, _ := claimAs(other, 50, nil); kind != "empty" {
		t.Fatalf("other node's poll: answered %s, want empty", kind)
	}
	if qs := svc.QueueStats(); qs.Reclaimed != 1 || qs.Depth != 1 {
		t.Fatalf("after the lapse: %d reclaimed, %d pending; want 1, 1", qs.Reclaimed, qs.Depth)
	}
	if kind, _ := claimAs(owner, 0, cluster.AppendAck(cl.Seq, cl.Token, cl.Key, want)); kind != "empty" {
		t.Fatalf("late report: answered %s, want empty", kind)
	}
	if v, err := tk.Wait(ctx); err != nil || *v != *want {
		t.Fatalf("ticket = %+v, %v; want the reported verdict %+v", v, err, *want)
	}

	if kind, _ := claimAs(owner, 200, nil); kind != "empty" {
		t.Fatalf("claim after the verdict was recorded: answered %s, want empty (settled work re-issued)", kind)
	}
	if qs := svc.QueueStats(); qs.Depth != 0 || qs.Leased != 0 {
		t.Fatalf("at the end: %d pending, %d leased; want 0, 0", qs.Depth, qs.Leased)
	}
}

// TestClusterModelPropagation promotes a new model generation mid-run
// and verifies every subsequent verdict, from every node, was vetted
// under — and reports — the new generation's digest.
func TestClusterModelPropagation(t *testing.T) {
	base, corpus := trainedArtifact(t)
	cfg := configOf(base)
	ckCoord := instantiate(t, base, cfg)
	oldDigest := ckCoord.Generation().Digest

	svc, err := vetsvc.Open(ckCoord, vetsvc.Config{QueueSize: 32, DisableLocalLanes: true})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		reports []cluster.RemoteVerdict
	)
	ccfg := cluster.CoordinatorConfig{OnVerdict: func(rv cluster.RemoteVerdict) {
		mu.Lock()
		reports = append(reports, rv)
		mu.Unlock()
	}}
	st := startStack(t, svc, ccfg, 3, cluster.WorkerConfig{})

	subs := rawSubs(t, corpus, 20, 20)
	if _, err := svc.VetBatch(context.Background(), subs[:10]); err != nil {
		t.Fatal(err)
	}
	// None of the first wave may be counted into the second.
	eventually(t, "the first wave's 10 reports", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(reports) >= 10
	})
	mu.Lock()
	firstWave := len(reports)
	for _, rv := range reports {
		if rv.ModelDigest != oldDigest {
			t.Fatalf("pre-promotion verdict from %s under digest %.12s, want %.12s",
				rv.Node, rv.ModelDigest, oldDigest)
		}
	}
	mu.Unlock()

	// Promote: a band change is a model swap in this system (it reshapes
	// verdicts), advancing the generation and re-encoding the artifact
	// under a new content digest.
	if _, err := ckCoord.SetTriageBand(0.05, 0.95); err != nil {
		t.Fatal(err)
	}
	newDigest := ckCoord.Generation().Digest
	if newDigest == oldDigest {
		t.Fatal("promotion did not change the artifact digest")
	}

	if _, err := svc.VetBatch(context.Background(), subs[10:]); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reports) <= firstWave {
		t.Fatal("no post-promotion verdicts landed")
	}
	for _, rv := range reports[firstWave:] {
		if rv.ModelDigest != newDigest {
			t.Fatalf("post-promotion verdict from %s under digest %.12s, want %.12s",
				rv.Node, rv.ModelDigest, newDigest)
		}
	}
	swaps := uint64(0)
	for _, w := range st.workers {
		swaps += w.Stats().ModelSwaps
		if d := w.ModelDigest(); d != "" && d != newDigest {
			t.Fatalf("node still serving digest %.12s after promotion", d)
		}
	}
	if swaps == 0 {
		t.Fatal("no node hot-swapped to the promoted generation")
	}
}

// TestHealthzClusterFields verifies the extended /healthz surface: queue
// depth, in-flight leases, and the live worker-node count.
func TestHealthzClusterFields(t *testing.T) {
	base, corpus := trainedArtifact(t)
	ckCoord := instantiate(t, base, configOf(base))
	svc, err := vetsvc.Open(ckCoord, vetsvc.Config{QueueSize: 8, DisableLocalLanes: true})
	if err != nil {
		t.Fatal(err)
	}
	// The queued submissions are never vetted (no worker fleet here), so
	// a full Close would wait forever for the drain; bound it instead.
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		svc.Drain(ctx)
	}()
	coord := cluster.NewCoordinator(svc, cluster.CoordinatorConfig{PollSlice: 10 * time.Millisecond})
	gw := gateway.New(svc, gateway.Config{Cluster: coord})
	ts := httptest.NewServer(gw)
	defer ts.Close()

	subs := rawSubs(t, corpus, 3, 3)
	for _, sub := range subs {
		if _, err := svc.Submit(context.Background(), sub); err != nil {
			t.Fatal(err)
		}
	}

	readHealth := func() map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body
	}

	h := readHealth()
	if got := h["queue_depth"]; got != float64(3) {
		t.Fatalf("queue_depth = %v, want 3", got)
	}
	if got := h["leases"]; got != float64(0) {
		t.Fatalf("leases = %v, want 0", got)
	}
	if got := h["nodes"]; got != float64(0) {
		t.Fatalf("nodes = %v, want 0", got)
	}

	// One wire claim: the claiming node is live and holds one lease.
	zombieClaim(t, ts.URL)
	h = readHealth()
	if got := h["queue_depth"]; got != float64(2) {
		t.Fatalf("after claim: queue_depth = %v, want 2", got)
	}
	if got := h["leases"]; got != float64(1) {
		t.Fatalf("after claim: leases = %v, want 1", got)
	}
	if got := h["nodes"]; got != float64(1) {
		t.Fatalf("after claim: nodes = %v, want 1", got)
	}
}

// TestGatewayReportsNodeOutcome: a submission POSTed to a gateway whose
// verdicts come from a worker node reports how the node served it, from
// the outcome the node's report settled the record with. The node's spans
// never reach the coordinator, so no span there can say.
func TestGatewayReportsNodeOutcome(t *testing.T) {
	base, corpus := trainedArtifact(t)
	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{QueueSize: 4, DisableLocalLanes: true})
	if err != nil {
		t.Fatal(err)
	}
	coord := cluster.NewCoordinator(svc, cluster.CoordinatorConfig{PollSlice: 10 * time.Millisecond})
	ts := httptest.NewServer(gateway.New(svc, gateway.Config{Cluster: coord}))
	w, err := cluster.StartWorker(cluster.WorkerConfig{Coordinator: ts.URL, Node: "node-0", Lanes: 1, PollWait: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer (&clusterStack{svc: svc, coord: coord, ts: ts, workers: []*cluster.Worker{w}}).stop()

	raw := rawSubs(t, corpus, 1, 1)[0].Raw
	resp, err := http.Post(ts.URL+"/v1/submissions?wait=30s", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st gateway.SubmissionStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.Status != "done" || st.Verdict == nil || st.Outcome != "miss" {
		t.Fatalf("status %d, %+v; want 200, done, outcome miss", resp.StatusCode, st)
	}
}

// brokenConn is a connection whose client went away once the stream was
// open: the 101 is written, every write after it fails.
type brokenConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *brokenConn) Write(b []byte) (int, error) {
	if c.writes.Add(1) > 1 {
		return 0, errors.New("connection reset by peer")
	}
	return c.Conn.Write(b)
}

// brokenListener accepts brokenConns.
type brokenListener struct{ net.Listener }

func (l brokenListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &brokenConn{Conn: c}, nil
}

// TestClaimWriteFailureNacksAtOnce: a claim whose frame cannot be written
// goes back to pending immediately instead of sitting leased until the
// TTL (a minute here; the test would time out waiting for it).
func TestClaimWriteFailureNacksAtOnce(t *testing.T) {
	base, corpus := trainedArtifact(t)
	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{
		QueueSize: 4, LeaseTTL: time.Minute, DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := startStack(t, svc, cluster.CoordinatorConfig{}, 0, cluster.WorkerConfig{})
	tk, err := svc.Submit(context.Background(), rawSubs(t, corpus, 1, 1)[0])
	if err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	st.coord.Mount(mux)
	broken := httptest.NewUnstartedServer(mux)
	broken.Listener = brokenListener{broken.Listener}
	broken.Start()
	defer broken.Close()
	s, err := cluster.OpenStream(broken.URL, "gone", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if kind, _, err := s.Claim(2000, nil); err == nil {
		t.Fatalf("a stream that cannot be written answered %s", kind)
	}

	if qs := svc.QueueStats(); qs.Leased != 0 || qs.Depth != 1 || qs.Nacked != 1 {
		t.Fatalf("after the failed write: %d leased, %d pending, %d nacked; want 0, 1, 1", qs.Leased, qs.Depth, qs.Nacked)
	}
	if got := svc.Obs().Counter("cluster.nacks").Load(); got != 1 {
		t.Fatalf("cluster.nacks = %d, want 1", got)
	}

	// The item is claimable again at once, and finishes.
	w, err := cluster.StartWorker(cluster.WorkerConfig{Coordinator: st.ts.URL, Node: "live", Lanes: 1, PollWait: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	st.workers = append(st.workers, w)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := tk.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestAcksSurviveDroppedResponses loses the answers to the first claims
// that carried an ack: dropped with the stream, or cut off mid-frame. The
// coordinator settled each on arrival; the lane, never having heard so,
// sends it again with its next request, on a new stream. Every
// verdict is recorded exactly once, the repeats change nothing, and the
// claims whose frames were lost with the answers come back by lease TTL.
func TestAcksSurviveDroppedResponses(t *testing.T) {
	base, corpus := trainedArtifact(t)
	const total, drops = 12, 4
	subs := rawSubs(t, corpus, total, total)
	serial := serialVerdicts(t, base, configOf(base), subs)

	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{
		QueueSize: total, LeaseTTL: 300 * time.Millisecond, DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		recorded = map[int64]int{}
		reports  = map[int64]int{}
		dropped  int
	)
	ccfg := cluster.CoordinatorConfig{OnVerdict: func(rv cluster.RemoteVerdict) {
		mu.Lock()
		defer mu.Unlock()
		reports[rv.Seq]++
		if rv.Recorded {
			recorded[rv.Seq]++
		}
	}}
	faults := &streamFaults{onUp: func(typ byte, body []byte) fault {
		mu.Lock()
		defer mu.Unlock()
		if typ == cluster.UpClaim && cluster.ClaimCarriesAck(body) && dropped < drops {
			dropped++
			if dropped%2 == 1 {
				return lose
			}
			return cut
		}
		return intact
	}}
	st := startStack(t, svc, ccfg, 1, cluster.WorkerConfig{Lanes: 2, Client: faults.client()})

	got, err := svc.VetBatch(context.Background(), subs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if *got[i] != *serial[i] {
			t.Fatalf("submission %d: cluster %+v vs serial %+v", i, *got[i], *serial[i])
		}
	}
	st.workers[0].Stop()
	eventually(t, "every recorded verdict to be reported", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(recorded) == total
	})

	mu.Lock()
	defer mu.Unlock()
	if dropped != drops {
		t.Fatalf("dropped %d responses, want %d", dropped, drops)
	}
	repeats := 0
	for seq, n := range reports {
		if recorded[seq] != 1 {
			t.Fatalf("seq %d recorded %d times in %d reports, want exactly once", seq, recorded[seq], n)
		}
		repeats += n - 1
	}
	if len(recorded) != total {
		t.Fatalf("%d seqs recorded, want %d", len(recorded), total)
	}
	if repeats < drops {
		t.Fatalf("%d repeated reports for %d dropped answers: an ack was given up, not sent again", repeats, drops)
	}
	// A claim is vetted once here (a frame lost with its answer was never
	// vetted), so every settle is a first report: the repeats must not count.
	if acks := svc.Obs().Counter("cluster.acks").Load(); acks != total {
		t.Fatalf("cluster.acks = %d after %d repeats, want %d", acks, repeats, total)
	}
	if ws := st.workers[0].Stats(); ws.Verdicts != total {
		t.Fatalf("worker vetted %d, want %d", ws.Verdicts, total)
	}
	if qs := svc.QueueStats(); qs.Reclaimed == 0 {
		t.Fatal("no lease was reclaimed: the dropped answers carried no claim frame")
	}
}

// TestStopSettlesTheLaneClaim stops a node at the two points a lane can
// be caught holding something: with a claim it has not vetted (nacked, so
// it is re-issued at once) and with a verdict it has not reported (still
// reported, with a request that claims nothing). The lease TTL is a
// minute: anything left to it fails the test by timing out.
func TestStopSettlesTheLaneClaim(t *testing.T) {
	base, corpus := trainedArtifact(t)
	subs := rawSubs(t, corpus, 3, 3)
	serial := serialVerdicts(t, base, configOf(base), subs)
	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{
		QueueSize: 4, LeaseTTL: time.Minute, DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := startStack(t, svc, cluster.CoordinatorConfig{}, 0, cluster.WorkerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	submit := func(i int) *vetsvc.Ticket {
		t.Helper()
		tk, err := svc.Submit(ctx, subs[i])
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	wait := func(i int, tk *vetsvc.Ticket) {
		t.Helper()
		v, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		if *v != *serial[i] {
			t.Fatalf("submission %d: cluster %+v vs serial %+v", i, *v, *serial[i])
		}
	}

	// Node a vets submission 0 (cold-starting its model), then is stopped
	// the moment the frame of submission 1 arrives: the vet starts under a
	// cancelled context and the claim is nacked.
	var (
		a       atomic.Pointer[cluster.Worker]
		stopped = make(chan struct{})
		frames  atomic.Int32
		flushes atomic.Int32
	)
	stopA := func() {
		go func() { a.Load().Stop(); close(stopped) }()
		time.Sleep(50 * time.Millisecond) // Stop cancels first, then waits for the lane
	}
	faultsA := &streamFaults{onDown: func(typ byte, body []byte) {
		if typ == cluster.DownClaim && frames.Add(1) == 2 {
			stopA()
		}
	}}
	w, err := cluster.StartWorker(cluster.WorkerConfig{
		Coordinator: st.ts.URL, Node: "a", Lanes: 1, PollWait: 250 * time.Millisecond,
		Client: faultsA.client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Store(w)
	wait(0, submit(0))
	tk1 := submit(1)
	<-stopped
	if ws := w.Stats(); ws.Claims != 2 || ws.Verdicts != 1 || ws.Nacks != 1 {
		t.Fatalf("node a: %+v; want 2 claims, 1 verdict, 1 nack", ws)
	}
	if qs := svc.QueueStats(); qs.Leased != 0 || qs.Depth != 1 {
		t.Fatalf("after stopping node a: %d leased, %d pending; want 0, 1", qs.Leased, qs.Depth)
	}

	// Node b takes submission 1 over, vets submission 2, and is stopped
	// inside OnVet: the verdict exists only on the node, and Stop delivers
	// it before it returns.
	var (
		b    atomic.Pointer[cluster.Worker]
		seq2 atomic.Int64
	)
	seq2.Store(-1)
	faultsB := &streamFaults{onUp: func(typ byte, body []byte) fault {
		if typ == cluster.UpClaim && cluster.ClaimWaitMS(body) == 0 {
			flushes.Add(1)
		}
		return intact
	}}
	w, err = cluster.StartWorker(cluster.WorkerConfig{
		Coordinator: st.ts.URL, Node: "b", Lanes: 1, PollWait: 250 * time.Millisecond,
		Client: faultsB.client(),
		OnVet: func(seq int64, _ *core.Verdict, _ error) {
			if seq == seq2.Load() {
				go b.Load().Stop()
				time.Sleep(50 * time.Millisecond)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Store(w)
	st.workers = append(st.workers, w)
	wait(1, tk1)
	tk2 := submit(2)
	seq2.Store(tk2.Seq())
	<-w.Done()
	wait(2, tk2)
	if n := flushes.Load(); n != 1 {
		t.Fatalf("%d requests that claim nothing, want the one that flushed the last ack", n)
	}
	if qs := svc.QueueStats(); qs.Leased != 0 || qs.Depth != 0 || qs.Reclaimed != 0 {
		t.Fatalf("at the end: %d leased, %d pending, %d reclaimed; want 0, 0, 0", qs.Leased, qs.Depth, qs.Reclaimed)
	}
}

// TestControlBodyBound: the retired claim, ack, heartbeat and model routes
// are gone, and a peer of another build is told so. (An up-frame past its
// bound is TestOverDeclaredControlBodyRefusedUnread's.)
func TestControlBodyBound(t *testing.T) {
	base, _ := trainedArtifact(t)
	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{QueueSize: 4, DisableLocalLanes: true})
	if err != nil {
		t.Fatal(err)
	}
	st := startStack(t, svc, cluster.CoordinatorConfig{}, 0, cluster.WorkerConfig{})
	send := func(path string, body []byte, header http.Header) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, st.ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header = header
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	post := func(path string, body []byte) (int, string) {
		t.Helper()
		return send(path, body, http.Header{"Content-Type": {"application/octet-stream"}})
	}
	if code, msg := send(cluster.PathStream, nil, http.Header{
		"Connection": {"Upgrade"}, "Upgrade": {"apichecker-claim/4"}, cluster.NodeHeader: {"old"},
	}); code != http.StatusBadRequest || !strings.Contains(msg, "same build") {
		t.Errorf("a stream from a build of another wire version: %d %s", code, msg)
	}
	old, err := cluster.OpenStream(st.ts.URL, "old", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	// A version 6 heartbeat: version, seq 1, token 2, an empty cause.
	body := []byte{6, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, err := old.Write(cluster.EnvelopeOf(cluster.UpHeartbeat, uint32(len(body)), body)); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := old.Answer(); kind != "refused" || err == nil || !strings.Contains(err.Error(), "same build") {
		t.Errorf("a heartbeat from a version 6 build: answered %s, %v", kind, err)
	}
	s, err := cluster.OpenStream(st.ts.URL, "n", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if kind, _, err := s.Claim(0, nil); kind != "empty" || err != nil {
		t.Errorf("claim-nothing request: answered %s, %v, want empty", kind, err)
	}
	for _, path := range []string{"/v1/cluster/claim", "/v1/cluster/ack", "/v1/cluster/heartbeat", "/v1/model/x"} {
		if code, _ := post(path, []byte(`{}`)); code != http.StatusNotFound {
			t.Errorf("the retired route %s: %d, want 404", path, code)
		}
	}
	resp, err := http.Get(st.ts.URL + "/v1/model/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("the retired route GET /v1/model/x: %d, want 404", resp.StatusCode)
	}
}

// TestOverDeclaredControlBodyRefusedUnread: an up-frame that declares more
// than its bound is refused from its envelope alone, without the
// coordinator waiting for a byte of the body, and the stream closes.
func TestOverDeclaredControlBodyRefusedUnread(t *testing.T) {
	base, _ := trainedArtifact(t)
	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{QueueSize: 4, DisableLocalLanes: true})
	if err != nil {
		t.Fatal(err)
	}
	st := startStack(t, svc, cluster.CoordinatorConfig{}, 0, cluster.WorkerConfig{})
	s, err := cluster.OpenStream(st.ts.URL, "n", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Write(cluster.EnvelopeOf(cluster.UpHeartbeat, 100<<10, nil)); err != nil {
		t.Fatal(err)
	}
	answered := make(chan error, 1)
	go func() {
		kind, _, err := s.Answer()
		if kind != "refused" {
			err = fmt.Errorf("answered %s, %v", kind, err)
		}
		answered <- err
		// Then the stream ends.
		_, _, err = s.Answer()
		answered <- err
	}()
	for i, want := range []string{fmt.Sprintf("400 Bad Request: cluster: bad claim frame: a 102400-byte 'h' frame, want at most %d", cluster.MaxControl), "EOF"} {
		select {
		case err := <-answered:
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("answer %d: %v, want an error naming %q", i, err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("answer %d: nothing within 5 s: the coordinator waits for the body", i)
		}
	}
}

// TestErrorBodyIsEncodingJSON: the coordinator's error envelope is what
// encoding/json writes for {"error": msg}, so a client-chosen string in the
// message — here an upgrade token holding a tab and bytes that are not
// ASCII — still answers a body that is valid UTF-8 JSON.
func TestErrorBodyIsEncodingJSON(t *testing.T) {
	base, _ := trainedArtifact(t)
	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{QueueSize: 4, DisableLocalLanes: true})
	if err != nil {
		t.Fatal(err)
	}
	st := startStack(t, svc, cluster.CoordinatorConfig{}, 0, cluster.WorkerConfig{})
	req, err := http.NewRequest(http.MethodPost, st.ts.URL+cluster.PathStream, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header = http.Header{
		"Connection": {"Upgrade"}, "Upgrade": {"\xffnot\ta\tprotocol\xe2\x80\xa8"}, cluster.NodeHeader: {"n"},
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var got map[string]string
	if err := json.Unmarshal(body, &got); err != nil || !strings.Contains(got["error"], "same build") {
		t.Fatalf("refused upgrade: %d %q (%v), want an error envelope naming the build", resp.StatusCode, body, err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	enc.Encode(got)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Equal(body, want.Bytes()) || !utf8.Valid(body) {
		t.Errorf("refused upgrade: %d %q, want 400 %q", resp.StatusCode, body, want.Bytes())
	}
}

// TestNonFiniteScoreIsNacked: an ack whose verdict score is NaN or ±Inf is
// refused with 400, and the lane nacks the claim instead, so the
// submission is dead-lettered with the refusal as its cause rather than
// recorded with a score no threshold classifies.
func TestNonFiniteScoreIsNacked(t *testing.T) {
	base, corpus := trainedArtifact(t)
	const attempts = 2
	subs := rawSubs(t, corpus, 3, 3)
	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{
		QueueSize: 4, LeaseTTL: time.Minute, MaxAttempts: attempts, DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	scores := map[int64]float64{}
	var scoresMu sync.Mutex
	st := startStack(t, svc, cluster.CoordinatorConfig{}, 1, cluster.WorkerConfig{
		Lanes: 1,
		OnVet: func(seq int64, v *core.Verdict, _ error) {
			scoresMu.Lock()
			defer scoresMu.Unlock()
			if s, ok := scores[seq]; ok && v != nil {
				v.Score = s
			}
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	tickets := make([]*vetsvc.Ticket, len(subs))
	for i, score := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		scoresMu.Lock()
		if tickets[i], err = svc.Submit(ctx, subs[i]); err != nil {
			scoresMu.Unlock()
			t.Fatal(err)
		}
		scores[tickets[i].Seq()] = score
		scoresMu.Unlock()
	}
	for i, tk := range tickets {
		_, err := tk.Wait(ctx)
		if !errors.Is(err, vetsvc.ErrPoisoned) || !strings.Contains(err.Error(), "400 Bad Request") || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("submission %d: %v, want a dead-letter naming the refused score", i, err)
		}
	}
	if s := st.workers[0].Stats(); s.Nacks != attempts*uint64(len(subs)) {
		t.Errorf("node stats = %+v, want %d nacks", s, attempts*len(subs))
	}
	if got := svc.Obs().Counter("cluster.acks").Load(); got != 0 {
		t.Errorf("cluster.acks = %d, want 0: nothing may be recorded", got)
	}
}

// TestStartWorkerRefusesLongNodeName: the coordinator takes a node name of
// at most 65535 bytes, in a header, which cannot carry a control byte; a
// name it would refuse is refused at start, not on every stream the node
// opens.
func TestStartWorkerRefusesLongNodeName(t *testing.T) {
	_, err := cluster.StartWorker(cluster.WorkerConfig{Coordinator: "http://127.0.0.1:1", Node: strings.Repeat("n", 1<<16)})
	if err == nil || !strings.Contains(err.Error(), "node name") {
		t.Fatalf("a 65536-byte node name: %v, want it refused", err)
	}
	// The name travels in a header, which cannot carry a control byte.
	_, err = cluster.StartWorker(cluster.WorkerConfig{Coordinator: "http://127.0.0.1:1", Node: "node\n1"})
	if err == nil || !strings.Contains(err.Error(), "node name") {
		t.Fatalf("a node name with a newline: %v, want it refused", err)
	}
}
