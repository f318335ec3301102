package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"apichecker/internal/apk"
	"apichecker/internal/cluster"
	"apichecker/internal/core"
	"apichecker/internal/gateway"
	"apichecker/internal/parallel"
	"apichecker/internal/vetsvc"
)

// bed is one workload's deployment — the program under test, started the
// way the workload says — plus the load generator's clients. Everything it
// puts on disk lives under dir.
type bed struct {
	spec *workloadSpec
	in   *inputs
	sz   sizes
	dir  string
	yard *yardstick // read between the chunks of a timed phase

	ck    *core.Checker   // the serving checker (the coordinator's on cluster)
	svc   *vetsvc.Service // what in-process clients submit to
	gw    *gateway.Server
	url   string // POST target on the HTTP workloads
	ts    *httptest.Server
	nodes []*cluster.Worker

	digests []string // of P, where the generator plays the gateway's part
	seq     []int32  // one pass, or the whole schedule on the open loop
	ref     []core.Verdict
	clients []*client
	trainS  float64 // wall seconds training b.ck took
}

// serviceConfig is the vetsvc shape every deployment shares: nproc lanes,
// default queue depth.
func serviceConfig() vetsvc.Config {
	return vetsvc.Config{Workers: nproc()}
}

// newBed trains the workload's checker, starts its deployment and warms it
// up. With buildInputs this is everything setup_s times.
func newBed(spec *workloadSpec, in *inputs, sz sizes, root string) (b *bed, err error) {
	dir, err := os.MkdirTemp(root, spec.Name+"-")
	if err != nil {
		return nil, err
	}
	b = &bed{spec: spec, in: in, sz: sz, dir: dir}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	persist := ""
	if spec.Persist {
		persist = filepath.Join(dir, "persist")
	}
	if b.ck, b.trainS, err = in.train(spec.Band, persist); err != nil {
		return nil, err
	}
	if err = b.start(spec.Deploy, nproc()); err != nil {
		return nil, err
	}
	switch spec.Name {
	case "fresh", "triage":
		b.seq = identity(len(in.payloads))
	case "dup_http":
		b.seq = zipfDraws(in.seed, len(in.payloads), sz.dupDraws)
	case "paced_http": // the whole schedule
		b.seq = zipfDraws(in.seed, len(in.payloads), int(pacedRate*sz.seconds))
	case "cluster":
		b.seq = shuffledTwice(in.seed, len(in.payloads), spec.Chunk/2) // a chunk is a block
	}
	return b, b.warmUp()
}

// start brings up one of the five deployments over b.ck, with that many
// load-generator clients.
func (b *bed) start(kind deployKind, clients int) (err error) {
	switch kind {
	case inProcess:
		b.svc = vetsvc.New(b.ck, serviceConfig())
	case journaled:
		cfg := serviceConfig()
		cfg.QueueDir = filepath.Join(b.dir, "queue")
		b.svc, err = vetsvc.Open(b.ck, cfg)
	case overHTTP:
		err = b.startGateway(true, false)
	case clusterHTTP:
		err = b.startGateway(true, true)
	case overCluster:
		err = b.startCluster()
	}
	for i := 0; i < clients; i++ {
		b.clients = append(b.clients, newClient(b, i))
	}
	return err
}

// startGateway opens a service (journal on when asked) and serves the
// gateway over it on a loopback port. MaxRecords is 1 so that a
// resubmitted archive is a new submission answered by the verdict cache
// through the service and its queue; with the default registry of 4096,
// larger than P, every duplicate would be answered from the registry and
// the layers beneath the gateway would never run. clustered turns the
// service's own lanes off, mounts the claim protocol on the gateway and
// starts the worker nodes against it: the deployment tmarket -serve -cluster
// makes, and the ladder's top rung.
func (b *bed) startGateway(journal, clustered bool) error {
	cfg := serviceConfig()
	if journal {
		cfg.QueueDir = filepath.Join(b.dir, "queue")
	}
	if clustered {
		cfg.DisableLocalLanes = true
		cfg.LeaseTTL = time.Minute
	}
	svc, err := vetsvc.Open(b.ck, cfg)
	if err != nil {
		return err
	}
	b.svc = svc
	gcfg := gateway.Config{MaxRecords: 1}
	if clustered {
		gcfg.Cluster = cluster.NewCoordinator(svc, cluster.CoordinatorConfig{})
	}
	b.gw = gateway.New(svc, gcfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go b.gw.Serve(l) //nolint:errcheck // returns ErrServerClosed at Shutdown
	b.url = "http://" + l.Addr().String()
	if clustered {
		return b.startNodes(b.url)
	}
	return nil
}

// startCluster opens a coordinator-mode service, mounts the claim
// protocol on a loopback server and starts the worker nodes against it.
func (b *bed) startCluster() error {
	cfg := serviceConfig()
	cfg.DisableLocalLanes = true
	cfg.LeaseTTL = time.Minute
	svc, err := vetsvc.Open(b.ck, cfg)
	if err != nil {
		return err
	}
	b.svc = svc
	mux := http.NewServeMux()
	cluster.NewCoordinator(svc, cluster.CoordinatorConfig{}).Mount(mux)
	b.ts = httptest.NewServer(mux)
	// The generator stands where the gateway would: it supplies the content
	// digest the coordinator routes by.
	b.digests = make([]string, len(b.in.payloads))
	parallel.Run(len(b.digests), nproc(), func(i int) { b.digests[i] = apk.Digest(b.in.payloads[i]) })
	return b.startNodes(b.ts.URL)
}

// startNodes starts nproc one-lane worker nodes, in this process, claiming
// from the coordinator at url.
func (b *bed) startNodes(url string) error {
	for i := 0; i < nproc(); i++ {
		w, err := cluster.StartWorker(cluster.WorkerConfig{
			Coordinator: url,
			Node:        fmt.Sprintf("node-%d", i),
			Lanes:       1,
		})
		if err != nil {
			return err
		}
		b.nodes = append(b.nodes, w)
	}
	return nil
}

// warmUp brings the deployment to its steady state before anything is
// timed: connections open, pools filled, and on the HTTP workloads every
// archive of P in the verdict cache.
func (b *bed) warmUp() error {
	if b.gw != nil {
		errs := make([]error, len(b.in.payloads))
		parallel.Run(len(errs), nproc(), func(i int) {
			_, errs[i] = b.ck.Vet(context.Background(), core.Submission{Raw: b.in.payloads[i]})
		})
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("warming the cache: %w", err)
			}
		}
	}
	b.runPass(b.seq[:min(len(b.seq), b.sz.dupDraws)/4], 0)
	if st := b.takeStats(); st.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d submissions failed: %v", st.failed, st.n, st.firstErr)
	}
	return b.reset()
}

// reset empties every verdict cache the pass filled, through the public
// promotion path: SwapModel bumps the cache epoch and re-keys the persist
// log. Untimed, between passes. The HTTP workloads keep their warm cache.
func (b *bed) reset() error {
	switch b.spec.Name {
	case "fresh", "triage":
		_, err := b.ck.SwapModel(b.ck.Parts())
		return err
	case "cluster":
		for _, n := range b.nodes {
			if ck := n.Checker(); ck != nil {
				if _, err := ck.SwapModel(ck.Parts()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// servingCheckers are the checkers that vet: the nodes' on cluster, the
// bed's own otherwise.
func (b *bed) servingCheckers() []*core.Checker {
	if b.nodes == nil {
		return []*core.Checker{b.ck}
	}
	var cks []*core.Checker
	for _, n := range b.nodes {
		if ck := n.Checker(); ck != nil {
			cks = append(cks, ck)
		}
	}
	return cks
}

// close stops the deployment and removes what it wrote. Worker nodes stop
// first: a long-polling node would hold the loopback server open.
func (b *bed) close() {
	for _, c := range b.clients {
		c.close()
	}
	for _, n := range b.nodes {
		n.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	switch {
	case b.gw != nil:
		b.gw.Shutdown(ctx) //nolint:errcheck // teardown
	case b.svc != nil:
		b.svc.Drain(ctx)
	}
	if b.ts != nil {
		b.ts.Close()
	}
	if b.ck != nil {
		b.ck.ClosePersist() //nolint:errcheck // teardown
	}
	os.RemoveAll(b.dir)
}

// client is one load-generator goroutine's state: its connection, what it
// measured in the current pass, and its span recorder when tracing.
type client struct {
	b  *bed
	id int
	hc *http.Client // one keep-alive connection; nil in-process
	tr *tracer      // nil with tracing off

	lat        []float64 // ms, submit (or due time) to verdict
	sendLate   []float64 // ms, open loop: sent after due
	scrapes    []scrape
	failed     int
	mismatch   int
	late       int   // answered after the workload's limit, failures included
	scanNS     int64 // summed virtual scan time of the verdicts
	tier1      int
	retries429 int
	firstErr   error
}

type scrape struct {
	ms    float64
	bytes int
}

func newClient(b *bed, id int) *client {
	c := &client{b: b, id: id}
	if b.gw != nil {
		c.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return c
}

func (c *client) close() {
	if c.hc != nil {
		c.hc.CloseIdleConnections()
	}
}

// submit sends payload i and blocks for its verdict, the way this
// workload's callers do. root is the submission's trace span.
func (c *client) submit(i int32, root spanRef) (*core.Verdict, error) {
	if c.hc != nil {
		return c.post(i, root)
	}
	sub := core.Submission{Raw: c.b.in.payloads[i]}
	if c.b.digests != nil {
		sub.Digest = c.b.digests[i]
	}
	s := c.tr.begin("vetsvc.submit_wait", root)
	t, err := c.b.svc.SubmitWait(context.Background(), sub)
	c.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = c.tr.begin("vetsvc.ticket_wait", root)
	v, err := t.Wait(context.Background())
	c.tr.end(s)
	return v, err
}

// post uploads payload i and waits for the verdict in the same request.
// A 429 is retried three times with a short back-off; after that the
// submission counts as refused.
func (c *client) post(i int32, root spanRef) (*core.Verdict, error) {
	for attempt := 0; ; attempt++ {
		s := c.tr.begin("gateway.post", root)
		st, code, err := c.postOnce(c.b.in.payloads[i])
		c.tr.end(s)
		switch {
		case err != nil:
			return nil, err
		case code == http.StatusTooManyRequests && attempt < 3:
			c.retries429++
			time.Sleep(time.Millisecond << attempt)
		case code != http.StatusOK || st.Status != "done" || st.Verdict == nil:
			return nil, fmt.Errorf("gateway answered %d, status %q: %s", code, st.Status, st.Error)
		default:
			return st.Verdict, nil
		}
	}
}

func (c *client) postOnce(raw []byte) (st gateway.SubmissionStatus, code int, err error) {
	resp, err := c.hc.Post(c.b.url+"/v1/submissions?wait=30s", "application/vnd.android.package-archive", bytes.NewReader(raw))
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain so the connection is reused
	return st, resp.StatusCode, err
}

// scrapeMetrics reads GET /metrics once on this client's connection.
func (c *client) scrapeMetrics() (scrape, error) {
	t0 := time.Now()
	resp, err := c.hc.Get(c.b.url + "/metrics")
	if err != nil {
		return scrape{}, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	return scrape{ms: time.Since(t0).Seconds() * 1e3, bytes: int(n)}, err
}
