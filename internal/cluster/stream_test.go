package cluster_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"apichecker/internal/apk"
	"apichecker/internal/cluster"
	"apichecker/internal/core"
	"apichecker/internal/vetsvc"
)

// raceDetector is set by race_test.go in a -race build.
var raceDetector bool

// fault is what becomes of the down-frame that answers an up-frame.
type fault int

const (
	intact fault = iota
	lose         // the stream breaks before the lane reads a byte of it
	cut          // the lane reads half of it, then the stream breaks
)

// streamFaults watches a worker's claim streams frame by frame and breaks
// them on cue. Its client dials faultConns.
type streamFaults struct {
	// onUp sees each up-frame as the lane writes it and says what becomes
	// of its answer.
	onUp func(typ byte, body []byte) fault
	// onDown sees each down-frame before the lane reads it.
	onDown func(typ byte, body []byte)
}

func (f *streamFaults) client() *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &faultConn{Conn: c, f: f}, nil
		},
	}}
}

// faultConn is one connection under a streamFaults. It relies on how a
// lane uses a stream: each up-frame goes out in one write, and an answer
// is read only after the frame it answers was written. Only the lane
// reads; a stopped lane's cancel may write while it does.
type faultConn struct {
	net.Conn
	f *streamFaults

	mu       sync.Mutex
	stream   bool  // the stream's upgrade request went out on this connection
	upgraded bool  // its 101 came back: frames follow
	next     fault // what becomes of the next down-frame

	rest   []byte // the reader's: what is left of the frame being read
	broken bool   // the reader's: the frame was cut, the stream ends with it
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	upgraded := c.upgraded
	if !upgraded && bytes.HasPrefix(p, []byte("POST "+cluster.PathStream+" ")) {
		c.stream = true
	}
	c.mu.Unlock()
	if upgraded && len(p) >= 5 && c.f.onUp != nil {
		if next := c.f.onUp(p[0], p[5:]); next != intact {
			c.mu.Lock()
			c.next = next
			c.mu.Unlock()
		}
	}
	return c.Conn.Write(p)
}

func (c *faultConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	upgraded := c.upgraded
	c.mu.Unlock()
	if !upgraded {
		// The transport reads before it writes the request: whether this
		// is the 101 is known only once the bytes are in.
		n, err := c.Conn.Read(p)
		c.mu.Lock()
		c.upgraded = c.stream && bytes.Contains(p[:n], []byte("\r\n\r\n"))
		c.mu.Unlock()
		return n, err
	}
	if len(c.rest) == 0 {
		if c.broken {
			c.Conn.Close()
			return 0, errors.New("the stream broke mid-frame")
		}
		hdr := make([]byte, 5)
		if _, err := io.ReadFull(c.Conn, hdr); err != nil {
			return 0, err
		}
		frame := append(hdr, make([]byte, binary.LittleEndian.Uint32(hdr[1:]))...)
		if _, err := io.ReadFull(c.Conn, frame[5:]); err != nil {
			return 0, err
		}
		if c.f.onDown != nil {
			c.f.onDown(frame[0], frame[5:])
		}
		c.mu.Lock()
		next := c.next
		c.next = intact
		c.mu.Unlock()
		switch next {
		case lose:
			c.Conn.Close()
			return 0, errors.New("the answer was lost")
		case cut:
			frame, c.broken = frame[:len(frame)/2], true
		}
		c.rest = frame
	}
	n := copy(p, c.rest)
	c.rest = c.rest[n:]
	return n, nil
}

// TestEmptyNodeNameIsRefused: a stream that names no node, or a name
// longer than MaxNodeName, is refused with 400 before the coordinator
// books the node as live. A phantom "" node in the live set would take
// part in rendezvous affinity: with one real node, about half of the keyed
// items would wait StealAge before that node could claim them.
func TestEmptyNodeNameIsRefused(t *testing.T) {
	base, _ := trainedArtifact(t)
	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{QueueSize: 4, DisableLocalLanes: true})
	if err != nil {
		t.Fatal(err)
	}
	st := startStack(t, svc, cluster.CoordinatorConfig{}, 0, cluster.WorkerConfig{})
	upgrade := http.Header{"Connection": {"Upgrade"}, "Upgrade": {cluster.StreamProtocol}}
	for _, tc := range []struct {
		name   string
		header http.Header
	}{
		{"a stream with no node header", upgrade},
		{"a stream with an empty name", withNode(upgrade, "")},
		{"a stream with a name one byte too long", withNode(upgrade, strings.Repeat("n", cluster.MaxNodeName+1))},
		{"a stream with a 65536-byte name", withNode(upgrade, strings.Repeat("n", 1<<16))},
	} {
		req, err := http.NewRequest(http.MethodPost, st.ts.URL+cluster.PathStream, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header = tc.header
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", tc.name, resp.StatusCode, msg)
		}
		if n := st.coord.LiveNodes(); n != 0 {
			t.Fatalf("after %s: %d live nodes, want 0", tc.name, n)
		}
	}
}

// withNode is h plus a node header naming node.
func withNode(h http.Header, node string) http.Header {
	h = h.Clone()
	h[cluster.NodeHeader] = []string{node}
	return h
}

// TestStopMidPollStrandsNothing: a claim stream that ends mid-poll leaves
// nothing to the lease TTL (a minute here: anything left to it times the
// test out) and no goroutine behind on the coordinator. A connection
// dropped during a poll ends the poll; a lane stopped during one closes
// its stream, so Stop does not sit out the long-poll budget. After either, a submission lies pending — no stale poll took it —
// and the next live node claims it at once.
func TestStopMidPollStrandsNothing(t *testing.T) {
	base, corpus := trainedArtifact(t)
	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{
		QueueSize: 4, LeaseTTL: time.Minute, DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := startStack(t, svc, cluster.CoordinatorConfig{}, 0, cluster.WorkerConfig{})
	baseline := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		eventually(t, what, func() bool { return runtime.NumGoroutine() <= baseline })
	}
	polling := func(what string) {
		t.Helper()
		eventually(t, what, func() bool { return st.coord.LiveNodes() == 1 })
		time.Sleep(50 * time.Millisecond)
	}

	s, err := cluster.OpenStream(st.ts.URL, "dropped", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(60_000, nil); err != nil {
		t.Fatal(err)
	}
	polling("the dropped stream's poll")
	s.Close()
	settled("the dropped stream's goroutines to exit")

	tr := &http.Transport{}
	w, err := cluster.StartWorker(cluster.WorkerConfig{
		Coordinator: st.ts.URL, Node: "stopped", Lanes: 1, PollWait: time.Minute,
		Client: &http.Client{Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	polling("the lane's poll")
	t0 := time.Now()
	w.Stop()
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("Stop took %v: the poll in flight was not cancelled", d)
	}
	tr.CloseIdleConnections()
	settled("the stopped lane's stream goroutines to exit")

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	tk, err := svc.Submit(ctx, rawSubs(t, corpus, 1, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if qs := svc.QueueStats(); qs.Leased != 0 || qs.Reclaimed != 0 || qs.Depth != 1 {
		t.Fatalf("after both streams ended: %d leased, %d reclaimed, %d pending; want 0, 0, 1", qs.Leased, qs.Reclaimed, qs.Depth)
	}
	live, err := cluster.StartWorker(cluster.WorkerConfig{Coordinator: st.ts.URL, Node: "live", Lanes: 1, PollWait: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	st.workers = append(st.workers, live)
	if _, err := tk.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// liveSet is a coordinator with no worker fleet, whose tests open streams
// by hand, a submission whose affinity owner among nodes a and b is a, and
// that submission's verdict.
func liveSet(t *testing.T, ccfg cluster.CoordinatorConfig) (*clusterStack, core.Submission, *core.Verdict) {
	t.Helper()
	base, corpus := trainedArtifact(t)
	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{
		QueueSize: 4, LeaseTTL: time.Minute, DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := startStack(t, svc, ccfg, 0, cluster.WorkerConfig{})
	for _, sub := range rawSubs(t, corpus, 8, 8) {
		if cluster.AffinityOwner(apk.Digest(sub.Raw), []string{"a", "b"}) == "a" {
			return st, sub, serialVerdicts(t, base, configOf(base), []core.Submission{sub})[0]
		}
	}
	t.Fatal("no submission of eight is node a's")
	return nil, core.Submission{}, nil
}

// report acks claim cl with verdict v on s.
func report(t *testing.T, s *cluster.Stream, cl *cluster.Claim, v *core.Verdict) {
	t.Helper()
	if kind, _, err := s.Claim(0, cluster.AppendAck(cl.Seq, cl.Token, cl.Key, v)); kind != "empty" || err != nil {
		t.Fatalf("report: answered %s, %v", kind, err)
	}
}

// openLive opens a stream as node and waits for one empty answer, so the
// coordinator has booked it.
func openLive(t *testing.T, st *clusterStack, node string) *cluster.Stream {
	t.Helper()
	s, err := cluster.OpenStream(st.ts.URL, node, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if kind, _, err := s.Claim(0, nil); err != nil || kind != "empty" {
		t.Fatalf("node %s's first request: answered %s, %v", node, kind, err)
	}
	return s
}

// TestStreamEndLeavesLiveSet: a node is live while its stream is open. When
// node a's only stream ends, a leaves the live set at once, and a poll node
// b already has waiting takes the item a owned by affinity within a few
// poll slices, without waiting out StealAge (an hour here).
func TestStreamEndLeavesLiveSet(t *testing.T) {
	const slice = 50 * time.Millisecond
	st, sub, want := liveSet(t, cluster.CoordinatorConfig{PollSlice: slice, StealAge: time.Hour})
	a, b := openLive(t, st, "a"), openLive(t, st, "b")
	if n := st.coord.LiveNodes(); n != 2 {
		t.Fatalf("%d live nodes, want 2", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := st.svc.Submit(ctx, sub); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(5000, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * slice)
	if qs := st.svc.QueueStats(); qs.Depth != 1 || qs.Leased != 0 {
		t.Fatalf("while a is live: %d pending, %d leased; want 1, 0 (b took a's item)", qs.Depth, qs.Leased)
	}

	a.Close()
	for deadline := time.Now().Add(time.Second); st.coord.LiveNodes() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("a second after a's only stream ended: %d live nodes, want 1", st.coord.LiveNodes())
		}
	}
	left := time.Now()
	kind, cl, err := b.Answer()
	if err != nil || kind != "claim" {
		t.Fatalf("b's waiting poll: answered %s, %v; want a's item", kind, err)
	}
	if d := time.Since(left); d > 20*slice {
		t.Errorf("b's poll took a's item %v after a left, want within a few %v slices", d, slice)
	}
	if cl.Key != apk.Digest(sub.Raw) {
		t.Fatalf("b claimed key %s, want a's item", cl.Key)
	}
	report(t, b, cl, want)
}

// TestStreamEndReturnsItsClaims: a stream holds the claim it was last sent
// until that claim's ack or nack, and when the stream ends it returns the
// claim at once, not after the lease TTL (a minute here): another node's
// poll takes it within one PollSlice. The node's own other stream, which
// may be ending unnoticed with it, does not take it back. Each return
// costs the submission an attempt, as the TTL's reclaim does, so one whose
// every stream ends under it is dead-lettered after MaxAttempts with the
// stream's end as its cause.
func TestStreamEndReturnsItsClaims(t *testing.T) {
	const slice, attempts = 250 * time.Millisecond, 3
	base, corpus := trainedArtifact(t)
	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{
		QueueSize: 4, LeaseTTL: time.Minute, MaxAttempts: attempts, DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Affinity aside: any live node may take any item.
	st := startStack(t, svc, cluster.CoordinatorConfig{PollSlice: slice, StealAge: time.Nanosecond}, 0, cluster.WorkerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	held, sibling := openLive(t, st, "a"), openLive(t, st, "a")
	tk, err := svc.Submit(ctx, rawSubs(t, corpus, 1, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	kind, cl, err := held.Claim(1000, nil)
	if err != nil || kind != "claim" {
		t.Fatalf("the first claim: answered %s, %v", kind, err)
	}
	if err := sibling.Send(slice.Milliseconds(), nil); err != nil {
		t.Fatal(err)
	}
	for attempt := 2; attempt <= attempts; attempt++ {
		// Another node polls while the stream holding the claim ends.
		next := openLive(t, st, fmt.Sprint("n", attempt))
		if err := next.Send(2000, nil); err != nil {
			t.Fatal(err)
		}
		ended := time.Now()
		held.Close()
		kind, re, err := next.Answer()
		if err != nil || kind != "claim" || re.Seq != cl.Seq {
			t.Fatalf("attempt %d: node n%d's poll answered %s, %v; want the ended stream's claim", attempt, attempt, kind, err)
		}
		if d := time.Since(ended); d > slice {
			t.Errorf("attempt %d: the claim came back %v after its stream ended, want within one %v poll slice", attempt, d, slice)
		}
		held, cl = next, re
	}
	if kind, _, err := sibling.Answer(); err != nil || kind != "empty" {
		t.Fatalf("node a's other stream answered %s, %v; want empty", kind, err)
	}
	held.Close()
	if _, err := tk.Wait(ctx); !errors.Is(err, vetsvc.ErrPoisoned) || !strings.Contains(err.Error(), "node n3: stream ended") {
		t.Fatalf("after %d streams ended holding the claim: %v, want it dead-lettered naming the stream's end", attempts, err)
	}
	if nacks, qs := svc.Obs().Counter("cluster.nacks").Load(), svc.QueueStats(); nacks != attempts || qs.Reclaimed != 0 || qs.Leased != 0 {
		t.Fatalf("cluster.nacks %d, %d reclaimed, %d leased; want %d, 0, 0", nacks, qs.Reclaimed, qs.Leased, attempts)
	}
}

// TestNodeLiveWhileAnyStreamOpen: a node has one stream per lane. It stays
// live while any of them is open, and leaves when the last one ends.
func TestNodeLiveWhileAnyStreamOpen(t *testing.T) {
	st, _, _ := liveSet(t, cluster.CoordinatorConfig{})
	first := openLive(t, st, "a")
	baseline := runtime.NumGoroutine()
	second := openLive(t, st, "a")
	if n := st.coord.LiveNodes(); n != 1 {
		t.Fatalf("two streams of one node: %d live nodes, want 1", n)
	}
	second.Close()
	eventually(t, "the second stream's goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline })
	if n := st.coord.LiveNodes(); n != 1 {
		t.Fatalf("one of its two streams ended: %d live nodes, want 1", n)
	}
	first.Close()
	eventually(t, "the node to leave with its last stream", func() bool { return st.coord.LiveNodes() == 0 })
}

// TestSilentStreamKeepsNodeLive: a stream that stays open but says nothing
// (a wedged node, or one cut off without a FIN) keeps its node live until
// the connection ends. Its keyed items are not stranded meanwhile: after
// StealAge the other node takes them.
func TestSilentStreamKeepsNodeLive(t *testing.T) {
	const stealAge = 300 * time.Millisecond
	st, sub, want := liveSet(t, cluster.CoordinatorConfig{StealAge: stealAge})
	openLive(t, st, "a")
	b := openLive(t, st, "b")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	submitted := time.Now()
	if _, err := st.svc.Submit(ctx, sub); err != nil {
		t.Fatal(err)
	}
	kind, cl, err := b.Claim(5000, nil)
	if err != nil || kind != "claim" {
		t.Fatalf("b's poll: answered %s, %v; want a's item after StealAge", kind, err)
	}
	if d := time.Since(submitted); d < stealAge {
		t.Fatalf("b took a's item after %v, before StealAge %v", d, stealAge)
	}
	if cl.Key != apk.Digest(sub.Raw) {
		t.Fatalf("b claimed key %s, want a's item", cl.Key)
	}
	if n := st.coord.LiveNodes(); n != 2 {
		t.Fatalf("with a's stream open and silent: %d live nodes, want 2", n)
	}
	report(t, b, cl, want)
}

// TestStreamClaimAllocBudget: one warm submission through a coordinator
// and a node in this process — the claim frame down the lane's stream, a
// vet the node's verdict cache answers, the ack up the next claim request
// and the record it settles — allocates only what is kept, counted on both
// ends and in the service. The service pays for the content digest the
// record is keyed by, the record and the done channel its waiter blocks
// on, the wake-up of the waiting poll, and the lease (five). The
// coordinator pays for the acked verdict and its package name (two). The
// node pays for the claim's key, the executor's cancellable vet context
// (two), and the verdict its cache answers with and that verdict's package
// name (five). That is 12. The claim, the job, the ack, the model digest
// and the bounded wait's timer allocate nothing: they live in storage each
// end owns, the digest is interned per stream, and the timer is pooled.
func TestStreamClaimAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own")
	}
	base, corpus := trainedArtifact(t)
	// The coordinator's own cache is off, so every submission is claimed
	// and the node's cache answers it.
	cfg := configOf(base)
	cfg.VerdictCache = -1
	svc, err := vetsvc.Open(instantiate(t, base, cfg), vetsvc.Config{
		QueueSize: 4, LeaseTTL: time.Minute, DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	startStack(t, svc, cluster.CoordinatorConfig{PollSlice: time.Minute}, 1, cluster.WorkerConfig{Lanes: 1, PollWait: time.Minute})
	sub := rawSubs(t, corpus, 1, 1)[0]
	ctx := context.Background()
	round := func() {
		tk, err := svc.Submit(ctx, sub)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for range 8 {
		round()
	}
	const budget = 12
	if n := testing.AllocsPerRun(200, round); n > budget {
		t.Errorf("a warm claim round trip allocates %.0f times, budget %d", n, budget)
	} else {
		t.Logf("a warm claim round trip allocates %.0f times", n)
	}
}

// TestRemoteHeartbeatHoldsLease: heartbeats on a claim stream, every third
// of the lease TTL, keep a lease that another node's poll would otherwise
// reclaim. Once they stop, that poll reclaims it; the next beat is refused
// 410, and the lane reads the refusal as a lost lease.
func TestRemoteHeartbeatHoldsLease(t *testing.T) {
	const ttl = 200 * time.Millisecond
	base, corpus := trainedArtifact(t)
	subs := rawSubs(t, corpus, 1, 1)
	want := serialVerdicts(t, base, configOf(base), subs)[0]
	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{
		QueueSize: 4, LeaseTTL: ttl, DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := startStack(t, svc, cluster.CoordinatorConfig{}, 0, cluster.WorkerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	tk, err := svc.Submit(ctx, subs[0])
	if err != nil {
		t.Fatal(err)
	}
	a, err := cluster.OpenStream(st.ts.URL, "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	kind, cl, err := a.Claim(1000, nil)
	if kind != "claim" || err != nil {
		t.Fatalf("node a's claim: answered %s, %v", kind, err)
	}
	b, err := cluster.OpenStream(st.ts.URL, "b", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Send(10_000, nil); err != nil {
		t.Fatal(err)
	}

	for end := time.Now().Add(3 * ttl); time.Now().Before(end); time.Sleep(ttl / 3) {
		if lost, err := a.Heartbeat(cl.Seq, cl.Token); lost || err != nil {
			t.Fatalf("a heartbeat of a held lease: lost %v, %v", lost, err)
		}
	}
	if qs := svc.QueueStats(); qs.Reclaimed != 0 || qs.Leased != 1 {
		t.Fatalf("while node a beats: %d reclaimed, %d leased; want 0, 1", qs.Reclaimed, qs.Leased)
	}

	kind, re, err := b.Answer()
	if kind != "claim" || err != nil || re.Seq != cl.Seq {
		t.Fatalf("node b's poll once the beats stopped: answered %s, %v", kind, err)
	}
	if qs := svc.QueueStats(); qs.Reclaimed != 1 {
		t.Fatalf("%d reclaimed, want 1", qs.Reclaimed)
	}
	if lost, err := a.Heartbeat(cl.Seq, cl.Token); !lost || err != nil {
		t.Fatalf("a heartbeat of the reclaimed lease: lost %v, %v; want lost", lost, err)
	}
	if ws := a.Stats(); ws.LeaseLost != 1 {
		t.Fatalf("node a's stats = %+v, want 1 lease lost", ws)
	}

	if kind, _, err := b.Claim(0, cluster.AppendAck(re.Seq, re.Token, re.Key, want)); kind != "empty" || err != nil {
		t.Fatalf("node b's ack: answered %s, %v", kind, err)
	}
	if v, err := tk.Wait(ctx); err != nil || *v != *want {
		t.Fatalf("the submission settled with %+v, %v; want %+v", v, err, *want)
	}
}

// TestStalledReaderReleasesLease: a lane that asks for a claim and then
// stops reading, without closing its stream, holds neither the
// coordinator's handler nor the lease past the lease TTL. The claim frame,
// a 16 MiB archive, is far more than the socket buffers take; its write is
// bounded by the TTL, and when it times out the stream ends and its end
// returns the claim.
func TestStalledReaderReleasesLease(t *testing.T) {
	const ttl = 200 * time.Millisecond
	base, _ := trainedArtifact(t)
	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{
		QueueSize: 4, LeaseTTL: ttl, MaxAttempts: 1, DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := startStack(t, svc, cluster.CoordinatorConfig{}, 0, cluster.WorkerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	tk, err := svc.Submit(ctx, core.Submission{Raw: bytes.Repeat([]byte{1}, 16<<20)})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	s, err := cluster.OpenStream(st.ts.URL, "stalled", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	t0 := time.Now()
	if err := s.Send(1000, nil); err != nil {
		t.Fatal(err)
	}
	_, err = tk.Wait(ctx)
	if !errors.Is(err, vetsvc.ErrPoisoned) || !strings.Contains(err.Error(), "node stalled: stream ended") {
		t.Fatalf("ticket error = %v, want the claim nacked for its write", err)
	}
	if d := time.Since(t0); d > 10*ttl {
		t.Errorf("the claim was nacked after %v, lease TTL %v", d, ttl)
	}
	if qs := svc.QueueStats(); qs.Leased != 0 || qs.Nacked != 1 || qs.Reclaimed != 0 {
		t.Fatalf("after the write timed out: %d leased, %d nacked, %d reclaimed; want 0, 1, 0", qs.Leased, qs.Nacked, qs.Reclaimed)
	}
	eventually(t, "the stalled stream's handler to exit", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestAckUnderAnotherKeyIsRefused: an ack whose key is not the digest of
// the submission its seq names is refused on the wire. The answer is an
// ordinary one, so the lane drops the ack and nacks nothing; the record and
// the lease are untouched, and cluster.acks_refused counts it. The same
// claim acked under its own key then settles.
func TestAckUnderAnotherKeyIsRefused(t *testing.T) {
	base, corpus := trainedArtifact(t)
	subs := rawSubs(t, corpus, 2, 2)
	want := serialVerdicts(t, base, configOf(base), subs)
	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{
		QueueSize: 4, LeaseTTL: time.Minute, DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := startStack(t, svc, cluster.CoordinatorConfig{}, 0, cluster.WorkerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	tk, err := svc.Submit(ctx, subs[0])
	if err != nil {
		t.Fatal(err)
	}
	a, err := cluster.OpenStream(st.ts.URL, "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	kind, cl, err := a.Claim(1000, nil)
	if kind != "claim" || err != nil {
		t.Fatalf("claim: answered %s, %v", kind, err)
	}
	if kind, _, err := a.Claim(0, cluster.AppendAck(cl.Seq, cl.Token, want[1].Digest, want[1])); kind != "empty" || err != nil {
		t.Fatalf("ack under another key: answered %s, %v; want empty", kind, err)
	}
	if got := svc.Obs().Counter("cluster.acks_refused").Load(); got != 1 {
		t.Fatalf("cluster.acks_refused = %d, want 1", got)
	}
	if got := svc.Obs().Counter("cluster.acks").Load(); got != 0 || tk.State() != "claimed" || svc.QueueStats().Leased != 1 {
		t.Fatalf("after the refused ack: %d acks, ticket %s, %d leased; want 0, claimed, 1", got, tk.State(), svc.QueueStats().Leased)
	}
	if kind, _, err := a.Claim(0, cluster.AppendAck(cl.Seq, cl.Token, cl.Key, want[0])); kind != "empty" || err != nil {
		t.Fatalf("ack under its own key: answered %s, %v", kind, err)
	}
	if v, err := tk.Wait(ctx); err != nil || *v != *want[0] {
		t.Fatalf("ticket = %+v, %v; want %+v", v, err, *want[0])
	}
}
