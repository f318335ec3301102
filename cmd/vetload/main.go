// Command vetload is a wrk-style concurrent load harness for the HTTP
// gateway: it drives real APK uploads over real sockets and reports
// throughput and wall-clock latency quantiles — the serving-path numbers
// the in-process benchmarks cannot see (HTTP parsing, JSON encoding,
// socket scheduling).
//
// Two modes:
//
//	vetload -n 400 -c 16                  # self-serve: train, listen on loopback, load
//	vetload -addr host:port -n 400 -c 16  # drive an already-running gateway
//
// Self-serve mode trains a small checker, starts the vetting service and
// gateway on a loopback listener, and then loads it — one command for CI.
// Each request POSTs one APK with ?wait= so the response carries the
// verdict; 429 backpressure answers are retried after the server's
// Retry-After hint and counted. With -json, a summary row is folded into
// the given JSON file: one top-level key per scenario, so several runs can
// share one file.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"apichecker"
)

func main() {
	var (
		addr    = flag.String("addr", "", "gateway address (host:port); empty = self-serve on loopback")
		n       = flag.Int("n", 400, "total submissions to drive")
		c       = flag.Int("c", 16, "concurrent clients")
		apps    = flag.Int("apps", 0, "distinct apps in the workload (0 = n/4, duplicates exercise the verdict cache)")
		wait    = flag.Duration("wait", 2*time.Minute, "per-request ?wait= verdict budget")
		apis    = flag.Int("universe-apis", 6000, "self-serve universe size")
		train   = flag.Int("train-apps", 900, "self-serve training-corpus size")
		seed    = flag.Int64("seed", 7, "workload seed")
		workers = flag.Int("workers", 8, "self-serve service lanes")
		queue   = flag.Int("queue", 0, "self-serve service queue depth (0 = 4x workers)")
		qdir    = flag.String("queue-dir", "", "self-serve durable intake journal directory (replays unsettled submissions on restart)")
		jsonOut = flag.String("json", "", "fold a summary row into this benchmark JSON file")
		tband   = flag.String("triage-band", "", `self-serve triage band "lo,hi": confident submissions short-circuit at tier 1 without emulation`)
	)
	flag.Parse()
	if *apps <= 0 {
		*apps = max(1, *n/4)
	}
	var bandLo, bandHi float64
	if *tband != "" {
		if _, err := fmt.Sscanf(*tband, "%f,%f", &bandLo, &bandHi); err != nil {
			fail(fmt.Errorf(`-triage-band %q: want "lo,hi" (e.g. 0.05,0.95)`, *tband))
		}
	}

	u, err := apichecker.NewUniverse(*apis, *seed)
	if err != nil {
		fail(err)
	}
	target := *addr
	var shutdown func()
	if target == "" {
		target, shutdown, err = selfServe(u, *seed, *train, *workers, *queue, *qdir, bandLo, bandHi)
		if err != nil {
			fail(err)
		}
		defer shutdown()
		fmt.Printf("self-serve gateway on %s (%d lanes)\n", target, *workers)
	}

	// Build the APK payloads up front so the measured loop is pure
	// serving-path work.
	batch, err := apichecker.NewCorpus(u, *apps, *seed+11)
	if err != nil {
		fail(err)
	}
	payloads := make([][]byte, batch.Len())
	for i := 0; i < batch.Len(); i++ {
		payloads[i], err = apichecker.BuildAPK(batch.Program(i), u)
		if err != nil {
			fail(err)
		}
	}
	fmt.Printf("driving %d submissions (%d distinct apps) with %d clients\n", *n, *apps, *c)

	res := drive(target, payloads, *n, *c, *wait)
	fmt.Printf("\n%d ok, %d failed, %d backpressure retries in %s\n",
		res.OK, res.Failed, res.Retries429, time.Duration(res.WallNanos).Round(time.Millisecond))
	fmt.Printf("throughput: %.1f submissions/s\n", res.Throughput)
	fmt.Printf("latency: p50 %.1fms  p95 %.1fms  p99 %.1fms\n",
		res.P50Millis, res.P95Millis, res.P99Millis)
	fmt.Printf("verdicts: %d malicious, %d cache-served\n", res.Malicious, res.CacheServed)
	fmt.Printf("verdict fingerprint: %.16s (%d distinct, %d conflicts)\n",
		res.VerdictFingerprint, *apps, res.VerdictConflicts)
	if res.Tier1 > 0 {
		fmt.Printf("tier mix: %d tier-1 (static triage), %d tier-2 (emulated)\n", res.Tier1, res.Tier2)
	}

	if *jsonOut != "" {
		if err := foldJSON(*jsonOut, res); err != nil {
			fail(err)
		}
		fmt.Printf("folded row %q into %s\n", "vetload", *jsonOut)
	}
	if res.Failed > 0 {
		os.Exit(1)
	}
}

// result is the summary row folded into the benchmark artifact.
type result struct {
	Submissions int     `json:"submissions"`
	Clients     int     `json:"clients"`
	OK          int64   `json:"ok"`
	Failed      int64   `json:"failed"`
	Retries429  int64   `json:"retries_429"`
	WallNanos   int64   `json:"wall_ns"`
	Throughput  float64 `json:"throughput_per_s"`
	P50Millis   float64 `json:"p50_ms"`
	P95Millis   float64 `json:"p95_ms"`
	P99Millis   float64 `json:"p99_ms"`
	Malicious   int64   `json:"malicious"`
	CacheServed int64   `json:"cache_served"`
	Tier1       int64   `json:"tier1"`
	Tier2       int64   `json:"tier2"`

	// VerdictFingerprint is an order-independent digest of the verdict
	// set: sha256 over the sorted unique "digest:sha256(verdictJSON)" lines.
	// Two runs over the same workload and model — serial, concurrent, or
	// spread across a vet cluster — must produce the same fingerprint;
	// CI compares it against a serial baseline to prove bit-identity.
	VerdictFingerprint string `json:"verdict_fingerprint"`
	// VerdictConflicts counts submissions whose verdict differed from an
	// earlier verdict for the same content — always 0 when the serving
	// side is deterministic.
	VerdictConflicts int64 `json:"verdict_conflicts"`
}

// drive runs the concurrent load loop against the gateway at addr.
func drive(addr string, payloads [][]byte, n, clients int, wait time.Duration) result {
	url := "http://" + addr + "/v1/submissions?wait=" + wait.String()
	var (
		next      atomic.Int64
		ok        atomic.Int64
		failed    atomic.Int64
		retries   atomic.Int64
		malicious atomic.Int64
		served    atomic.Int64
		tier1     atomic.Int64
		tier2     atomic.Int64
		mu        sync.Mutex
		lats      []float64
		fps       = map[string]string{}
		conflicts int64
	)
	client := &http.Client{Timeout: wait + 30*time.Second}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				lat, st, err := submitOne(client, url, payloads[i%len(payloads)], &retries)
				if err != nil || st.Status != "done" {
					failed.Add(1)
					if err != nil {
						fmt.Fprintln(os.Stderr, "vetload:", err)
					} else {
						fmt.Fprintf(os.Stderr, "vetload: submission %s: status %s (%s)\n", st.ID, st.Status, st.Error)
					}
					continue
				}
				ok.Add(1)
				if st.Verdict != nil && st.Verdict.Malicious {
					malicious.Add(1)
				}
				if st.Verdict != nil {
					if st.Verdict.Tier == 1 {
						tier1.Add(1)
					} else {
						tier2.Add(1)
					}
				}
				if st.Outcome == "hit" || st.Outcome == "coalesced" {
					served.Add(1)
				}
				mu.Lock()
				lats = append(lats, lat.Seconds()*1000)
				if st.Verdict != nil {
					vj, _ := json.Marshal(st.Verdict)
					h := fmt.Sprintf("%x", sha256.Sum256(vj))
					if prev, seen := fps[st.Verdict.Digest]; seen && prev != h {
						conflicts++
					} else {
						fps[st.Verdict.Digest] = h
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	// Fold the per-content verdict hashes into one order-independent
	// fingerprint.
	lines := make([]string, 0, len(fps))
	for dig, h := range fps {
		lines = append(lines, dig+":"+h)
	}
	sort.Strings(lines)
	fph := sha256.New()
	for _, l := range lines {
		fph.Write([]byte(l))
		fph.Write([]byte{'\n'})
	}

	sort.Float64s(lats)
	q := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		idx := int(p*float64(len(lats))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(lats) {
			idx = len(lats) - 1
		}
		return lats[idx]
	}
	return result{
		Submissions: n,
		Clients:     clients,
		OK:          ok.Load(),
		Failed:      failed.Load(),
		Retries429:  retries.Load(),
		WallNanos:   int64(wall),
		Throughput:  float64(ok.Load()) / wall.Seconds(),
		P50Millis:   q(0.50),
		P95Millis:   q(0.95),
		P99Millis:   q(0.99),
		Malicious:   malicious.Load(),
		CacheServed: served.Load(),
		Tier1:       tier1.Load(),
		Tier2:       tier2.Load(),

		VerdictFingerprint: fmt.Sprintf("%x", fph.Sum(nil)),
		VerdictConflicts:   conflicts,
	}
}

// submitOne POSTs one APK and decodes the submission resource, retrying
// 429 backpressure answers per Retry-After.
func submitOne(client *http.Client, url string, apk []byte, retries *atomic.Int64) (time.Duration, apichecker.SubmissionStatus, error) {
	start := time.Now()
	for {
		resp, err := client.Post(url, "application/vnd.android.package-archive", bytes.NewReader(apk))
		if err != nil {
			return 0, apichecker.SubmissionStatus{}, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, apichecker.SubmissionStatus{}, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			retries.Add(1)
			backoff := time.Second
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				backoff = time.Duration(ra) * time.Second
			}
			time.Sleep(backoff)
			continue
		}
		var st apichecker.SubmissionStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return 0, st, fmt.Errorf("decode %s response (%d): %w", url, resp.StatusCode, err)
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			return 0, st, fmt.Errorf("submission rejected: %d %s", resp.StatusCode, st.Error)
		}
		return time.Since(start), st, nil
	}
}

// selfServe trains a checker and brings up a loopback gateway over it.
func selfServe(u *apichecker.Universe, seed int64, train, workers, queue int, queueDir string, bandLo, bandHi float64) (addr string, shutdown func(), err error) {
	corpus, err := apichecker.NewCorpus(u, train, seed)
	if err != nil {
		return "", nil, err
	}
	ccfg := apichecker.DefaultConfig()
	ccfg.TriageLo, ccfg.TriageHi = bandLo, bandHi
	checker, _, err := apichecker.Train(corpus, ccfg)
	if err != nil {
		return "", nil, err
	}
	svc, err := apichecker.OpenVetService(checker, apichecker.VetServiceConfig{
		Workers:   workers,
		QueueSize: queue,
		QueueDir:  queueDir,
	})
	if err != nil {
		return "", nil, err
	}
	gw := apichecker.NewGateway(svc, apichecker.GatewayConfig{})
	serveErr := make(chan error, 1)
	go func() { serveErr <- gw.ListenAndServe("127.0.0.1:0") }()
	for i := 0; i < 200 && gw.Addr() == ""; i++ {
		select {
		case err := <-serveErr:
			return "", nil, err
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	if gw.Addr() == "" {
		return "", nil, fmt.Errorf("gateway did not start listening")
	}
	return gw.Addr(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
	}, nil
}

// foldJSON merges the summary row into the benchmark artifact file,
// preserving any rows other tools wrote.
func foldJSON(path string, res result) error {
	rows := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		if err := json.Unmarshal(data, &rows); err != nil {
			return fmt.Errorf("existing %s is not a JSON object: %w", path, err)
		}
	}
	row, err := json.Marshal(res)
	if err != nil {
		return err
	}
	rows["vetload"] = row
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "vetload:", err)
	os.Exit(1)
}
