// Service: run APICHECKER as an always-on vetting service — the paper's
// deployment shape (§5.2: an online pipeline continuously absorbing
// developer submissions) rather than a one-shot batch. A bounded queue
// applies explicit backpressure to a bursty submitter, a worker pool vets
// under per-submission deadlines, and the metrics snapshot reports the
// crash/fallback accounting and scan-latency quantiles of §5.1-§5.2.
//
// The service's knobs live in one apichecker.VetServiceConfig — the same
// struct `tmarket -serve` binds its -workers, -queue and -deadline flags
// into — and the example ends by printing the Prometheus exposition a
// gateway's /metrics would serve for this exact service.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"time"

	"apichecker"
)

func main() {
	u, err := apichecker.NewUniverse(6000, 3)
	if err != nil {
		log.Fatal(err)
	}
	training, err := apichecker.NewCorpus(u, 1200, 3)
	if err != nil {
		log.Fatal(err)
	}
	checker, _, err := apichecker.Train(training, apichecker.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Today's submissions arrive as a burst far faster than the lanes
	// drain them.
	burst, err := apichecker.NewCorpus(u, 400, 91)
	if err != nil {
		log.Fatal(err)
	}

	svc := apichecker.NewVetService(checker, apichecker.VetServiceConfig{
		Workers:   8,
		QueueSize: 16,
		// Per-submission wall-clock budget; expiries surface as
		// ErrDeadlineExceeded and are counted in the metrics.
		Deadline: 2 * time.Minute,
	})
	defer svc.Close()

	ctx := context.Background()
	var (
		tickets   []*apichecker.VetTicket
		retries   int
		malicious int
	)
	for i := 0; i < burst.Len(); i++ {
		sub := apichecker.Submission{Program: burst.Program(i)}
		for {
			tk, err := svc.Submit(ctx, sub)
			if errors.Is(err, apichecker.ErrQueueFull) {
				// Explicit backpressure: the submitter waits for a
				// slot instead of the service buffering unboundedly.
				retries++
				tk, err = svc.SubmitWait(ctx, sub)
			}
			if err != nil {
				log.Fatal(err)
			}
			tickets = append(tickets, tk)
			break
		}
	}
	for _, tk := range tickets {
		v, err := tk.Wait(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if v.Malicious {
			malicious++
		}
	}

	m := svc.Metrics()
	fmt.Printf("vetted %d submissions on %d lanes (queue 16)\n",
		m.Completed, 8)
	fmt.Printf("  backpressure: %d queue-full rejections, all retried\n", m.Rejected)
	fmt.Printf("  flagged malicious: %d\n", malicious)
	fmt.Printf("  reliability: %d crashes across %d submissions, %d fallback re-runs\n",
		m.Crashes, m.CrashedSubmissions, m.Fallbacks)
	for engine, n := range m.EngineRuns {
		fmt.Printf("  engine %-22s %4d final runs\n", engine, n)
	}
	fmt.Printf("  scan latency (virtual): mean %.1fs  p50 %.1fs  p95 %.1fs  p99 %.1fs\n",
		m.ScanMean, m.ScanP50, m.ScanP95, m.ScanP99)

	// The checker's observability spine breaks the same latency down by
	// pipeline stage — the per-stage view behind the service quantiles.
	fmt.Println("  pipeline stages (virtual seconds):")
	for _, st := range checker.StageStats() {
		fmt.Printf("    %-14s n=%-4d p50 %8.3f  p95 %8.3f  p99 %8.3f\n",
			st.Stage, st.Count, st.Dur.P50, st.Dur.P95, st.Dur.P99)
	}
	if retries != int(m.Rejected) {
		log.Fatalf("retry accounting mismatch: %d retries vs %d rejections", retries, m.Rejected)
	}

	// The same numbers, as the gateway's /metrics would expose them: the
	// generic Prometheus exposition over the checker's and service's obs
	// collectors (a few representative lines).
	var prom strings.Builder
	if err := apichecker.WriteObsMetrics(&prom, "apichecker", checker.Obs(), svc.Obs()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  /metrics exposition (excerpt):")
	shown := 0
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "apichecker_svc_") && !strings.HasPrefix(line, "# ") && shown < 6 {
			fmt.Printf("    %s\n", line)
			shown++
		}
	}
}
