// Command tmarket simulates months of market deployment: initial training
// on ground-truth data, monthly submission review through the full
// pipeline (fingerprint consensus → APICHECKER → manual workflows), SDK
// evolution, and monthly retraining (§5.2-§5.3).
//
// Usage:
//
//	tmarket -months 12 -universe-apis 12000 -initial 900 -monthly 250
//
// With -serve, tmarket instead runs one submission batch through the
// always-on vetting service (bounded queue, worker-pool lanes, deadlines)
// and reports the service metrics — the online deployment shape of §5.2.
//
// With -model-dir, the serving model lives in a versioned on-disk registry:
// -snapshot trains and persists a generation, -serve cold-starts from the
// registry's current generation (training one only when the registry is
// empty), and -evolve retrains in the background mid-batch and hot-swaps
// the challenger in when it passes the promotion gates (§5.3):
//
//	tmarket -model-dir ./models -snapshot
//	tmarket -model-dir ./models -serve -evolve
//
// With -serve -listen, tmarket becomes the actual market frontend: the
// vetting service is exposed over HTTP (submission API, /metrics,
// per-submission SSE traces) until SIGINT/SIGTERM, which drains
// gracefully — admissions stop, in-flight submissions finish, the persist
// log flushes:
//
//	tmarket -serve -listen localhost:8080
//
// The service's own flags (-workers, -queue, -deadline, -queue-dir,
// -lease-ttl, -cluster) bind straight into an apichecker.VetServiceConfig;
// the rest of the serving deployment (cache tiers, model registry, HTTP
// frontend) is a serveFlags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprof registers the profiling handlers
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"apichecker"
)

func main() {
	var (
		apis    = flag.Int("universe-apis", 10000, "framework universe size")
		seed    = flag.Int64("seed", 1, "global random seed")
		months  = flag.Int("months", 12, "months to simulate")
		initial = flag.Int("initial", 900, "initial ground-truth corpus size")
		monthly = flag.Int("monthly", 250, "submissions per month")
		sdk     = flag.Int("sdk-every", 4, "SDK release cadence in months (0 = never)")

		serve    = flag.Bool("serve", false, "run the vetting service (one submission batch, or a network frontend with -listen) instead of the year simulation")
		dup      = flag.Int("dup", 1, "submit each -serve app this many times (duplicate-heavy workloads exercise the verdict cache)")
		snapshot = flag.Bool("snapshot", false, "train a model, persist it to -model-dir, and exit")
		tband    = flag.String("triage-band", "", `tier-1 triage uncertainty band "lo,hi" (e.g. 0.05,0.95): submissions the static pre-screen scores outside the band skip emulation entirely (-serve and -snapshot)`)
	)
	// The service's knobs bind straight into its config; the rest of the
	// serving deployment is tmarket's own.
	var vcfg apichecker.VetServiceConfig
	sf := serveFlags{drainTimeout: 30 * time.Second}
	flag.IntVar(&vcfg.Workers, "workers", 0, "service lanes (0 = one per emulator slot)")
	flag.IntVar(&vcfg.QueueSize, "queue", 0, "service queue depth (0 = 4x workers)")
	flag.DurationVar(&vcfg.Deadline, "deadline", 0, "per-submission vet deadline (0 = none)")
	flag.StringVar(&vcfg.QueueDir, "queue-dir", "", "journal accepted submissions to this directory and replay unsettled ones on restart (-serve only)")
	flag.DurationVar(&vcfg.LeaseTTL, "lease-ttl", 0, "reclaim a claimed submission after this long without worker progress (0 = never; with -cluster, 0 = 1m)")
	flag.IntVar(&sf.vcache, "vcache", 0, "verdict-cache capacity on the -serve path (0 = default, negative = disabled)")
	flag.StringVar(&sf.persistDir, "vcache-persist", "", "persist the verdict cache to this directory and warm-start it on the next run (-serve only)")
	flag.BoolVar(&sf.trace, "trace", false, "stream per-submission pipeline spans and print the per-stage latency table (-serve only)")
	flag.StringVar(&sf.modelDir, "model-dir", "", "versioned model registry directory; -serve cold-starts from its current generation")
	flag.BoolVar(&sf.evolve, "evolve", false, "retrain in the background during the -serve batch and hot-swap on gated promotion (requires -model-dir)")
	flag.StringVar(&sf.listen, "listen", "", "serve the HTTP gateway on this address until SIGINT/SIGTERM (-serve only)")
	flag.StringVar(&sf.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.DurationVar(&sf.drainTimeout, "drain-timeout", sf.drainTimeout, "graceful-shutdown budget for in-flight submissions (-listen only)")
	flag.BoolVar(&vcfg.DisableLocalLanes, "cluster", false, "run as a vet-cluster coordinator: local lanes off, remote vetworker nodes claim submissions over the gateway (requires -listen)")
	flag.Parse()

	if sf.pprof != "" {
		go func() {
			// DefaultServeMux carries the pprof handlers via the blank import.
			if err := http.ListenAndServe(sf.pprof, nil); err != nil {
				fmt.Fprintln(os.Stderr, "tmarket: pprof:", err)
			}
		}()
		fmt.Printf("pprof listening on http://%s/debug/pprof/\n", sf.pprof)
	}

	if (*snapshot || sf.evolve) && sf.modelDir == "" {
		fail(fmt.Errorf("-snapshot and -evolve require -model-dir"))
	}
	if vcfg.DisableLocalLanes && (!*serve || sf.listen == "") {
		fail(fmt.Errorf("-cluster requires -serve -listen (worker nodes claim over the gateway)"))
	}
	band, err := parseBand(*tband)
	if err != nil {
		fail(err)
	}
	u, err := apichecker.NewUniverse(*apis, *seed)
	if err != nil {
		fail(err)
	}
	if *snapshot {
		if err := runSnapshot(u, *seed, *initial, sf.modelDir, band); err != nil {
			fail(err)
		}
		return
	}
	if *serve {
		if err := runService(u, *seed, *initial, *monthly, *dup, vcfg, sf, band); err != nil {
			fail(err)
		}
		return
	}
	if *tband != "" {
		fmt.Fprintln(os.Stderr, "tmarket: -triage-band only applies with -serve or -snapshot")
	}
	if sf.trace {
		fmt.Fprintln(os.Stderr, "tmarket: -trace only applies with -serve")
	}
	if sf.persistDir != "" {
		fmt.Fprintln(os.Stderr, "tmarket: -vcache-persist only applies with -serve")
	}
	if sf.evolve {
		fmt.Fprintln(os.Stderr, "tmarket: -evolve only applies with -serve")
	}
	if sf.listen != "" {
		fmt.Fprintln(os.Stderr, "tmarket: -listen only applies with -serve")
	}
	cfg := apichecker.DefaultYearConfig()
	cfg.Seed = *seed
	cfg.Months = *months
	cfg.InitialApps = *initial
	cfg.MonthlyApps = *monthly
	cfg.SDKEveryMonths = *sdk
	cfg.RetrainCap = *initial + 5**monthly

	fmt.Printf("simulating %d months (universe %d APIs, initial corpus %d, %d submissions/month)\n\n",
		cfg.Months, *apis, cfg.InitialApps, cfg.MonthlyApps)
	start := time.Now()
	rep, err := apichecker.RunYear(u, cfg)
	if err != nil {
		fail(err)
	}

	fmt.Printf("%6s %10s %8s %8s %8s %9s %10s %9s\n",
		"Month", "Precision", "Recall", "Known", "Flagged", "Fast/Full", "Reports", "KeyAPIs")
	var manualTotal float64
	for _, m := range rep.Months {
		fmt.Printf("%6d %9.1f%% %7.1f%% %8d %8d %5d/%-4d %10d %9d\n",
			m.Month, 100*m.Precision(), 100*m.Recall(),
			m.RejectedKnown, m.Flagged, m.FastTracked, m.ManualFull, m.UserReports, m.KeyAPIs)
		manualTotal += m.ManualMinutes
	}
	pMin, pMax, rMin, rMax := rep.MinMaxPrecisionRecall()
	fmt.Printf("\nsimulated in %s\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("precision band %.1f%%-%.1f%%, recall band %.1f%%-%.1f%%\n",
		100*pMin, 100*pMax, 100*rMin, 100*rMax)
	fmt.Printf("key-API set: %d initially, %d-%d over the run\n",
		rep.InitialKeyAPIs, minKeys(rep), maxKeys(rep))
	fmt.Printf("total manual-analysis effort: %.0f analyst-hours\n", manualTotal/60)
}

// serveFlags is the serving deployment beyond the vetting service's own
// config: the checker's verdict-cache tiers, the model registry, and the
// network frontend, one field per flag.
type serveFlags struct {
	vcache       int
	persistDir   string
	modelDir     string
	evolve       bool
	trace        bool
	listen       string
	pprof        string
	drainTimeout time.Duration // <= 0 selects 30s
}

// triageBand is a parsed -triage-band flag; Set false means the flag was
// absent and the trained default (or the artifact's recorded band) rules.
type triageBand struct {
	Lo, Hi float64
	Set    bool
}

// parseBand parses the -triage-band "lo,hi" syntax. Validation of the
// values themselves (0 <= lo <= hi <= 1) happens in the checker.
func parseBand(s string) (triageBand, error) {
	if s == "" {
		return triageBand{}, nil
	}
	var b triageBand
	if _, err := fmt.Sscanf(s, "%f,%f", &b.Lo, &b.Hi); err != nil {
		return triageBand{}, fmt.Errorf(`-triage-band %q: want "lo,hi" (e.g. 0.05,0.95)`, s)
	}
	b.Set = true
	return b, nil
}

// runSnapshot is the -snapshot path: train once and persist the model to
// the registry as the current generation.
func runSnapshot(u *apichecker.Universe, seed int64, initial int, modelDir string, band triageBand) error {
	training, err := apichecker.NewCorpus(u, initial, seed)
	if err != nil {
		return err
	}
	ccfg := apichecker.DefaultConfig()
	if band.Set {
		ccfg.TriageLo, ccfg.TriageHi = band.Lo, band.Hi
	}
	checker, rep, err := apichecker.Train(training, ccfg)
	if err != nil {
		return err
	}
	reg, err := apichecker.OpenModelRegistry(modelDir)
	if err != nil {
		return err
	}
	mgr := apichecker.NewLifecycleManager(checker, reg, apichecker.DefaultGateConfig())
	dig, err := mgr.Snapshot("tmarket -snapshot")
	if err != nil {
		return err
	}
	fmt.Printf("trained on %d apps (%d key APIs)\n", initial, rep.KeyAPIs)
	fmt.Printf("snapshotted generation %s to %s\n", shortDigest(dig), modelDir)
	return nil
}

// runService is the -serve path: obtain a model (cold-started from the
// registry when -model-dir has one, trained otherwise), then either vet one
// batch of submissions through the always-on service and print its
// metrics, or — with -listen — expose the service over HTTP until a
// shutdown signal drains it. With -trace, the checker's obs spine streams
// one line per completed pipeline stage and the per-stage latency table
// follows the metrics. With -evolve, a background runner retrains
// mid-batch and hot-swaps on promotion.
func runService(u *apichecker.Universe, seed int64, initial, monthly, dup int, vcfg apichecker.VetServiceConfig, sf serveFlags, band triageBand) error {
	var (
		checker *apichecker.Checker
		mgr     *apichecker.LifecycleManager
	)
	if sf.modelDir != "" {
		reg, err := apichecker.OpenModelRegistry(sf.modelDir)
		if err != nil {
			return err
		}
		a, man, err := reg.Current()
		switch {
		case err == nil:
			// The artifact brings the model config; the cache bound is this
			// node's own.
			if checker, err = a.Instantiate(apichecker.NodeConfig{VerdictCache: sf.vcache}); err != nil {
				return err
			}
			fmt.Printf("cold-started generation %s from %s (created %s)\n",
				shortDigest(man.Digest), sf.modelDir, man.CreatedAt.Format(time.RFC3339))
			mgr = apichecker.NewLifecycleManager(checker, reg, apichecker.DefaultGateConfig())
		case errors.Is(err, apichecker.ErrNoCurrentModel):
			// Empty registry: train a first generation and seed it.
			ck, rep, err := trainChecker(u, seed, initial, sf.vcache, band)
			if err != nil {
				return err
			}
			checker = ck
			mgr = apichecker.NewLifecycleManager(checker, reg, apichecker.DefaultGateConfig())
			dig, err := mgr.Snapshot("tmarket -serve initial")
			if err != nil {
				return err
			}
			fmt.Printf("trained on %d apps (%d key APIs); snapshotted generation %s to %s\n",
				initial, rep.KeyAPIs, shortDigest(dig), sf.modelDir)
		default:
			return err
		}
	} else {
		ck, rep, err := trainChecker(u, seed, initial, sf.vcache, band)
		if err != nil {
			return err
		}
		checker = ck
		fmt.Printf("trained on %d apps (%d key APIs); starting vetting service\n",
			initial, rep.KeyAPIs)
	}
	if lo, hi := checker.TriageBand(); band.Set && (band.Lo != lo || band.Hi != hi) {
		// Override the trained (or artifact-recorded) band. A band change
		// reshapes verdicts, so this is a model swap: it must land before
		// the persist tier attaches or warm-start entries would be stale.
		if _, err := checker.SetTriageBand(band.Lo, band.Hi); err != nil {
			return err
		}
	}
	if lo, hi := checker.TriageBand(); (lo > 0 || hi < 1) && checker.Parts().Triage != nil {
		fmt.Printf("tiered triage on: band [%g, %g] falls through to emulation, outside short-circuits\n", lo, hi)
	}
	if sf.persistDir != "" {
		// Attached after the checker exists (covers the cold-start path,
		// where the registry instantiates it), before any vet runs: a
		// snapshot recorded under the same model warm-starts the cache.
		if err := checker.AttachPersist(sf.persistDir); err != nil {
			return err
		}
		defer checker.ClosePersist()
		if ps := checker.PersistStats(); ps.Restored > 0 || ps.Skipped > 0 {
			fmt.Printf("warm-started verdict cache from %s: %d restored, %d skipped\n",
				sf.persistDir, ps.Restored, ps.Skipped)
		}
	}
	if sf.trace {
		var mu sync.Mutex
		checker.Obs().AddSink(apichecker.ObsSinkFunc(func(ev apichecker.ObsEvent) {
			if ev.Kind != apichecker.ObsSpan {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			fmt.Printf("trace seq=%-5d stage=%-12s pkg=%-24s dur=%8.1fs", ev.Trace, ev.Name, ev.Package, ev.Dur.Seconds())
			if ev.Note != "" {
				fmt.Printf(" note=%s", ev.Note)
			}
			if ev.Err != nil {
				fmt.Printf(" err=%q", ev.Err)
			}
			fmt.Println()
		}))
	}

	svc, err := apichecker.OpenVetService(checker, vcfg)
	if err != nil {
		return fmt.Errorf("tmarket: opening vet service: %w", err)
	}
	defer svc.Close()
	if vcfg.QueueDir != "" {
		m := svc.Metrics()
		fmt.Printf("durable intake journal at %s", vcfg.QueueDir)
		if m.Replayed > 0 {
			fmt.Printf(" (replayed %d unsettled submissions)", m.Replayed)
		}
		fmt.Println()
	}

	if sf.listen != "" {
		return serveGateway(svc, sf)
	}

	// Corpora are generated over the serving checker's universe so a
	// cold-started model vets programs from the framework it was trained
	// against (the registry replays the universe bit-identically).
	batch, err := apichecker.NewCorpus(checker.Universe(), monthly, seed+101)
	if err != nil {
		return err
	}
	if dup < 1 {
		dup = 1
	}
	subs := make([]apichecker.Submission, 0, batch.Len()*dup)
	for r := 0; r < dup; r++ {
		for i := 0; i < batch.Len(); i++ {
			subs = append(subs, apichecker.Submission{Program: batch.Program(i)})
		}
	}

	// With evolve, retrain in the background while the batch is being
	// vetted: promotion hot-swaps the serving model mid-stream.
	var evolveDone chan *apichecker.EvolveResult
	if sf.evolve {
		refreshed, err := apichecker.NewCorpus(checker.Universe(), initial+monthly, seed+202)
		if err != nil {
			return err
		}
		evolveDone = make(chan *apichecker.EvolveResult, 1)
		runner := apichecker.StartEvolveRunner(mgr, apichecker.EvolveRunnerConfig{
			Corpus: func(context.Context) (*apichecker.Corpus, error) { return refreshed, nil },
			OnResult: func(res *apichecker.EvolveResult, err error) {
				if err != nil {
					fmt.Fprintln(os.Stderr, "tmarket: evolution round:", err)
				}
				evolveDone <- res
			},
		})
		defer runner.Stop()
		runner.Trigger()
		fmt.Printf("background evolution started on %d refreshed apps\n", refreshed.Len())
	}

	start := time.Now()
	verdicts, err := svc.VetBatch(context.Background(), subs)
	if err != nil {
		return err
	}

	if evolveDone != nil {
		res := <-evolveDone
		if res != nil {
			if res.Promoted {
				fmt.Printf("evolution promoted generation %d (%s): challenger F1 %.3f vs champion %.3f on %d held-out apps\n",
					res.Generation.ID, shortDigest(res.Digest),
					res.Shadow.Challenger.F1, res.Shadow.Champion.F1, res.Shadow.Holdout)
			} else {
				fmt.Printf("evolution rejected the challenger: %s\n", res.Shadow.Reason)
			}
		}
	}
	flagged := 0
	for _, v := range verdicts {
		if v.Malicious {
			flagged++
		}
	}

	m := svc.Metrics()
	cfg := svc.Config()
	fmt.Printf("\nvetted %d submissions in %s (%d lanes, queue %d)\n",
		m.Completed, time.Since(start).Round(time.Millisecond), cfg.Workers, cfg.QueueSize)
	fmt.Printf("  flagged malicious: %d\n", flagged)
	fmt.Printf("  timeouts %d, canceled %d, failed %d\n", m.Timeouts, m.Canceled, m.Failed)
	fmt.Printf("  queue: %d acked, %d reclaims, %d replayed, %d dead-lettered; lease age p95 %.2fs\n",
		m.QueueAcked, m.Reclaims, m.Replayed, m.DeadLettered, m.LeaseAge.P95)
	fmt.Printf("  reliability: %d crashes across %d submissions, %d fallback re-runs\n",
		m.Crashes, m.CrashedSubmissions, m.Fallbacks)
	engines := make([]string, 0, len(m.EngineRuns))
	for engine := range m.EngineRuns {
		engines = append(engines, engine)
	}
	sort.Strings(engines)
	for _, engine := range engines {
		fmt.Printf("  engine %-22s %4d final runs\n", engine, m.EngineRuns[engine])
	}
	fmt.Printf("  verdict cache: %d hits, %d misses, %d coalesced, %d bypassed\n",
		m.CacheHits, m.CacheMisses, m.CacheCoalesced, m.CacheBypass)
	fmt.Printf("  cache memory: %d live entries, %s of flat entries; process heap %s\n",
		m.CacheEntries, fmtBytes(uint64(m.CacheLiveBytes)), fmtBytes(m.HeapLiveBytes))
	if m.Persist.Enabled {
		fmt.Printf("  persist tier: %d warm-start hits, %d misses; %d appends (%d failed), %d compactions (%d failed), %d resets\n",
			m.Persist.Restored, m.Persist.Skipped, m.Persist.Appends, m.Persist.AppendErrors,
			m.Persist.Compactions, m.Persist.CompactErrors, m.Persist.Resets)
	}
	if m.Tier1 > 0 {
		fmt.Printf("  tier mix: %d tier-1 (static triage, mean %.0fµs), %d tier-2 (emulated, mean %.1fs)\n",
			m.Tier1, m.Tier1Scan.Mean*1e6, m.Tier2, m.Tier2Scan.Mean)
		if m.ScanMean > 0 && m.Tier2Scan.Mean > m.ScanMean {
			fmt.Printf("  triage saves %.1fx on mean virtual scan cost (%.2fs vs %.1fs all-emulated)\n",
				m.Tier2Scan.Mean/m.ScanMean, m.ScanMean, m.Tier2Scan.Mean)
		}
	}
	if m.MissScan.Count > 0 {
		fmt.Printf("  emulated scans   (n=%4d): mean %.1fs  p50 %.1fs  p95 %.1fs  p99 %.1fs\n",
			m.MissScan.Count, m.MissScan.Mean, m.MissScan.P50, m.MissScan.P95, m.MissScan.P99)
	}
	if m.HitScan.Count > 0 {
		fmt.Printf("  cache-served     (n=%4d): mean %.1fs  p50 %.1fs  p95 %.1fs  p99 %.1fs (virtual cost, served instantly)\n",
			m.HitScan.Count, m.HitScan.Mean, m.HitScan.P50, m.HitScan.P95, m.HitScan.P99)
	}
	fmt.Printf("  scan latency (virtual): mean %.1fs  p50 %.1fs  p95 %.1fs  p99 %.1fs\n",
		m.ScanMean, m.ScanP50, m.ScanP95, m.ScanP99)
	fmt.Printf("  model: generation %d (%s), %d hot-swaps\n", m.ModelGeneration, shortDigest(m.ModelDigest), m.ModelSwaps)
	if mgr != nil {
		st := mgr.State()
		if !st.LastPromotion.IsZero() {
			fmt.Printf("  last promotion: %s\n", st.LastPromotion.Format(time.RFC3339))
		}
		if sh := st.LastShadow; sh != nil {
			fmt.Printf("  last shadow eval: challenger F1 %.3f / AUC %.3f, champion F1 %.3f / AUC %.3f (n=%d)\n",
				sh.Challenger.F1, sh.Challenger.AUC, sh.Champion.F1, sh.Champion.AUC, sh.Holdout)
		}
	}
	if sf.trace {
		fmt.Printf("\n  pipeline stages (virtual seconds):\n")
		fmt.Printf("  %-14s %6s %6s %9s %9s %9s %9s\n",
			"stage", "count", "errors", "mean", "p50", "p95", "p99")
		for _, st := range checker.StageStats() {
			fmt.Printf("  %-14s %6d %6d %9.3f %9.3f %9.3f %9.3f\n",
				st.Stage, st.Count, st.Errors, st.Dur.Mean, st.Dur.P50, st.Dur.P95, st.Dur.P99)
		}
	}
	return nil
}

// serveGateway is the -serve -listen path: expose the vetting service
// over HTTP and block until SIGINT/SIGTERM, then drain gracefully —
// admissions stop (503), in-flight submissions get the drain timeout to
// finish, the persist log flushes, and the listener closes. In
// coordinator mode (-cluster), the gateway also mounts the vet-cluster
// coordinator so remote vetworker nodes do the vetting.
func serveGateway(svc *apichecker.VetService, sf serveFlags) error {
	var gcfg apichecker.GatewayConfig
	if svc.Config().DisableLocalLanes {
		ccfg := apichecker.ClusterCoordinatorConfig{}
		if sf.modelDir != "" {
			reg, err := apichecker.OpenModelRegistry(sf.modelDir)
			if err != nil {
				return err
			}
			ccfg.Registry = reg
		}
		gcfg.Cluster = apichecker.NewClusterCoordinator(svc, ccfg)
		fmt.Println("cluster coordinator on: local lanes off, vetting via remote vetworker nodes")
	}
	gw := apichecker.NewGateway(svc, gcfg)
	serveErr := make(chan error, 1)
	go func() {
		err := gw.ListenAndServe(sf.listen)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		serveErr <- err
	}()
	// Give the listener a beat to bind so the printed address is real.
	for i := 0; i < 100 && gw.Addr() == ""; i++ {
		select {
		case err := <-serveErr:
			return fmt.Errorf("tmarket: gateway listen on %s: %w", sf.listen, err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	fmt.Printf("gateway listening on http://%s (POST /v1/submissions, /metrics, /healthz)\n", gw.Addr())

	drain := sf.drainTimeout
	if drain <= 0 {
		drain = 30 * time.Second
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("received %s; draining (budget %s)\n", s, drain)
	case err := <-serveErr:
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		return fmt.Errorf("tmarket: gateway shutdown: %w", err)
	}
	m := svc.Metrics()
	fmt.Printf("drained: %d completed, %d timeouts, %d drained, %d canceled, %d failed\n",
		m.Completed, m.Timeouts, m.Drained, m.Canceled, m.Failed)
	return <-serveErr
}

// trainChecker trains a fresh serving checker on an initial corpus.
func trainChecker(u *apichecker.Universe, seed int64, initial, vcap int, band triageBand) (*apichecker.Checker, *apichecker.TrainReport, error) {
	training, err := apichecker.NewCorpus(u, initial, seed)
	if err != nil {
		return nil, nil, err
	}
	ccfg := apichecker.DefaultConfig()
	ccfg.VerdictCache = vcap
	if band.Set {
		ccfg.TriageLo, ccfg.TriageHi = band.Lo, band.Hi
	}
	return apichecker.Train(training, ccfg)
}

// fmtBytes renders a byte count with a binary-unit suffix.
func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// shortDigest abbreviates a registry digest for display.
func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

func minKeys(rep *apichecker.YearReport) int {
	v := rep.Months[0].KeyAPIs
	for _, m := range rep.Months {
		if m.KeyAPIs < v {
			v = m.KeyAPIs
		}
	}
	return v
}

func maxKeys(rep *apichecker.YearReport) int {
	v := rep.Months[0].KeyAPIs
	for _, m := range rep.Months {
		if m.KeyAPIs > v {
			v = m.KeyAPIs
		}
	}
	return v
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tmarket:", err)
	os.Exit(1)
}
