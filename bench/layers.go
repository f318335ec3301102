package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"apichecker/internal/adb"
	"apichecker/internal/apk"
	"apichecker/internal/cluster"
	"apichecker/internal/core"
	"apichecker/internal/features"
	"apichecker/internal/lifecycle"
	"apichecker/internal/manifest"
	"apichecker/internal/ml"
	"apichecker/internal/modelstore"
	"apichecker/internal/obs"
	"apichecker/internal/pipeline"
	"apichecker/internal/vcache"
	"apichecker/internal/vetsvc"
	"apichecker/internal/worker"
	"apichecker/internal/workqueue"
)

// The per-layer metrics. Three sources, all outside the program under
// test: counters the deployment keeps, read after the traced phase; probes
// that time calls into one layer's public functions on this goroutine; and
// the ladder, which drives one fixed draw through the stack a layer at a
// time and reads each layer off as the increment over the rung beneath.

// tracedShare is how much of a run's length each of the traced run's two
// phases takes; the probes and the ladder fill the rest.
const tracedShare = 0.3

// tracedRun measures the workload briefly with tracing off, then the same
// again with the span recorder on, and gathers every per-layer metric.
func (b *bed) tracedRun(spansPath string) (map[string]float64, []*phase, error) {
	stages0, cache0 := b.stageRuns(), b.cacheStats()
	secs := tracedShare * b.sz.seconds
	un, err := b.measure(secs)
	if err != nil {
		return nil, nil, err
	}
	if err := b.startTracing(); err != nil {
		return nil, nil, err
	}
	tr, err := b.measure(secs)
	spans := b.stopTracing()
	if err != nil {
		return nil, nil, err
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, b.spec.Name, b.in.seed, spans); err != nil {
			return nil, nil, err
		}
	}
	fmt.Printf("traced phase: %d spans over %d submissions\n", len(spans), tr.attempted)
	printSelfTimes(selfTimes(spans))

	// Throughput at the yardstick's nominal speed, so that the box changing
	// pace between the two phases is not read as the recorder's cost.
	speed := func(ph *phase) float64 {
		kind := aRate
		if b.spec.Loop == "open" {
			kind = aCount // the schedule sets the rate
		}
		return digest(ph.vals["throughput_sps"]).atNominal(kind, digest(ph.yard).Median).Median
	}
	v := map[string]float64{
		"bench.trace_overhead_share": 1 - speed(tr)/speed(un),
		"bench.spans":                float64(len(spans)),
		"bench.failed_share":         float64(un.failed+tr.failed) / float64(un.attempted+tr.attempted),
		"bench.verdict_mismatch":     float64(un.mismatch + tr.mismatch),
		"bench.pacer_late_p95_ms":    percentile(un.sendLate, 0.95),
		"core.tier1_share":           float64(un.tier1) / float64(un.attempted),
		"core.virtual_scan_mean_s":   un.virtualScanMean(),
		"gateway.retries_429":        float64(un.retries + tr.retries),
		"ml.train_s":                 b.trainS,
		"bench.yardstick_ms":         digest(append(un.yard, tr.yard...)).Median,
	}
	v["bench.latency_p90_ms"] = percentile(un.lat, 0.90)
	if p, ok := tailPercentile(len(un.lat)); ok {
		v["bench.latency_tail_ms"] = percentile(un.lat, p)
	} else {
		v["bench.latency_tail_ms"] = percentile(un.lat, 1)
	}
	b.deploymentCounters(v, stages0, cache0)
	if err := b.probeLayers(v); err != nil {
		return nil, nil, fmt.Errorf("layer probes: %w", err)
	}
	if err := b.ladder(v); err != nil {
		return nil, nil, fmt.Errorf("ladder: %w", err)
	}
	// On the open loop the scrape that matters is the one the run paid for.
	if sc := append(un.scrapes, tr.scrapes...); len(sc) > 0 {
		var ms, bytes []float64
		for _, s := range sc {
			ms, bytes = append(ms, s.ms), append(bytes, float64(s.bytes))
		}
		v["gateway.scrape_ms"], v["gateway.scrape_bytes"] = digest(ms).Median, digest(bytes).Median
	}
	return v, []*phase{un, tr}, nil
}

// stageRuns sums, over the checkers that vet, how many times each pipeline
// stage has run.
func (b *bed) stageRuns() map[string]float64 {
	runs := map[string]float64{}
	for _, ck := range b.servingCheckers() {
		for _, st := range ck.StageStats() {
			runs[st.Stage] += float64(st.Count)
		}
	}
	return runs
}

// cacheStats sums the verdict-cache counters of the checkers that vet.
func (b *bed) cacheStats() vcache.Stats {
	var sum vcache.Stats
	for _, ck := range b.servingCheckers() {
		st := ck.CacheStats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Coalesced += st.Coalesced
		sum.LiveBytes += st.LiveBytes
	}
	return sum
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// deploymentCounters reads what the deployment counted over the two
// phases: stage runs and cache outcomes as deltas against the snapshots
// taken before them, the rest as the deployment's running totals.
func (b *bed) deploymentCounters(v map[string]float64, stages0 map[string]float64, cache0 vcache.Stats) {
	stages := b.stageRuns()
	for _, st := range stageNames {
		v["core.stage_runs."+st] = stages[st] - stages0[st]
	}
	cache := b.cacheStats()
	hits, misses, coalesced := float64(cache.Hits-cache0.Hits), float64(cache.Misses-cache0.Misses), float64(cache.Coalesced-cache0.Coalesced)
	v["vcache.hit_share"] = share(hits, hits+misses+coalesced)
	v["vcache.coalesced_share"] = share(coalesced, hits+misses+coalesced)
	v["vcache.live_bytes"] = float64(cache.LiveBytes)

	var runs, crashed, fellBack float64
	for _, ck := range b.servingCheckers() {
		c := ck.Obs().Counters()
		runs += float64(c["emu.runs"])
		crashed += float64(c["emu.crashed_submissions"])
		fellBack += float64(c["emu.fallbacks"])
	}
	v["emulator.crash_share"] = share(crashed, runs)
	v["emulator.fallback_share"] = share(fellBack, runs)

	qs := b.svc.QueueStats()
	v["workqueue.reclaimed"] = float64(qs.Reclaimed)
	v["workqueue.dead_lettered"] = float64(qs.DeadLettered)
	m := b.svc.Metrics()
	v["vetsvc.rejected"] = float64(m.Rejected)
	v["vetsvc.lease_age_p95_ms"] = m.LeaseAge.P95 * 1e3

	t0 := time.Now()
	b.servingCheckers()[0].StageStats()
	v["obs.stage_stats_ms"] = time.Since(t0).Seconds() * 1e3
	if b.nodes != nil {
		clusterCounters(v, b.svc, b.nodes)
	}
}

// clusterCounters reads the claim protocol's bookkeeping: claims issued
// per verdict recorded (1 when no claim was wasted), and the share of
// verdicts a node answered from its cache (digest affinity at work).
func clusterCounters(v map[string]float64, svc *vetsvc.Service, nodes []*cluster.Worker) {
	var claims, verdicts, lost, pulls float64
	for _, n := range nodes {
		st := n.Stats()
		claims += float64(st.Claims)
		verdicts += float64(st.Verdicts)
		lost += float64(st.LeaseLost)
		pulls += float64(st.ModelPulls)
	}
	m := svc.Metrics()
	v["cluster.claims_per_verdict"] = share(claims, verdicts)
	v["cluster.cache_served_share"] = share(float64(m.CacheHits+m.CacheCoalesced), float64(m.Completed))
	v["cluster.lease_lost"] = lost
	v["cluster.model_pulls"] = pulls
}

// timeOps calls fn(0..n-1) on this goroutine and returns the microseconds
// and heap allocations of one call. The calls are timed in five equal
// stretches and the median stretch's mean is reported, so one collection
// or one descheduling does not move the figure.
func timeOps(n int, fn func(i int) error) (us, allocs float64, err error) {
	const stretches = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var means []float64
	for s, i := 1, 0; s <= stretches; s++ {
		start, end := i, n*s/stretches
		if end == start {
			continue
		}
		t0 := time.Now()
		for ; i < end; i++ {
			if err := fn(i); err != nil {
				return 0, 0, err
			}
		}
		means = append(means, time.Since(t0).Seconds()*1e6/float64(end-start))
	}
	runtime.ReadMemStats(&m1)
	return digest(means).Median, float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// probeLayers times each layer's public calls over the first probeOps
// archives of P, on parts taken from the bed's checker. Calls that take
// well under a microsecond are repeated tiny times over so the clock's
// own cost does not show.
func (b *bed) probeLayers(v map[string]float64) error {
	const tiny = 25
	ctx := context.Background()
	n := min(b.sz.probeOps, len(b.in.payloads))
	raws := b.in.payloads[:n]
	dir, err := os.MkdirTemp(b.dir, "probe-")
	if err != nil {
		return err
	}
	parts := b.ck.Parts()
	kit, err := newReplayKit(b.ck)
	if err != nil {
		return err
	}
	var firstErr error
	probe := func(name string, ops int, fn func(i int) error) (allocs float64) {
		us, allocs, err := timeOps(ops, fn)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", name, err)
		}
		v[name] = us
		return allocs
	}

	// apk
	var total int
	for _, raw := range b.in.payloads {
		total += len(raw)
	}
	v["apk.bytes_per_archive"] = float64(total) / float64(len(b.in.payloads))
	digs := make([]string, n)
	probe("apk.digest_us", n, func(i int) error { digs[i] = apk.Digest(raws[i]); return nil })
	parsed := make([]*apk.APK, n)
	v["apk.parse_allocs"] = probe("apk.parse_us", n, func(i int) (err error) { parsed[i], err = apk.Parse(raws[i]); return err })
	mans := make([]*manifest.Manifest, n)
	probe("apk.parse_manifest_us", n, func(i int) (err error) { mans[i], err = apk.ParseManifestOnly(raws[i]); return err })

	// adb, emulator
	vrs := make([]*adb.VetResult, n)
	probe("adb.session_vet_us", n, func(i int) (err error) {
		vrs[i], err = kit.session.VetParsedContext(ctx, parsed[i], kit.deps.MonkeyFor(digs[i], 0))
		return err
	})
	probe("emulator.run_us", n, func(i int) error {
		_, err := kit.emu.RunContext(ctx, parsed[i].Program, kit.deps.MonkeyFor(digs[i], 0))
		return err
	})
	if firstErr != nil {
		return firstErr
	}
	var virtual time.Duration
	for _, vr := range vrs {
		virtual += vr.Run.VirtualTime
	}
	v["emulator.virtual_s"] = virtual.Seconds() / float64(n)

	// features, ml
	vecs := make([]ml.Vector, n)
	probe("features.vector_us", n, func(i int) (err error) {
		vecs[i], err = kit.ex.VectorInto(vrs[i].Run.Log, parsed[i].Manifest, nil)
		return err
	})
	tex, err := features.NewTriageExtractor(parts.Universe)
	if err != nil {
		return err
	}
	tvecs := make([]ml.Vector, n)
	probe("features.manifest_vector_us", n, func(i int) (err error) {
		tvecs[i], err = tex.ManifestVectorInto(mans[i], nil)
		return err
	})
	var sink float64
	probe("ml.score_us", n*tiny, func(i int) error { sink += kit.model.Score(vecs[i%n]); return nil })
	probe("ml.triage_score_us", n*tiny, func(i int) error { sink += parts.Triage.Prob(tvecs[i%n]); return nil })
	block := make([]ml.Vector, 512)
	for i := range block {
		block[i] = vecs[i%n]
	}
	out := make([]float64, len(block))
	probe("ml.score_batch_us_per_row", tiny, func(int) error { kit.model.ScoreBatch(block, out); return nil })
	v["ml.score_batch_us_per_row"] /= float64(len(block))

	// core: a checker of its own over the same parts, so the bed's caches
	// and counters are left alone.
	ck, err := core.NewFromParts(parts, b.in.checkerConfig(false))
	if err != nil {
		return err
	}
	vet := func(ck *core.Checker, i int) (*core.Verdict, error) {
		return ck.Vet(ctx, core.Submission{Raw: raws[i]})
	}
	var verdict *core.Verdict
	v["core.vet_miss_allocs"] = probe("core.vet_miss_us", n, func(i int) (err error) { verdict, err = vet(ck, i); return err })
	v["core.vet_hit_allocs"] = probe("core.vet_hit_us", n*tiny, func(i int) error { _, err := vet(ck, i%n); return err })
	v["core.self_us"] = v["core.vet_miss_us"] - v["apk.parse_us"] - v["adb.session_vet_us"] - v["features.vector_us"] - v["ml.score_us"]
	bandCk, err := core.NewFromParts(parts, b.in.checkerConfig(true))
	if err != nil {
		return err
	}
	var tier1 int
	var tier1Time time.Duration
	for i := range raws {
		t0 := time.Now()
		tv, err := vet(bandCk, i)
		if err != nil {
			return fmt.Errorf("core.vet_tier1_us: %w", err)
		}
		if tv.Tier == 1 {
			tier1++
			tier1Time += time.Since(t0)
		}
	}
	v["core.vet_tier1_us"] = share(tier1Time.Seconds()*1e6, float64(tier1))

	// vcache, on an entry of the size the pipeline stores
	entry := pipeline.EncodeEntry(verdict, vecs[n-1])
	cache := vcache.New[[]byte](0)
	do := func(i int) error {
		_, _, err := cache.Do(ctx, digs[i%n], func() ([]byte, error) { return entry, nil })
		return err
	}
	probe("vcache.miss_store_us", n, do)
	probe("vcache.hit_us", n*tiny, do)
	persistDir := filepath.Join(dir, "persist")
	plog, _, _, err := vcache.OpenPersist(persistDir, "bench", 1, func(string, []byte) {})
	if err != nil {
		return err
	}
	probe("vcache.persist_append_us", n, func(i int) error { return plog.AppendCurrent(digs[i], entry, 1) })
	if err := plog.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	plog, restored, _, err := vcache.OpenPersist(persistDir, "bench", 1, func(string, []byte) {})
	if err != nil {
		return err
	}
	v["vcache.replay_us_per_entry"] = share(time.Since(t0).Seconds()*1e6, float64(restored))
	plog.Close() //nolint:errcheck // nothing was appended

	// workqueue, worker
	if err := probeQueue(v, probe, dir, raws, digs); err != nil {
		return err
	}

	// vetsvc and gateway, serving hits from the probe checker's warm cache
	rig := &bed{spec: workloadNamed("dup_http"), in: b.in, sz: b.sz, dir: dir, ck: ck}
	if err := rig.startGateway(false, false); err != nil {
		return err
	}
	c := newClient(rig, 0)
	probe("vetsvc.submit_wait_hit_us", n*tiny, func(i int) error {
		t, err := rig.svc.SubmitWait(ctx, core.Submission{Raw: raws[i%n]})
		if err != nil {
			return err
		}
		_, err = t.Wait(ctx)
		return err
	})
	v["vetsvc.self_us"] = v["vetsvc.submit_wait_hit_us"] - v["core.vet_hit_us"]
	v["gateway.post_allocs"] = probe("gateway.post_hit_us", n*tiny, func(i int) error {
		_, err := c.post(int32(i%n), spanRef{})
		return err
	})
	v["gateway.self_us"] = v["gateway.post_hit_us"] - v["vetsvc.submit_wait_hit_us"]
	c.close()
	shut, cancel := context.WithTimeout(ctx, 30*time.Second)
	rig.gw.Shutdown(shut) //nolint:errcheck // teardown
	cancel()

	// modelstore, lifecycle
	art, err := modelstore.Snapshot(ck)
	if err != nil {
		return err
	}
	var data []byte
	probe("modelstore.encode_ms", 1, func(int) (err error) { data, err = art.Encode(); return err })
	probe("modelstore.decode_ms", 1, func(int) error { _, err := modelstore.Decode(data); return err })
	v["modelstore.artifact_bytes"] = float64(len(data))
	reg, err := modelstore.Open(filepath.Join(dir, "registry"))
	if err != nil {
		return err
	}
	if _, err := lifecycle.NewManager(ck, reg, lifecycle.DefaultGateConfig()).Snapshot("bench"); err != nil {
		return err
	}
	probe("lifecycle.coldstart_ms", 1, func(int) error { _, _, err := lifecycle.ColdStart(reg); return err })
	probe("lifecycle.swap_ms", 1, func(int) error { _, err := ck.SwapModel(ck.Parts()); return err })
	for _, name := range []string{"modelstore.encode_ms", "modelstore.decode_ms", "lifecycle.coldstart_ms", "lifecycle.swap_ms"} {
		v[name] /= 1e3
	}

	// obs
	const obsOps = 100000
	dist := obs.NewCollector().Distribution("bench")
	probe("obs.observe_ns", obsOps, func(i int) error { dist.Observe(float64(i)); return nil })
	col := obs.NewCollector()
	probe("obs.emit_ns", obsOps, func(int) error {
		col.Emit(obs.Event{Kind: obs.KindSpan, Name: "decode", Dur: time.Second})
		return nil
	})
	v["obs.observe_ns"] *= 1e3
	v["obs.emit_ns"] *= 1e3
	_ = sink
	return firstErr
}

// probeQueue times the work queue in memory and journaled, the journal's
// size and replay, and the claiming worker's loop over a no-op.
func probeQueue(v map[string]float64, probe func(string, int, func(int) error) float64, dir string, raws [][]byte, digs []string) error {
	ctx := context.Background()
	n := len(raws)
	enqueue := func(q *workqueue.Queue) func(i int) error {
		return func(i int) error {
			if err := q.Acquire(ctx); err != nil {
				return err
			}
			_, err := q.Enqueue(workqueue.Item{Key: digs[i%n], Payload: raws[i%n]})
			return err
		}
	}
	claimAck := func(q *workqueue.Queue) func(int) error {
		return func(int) error {
			l, err := q.Claim(ctx)
			if err != nil {
				return err
			}
			return l.Ack()
		}
	}
	mem, _, err := workqueue.Open(workqueue.Config{Capacity: n})
	if err != nil {
		return err
	}
	probe("workqueue.enqueue_us", n, enqueue(mem))
	probe("workqueue.claim_ack_us", n, claimAck(mem))
	mem.Close() //nolint:errcheck // no journal

	jdir := filepath.Join(dir, "journal")
	jq, _, err := workqueue.Open(workqueue.Config{Capacity: n, Dir: jdir})
	if err != nil {
		return err
	}
	probe("workqueue.enqueue_journal_us", n, enqueue(jq))
	var size int64
	entries, err := os.ReadDir(jdir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			size += fi.Size()
		}
	}
	v["workqueue.journal_bytes_per_item"] = float64(size) / float64(n)
	if err := jq.Close(); err != nil {
		return err
	}

	// Replay: a journal left with unsettled items, the way a kill leaves it.
	unsettled := min(2000, 10*n)
	rdir := filepath.Join(dir, "replay")
	left, _, err := workqueue.Open(workqueue.Config{Capacity: unsettled, Dir: rdir})
	if err != nil {
		return err
	}
	for i := 0; i < unsettled; i++ {
		if err := enqueue(left)(i); err != nil {
			return err
		}
	}
	if err := left.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	again, replayed, err := workqueue.Open(workqueue.Config{Capacity: unsettled, Dir: rdir})
	if err != nil {
		return err
	}
	v["workqueue.replay_us_per_item"] = share(time.Since(t0).Seconds()*1e6, float64(len(replayed)))
	again.Close() //nolint:errcheck // teardown

	// worker: one lane claiming, running a no-op and acking.
	wq, _, err := workqueue.Open(workqueue.Config{Capacity: n})
	if err != nil {
		return err
	}
	pool := worker.Start(wq, worker.Config{Lanes: 1, Do: func(context.Context, *workqueue.Lease) {}})
	ops := 10 * n
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		if err := wq.Acquire(ctx); err != nil {
			return err
		}
		if _, err := wq.Enqueue(workqueue.Item{Mem: i}); err != nil {
			return err
		}
	}
	wq.Shutdown()
	pool.Wait()
	v["worker.claim_loop_us"] = time.Since(t0).Seconds() * 1e6 / float64(ops)
	return wq.Close()
}

// ladder drives the first dupDraws draws of the dup_http sequence, one
// client, through five rungs, each the one beneath plus one layer: a serial
// core.Vet loop, vetsvc in memory, vetsvc with the journal, the loopback
// gateway over that, and the same gateway with the lanes moved out to worker
// nodes behind the claim wire. Every rung is warmed by one untimed pass over
// the distinct archives of the draw. A layer's cost is its rung's increment
// over the rung beneath, in microseconds and in allocations per submission.
// A sixth run, off the ladder, drives the draw through the cluster
// workload's own deployment — the coordinator without a gateway or journal
// in front — for cluster.sub_us, cluster.sub_allocs and cluster.self_us.
func (b *bed) ladder(v map[string]float64) error {
	draws := zipfDraws(b.in.seed, len(b.in.payloads), b.sz.dupDraws)
	dir, err := os.MkdirTemp(b.dir, "ladder-")
	if err != nil {
		return err
	}
	parts := b.ck.Parts()

	// Rung 1 is the reference the other rungs' verdicts are checked against.
	ck, err := core.NewFromParts(parts, b.in.checkerConfig(false))
	if err != nil {
		return err
	}
	ref := make([]core.Verdict, len(b.in.payloads))
	serial := func() error {
		for _, i := range draws {
			got, err := ck.Vet(context.Background(), core.Submission{Raw: b.in.payloads[i]})
			if err != nil {
				return err
			}
			ref[i] = *got
		}
		return nil
	}
	if err := serial(); err != nil {
		return err
	}
	type rung struct {
		layer              string
		us, allocs, kbytes float64
	}
	timed := func(layer string, run func() error) (rung, error) {
		u0, t0 := readUsage(), time.Now()
		err := run()
		wall, u1 := time.Since(t0), readUsage()
		n := float64(len(draws))
		return rung{layer, wall.Seconds() * 1e6 / n, float64(u1.mallocs-u0.mallocs) / n, float64(u1.bytes-u0.bytes) / n / 1024}, err
	}
	first, err := timed("core", serial)
	if err != nil {
		return err
	}
	rungs := []rung{first}

	for _, step := range []struct {
		layer string
		kind  deployKind
	}{{"vetsvc", inProcess}, {"workqueue", journaled}, {"gateway", overHTTP}, {"cluster", clusterHTTP}, {"coordinator", overCluster}} {
		rdir, err := os.MkdirTemp(dir, step.layer+"-")
		if err != nil {
			return err
		}
		rig := &bed{spec: workloadNamed("dup_http"), in: b.in, sz: b.sz, dir: rdir, ck: ck, ref: ref}
		if step.kind == clusterHTTP || step.kind == overCluster {
			// The coordinator never vets; its nodes build their own checkers,
			// and their caches start cold.
			if rig.ck, err = core.NewFromParts(parts, b.in.checkerConfig(false)); err != nil {
				return err
			}
		}
		if err := rig.start(step.kind, 1); err != nil {
			rig.close()
			return err
		}
		rig.runPass(distinct(draws), 0) // warm: connections, pools, node caches
		rig.takeStats()
		r, _ := timed(step.layer, func() error { rig.runPass(draws, 0); return nil })
		st := rig.takeStats()
		if step.kind == overHTTP {
			gw := rig.gw.Obs().Counters()
			joined := float64(gw["gw.submissions.joined"])
			v["gateway.joined_share"] = share(joined, joined+float64(gw["gw.submissions.accepted"]))
			v["gateway.retries_429"] += float64(st.retries)
			sc, err := rig.clients[0].scrapeMetrics()
			if err != nil {
				rig.close()
				return err
			}
			v["gateway.scrape_ms"], v["gateway.scrape_bytes"] = sc.ms, float64(sc.bytes)
		}
		if step.kind == overCluster && b.nodes == nil {
			clusterCounters(v, rig.svc, rig.nodes)
		}
		rig.close()
		if st.failed > 0 || st.mismatch > 0 {
			return fmt.Errorf("%s rung: %d failed, %d verdicts differ from the serial loop: %v", step.layer, st.failed, st.mismatch, st.firstErr)
		}
		rungs = append(rungs, r)
	}

	fmt.Printf("ladder: %d Zipf(1.1) draws, one client, caches warm\n", len(draws))
	fmt.Printf("  %-10s %10s %10s %10s %12s\n", "rung", "us/sub", "allocs/sub", "KiB/sub", "layer_us")
	var below rung
	for _, r := range rungs[:5] {
		v[r.layer+".rung_us"] = r.us - below.us
		v[r.layer+".rung_allocs"] = r.allocs - below.allocs
		fmt.Printf("  %-10s %10.2f %10.1f %10.2f %12.2f\n", r.layer, r.us, r.allocs, r.kbytes, r.us-below.us)
		below = r
	}
	direct := rungs[5]
	fmt.Printf("  off the ladder, the coordinator alone: %.2f us/sub, %.1f allocs/sub, %.2f KiB/sub\n", direct.us, direct.allocs, direct.kbytes)
	v["cluster.sub_us"] = direct.us
	v["cluster.sub_allocs"] = direct.allocs
	v["cluster.self_us"] = direct.us - rungs[1].us
	return nil
}
