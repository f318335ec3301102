package main

import (
	"encoding/json"
	"strings"
)

// This file is the benchmark's declaration: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics with the
// end-to-end movement each one predicts. BENCHMARK.json at the repository
// root is generated from these tables (-manifest) and a test keeps the two
// in step; every later performance change refers to these names.

// runSeconds is how long one run measures when the driver does not say.
const runSeconds = 10

// pacedRate is the open-loop schedule of paced_http, submissions a second:
// about a fifth of what the same deployment sustains on dup_http's closed
// loop on two cores, so the queue never grows and latency, not capacity, is
// what the workload reads. The issue sized it at 4000; on a slow stretch of
// the shared box that came within reach of the deployment's capacity and
// the median latency of ten runs spread past a fifth.
const pacedRate = 2000

// deployKind is how the program under test is started for a workload or a
// ladder rung.
type deployKind string

const (
	inProcess   deployKind = "vetsvc"          // in-process service, memory queue
	journaled   deployKind = "vetsvc+journal"  // the same with the intake journal on
	overHTTP    deployKind = "gateway"         // loopback gateway over a journaled service
	overCluster deployKind = "cluster"         // coordinator + worker nodes over loopback HTTP
	clusterHTTP deployKind = "gateway+cluster" // overHTTP with the lanes moved out to worker nodes
)

type workloadSpec struct {
	Name    string
	Deploy  deployKind
	Band    bool    // triage band [0.05, 0.95] on
	Persist bool    // file-backed tier under the verdict cache
	Loop    string  // closed | open
	Load    string  // clients or rate
	Size    string  // what one pass or schedule holds
	Chunk   int     // submissions between two yardstick readings: a quarter to half a second's worth
	LimitMS float64 // latency limit: a slower or failed answer is late
	Why     string
}

var workloads = []workloadSpec{
	{"fresh", inProcess, false, true, "closed", "nproc clients, in-process vetsvc", "every archive of P once a pass, all cache misses", 2000, 10,
		"Unique raw archives: decode, emulate, extract and infer do the work and vcache is used on its write side; gateway, journal and cluster do nothing."},
	{"dup_http", overHTTP, false, false, "closed", "nproc keep-alive connections to a loopback gateway, journal on", "Zipf(1.1) draws over a pre-warmed P, all cache hits", 5000, 20,
		"Every submission is a cache hit over HTTP: gateway, workqueue journal, vetsvc records and the vcache read side do the work; pipeline stages run zero times."},
	{"triage", inProcess, true, false, "closed", "nproc clients, in-process vetsvc, band [0.05, 0.95]", "every archive of P once a pass", 4000, 10,
		"Manifest-only parse and the linear model answer most submissions at tier 1, so apk is used differently from fresh and the emulator runs for the in-band few."},
	{"cluster", overCluster, false, false, "closed", "nproc clients, coordinator + nproc one-lane worker nodes over loopback HTTP", "every archive of P twice a pass, shuffled in blocks of 500 archives", 1000, 50,
		"The claim wire (JSON + base64 payload, long-poll, ack, first-wins record) dominates; digest affinity decides whether the duplicate half hits a node cache."},
	{"paced_http", overHTTP, false, false, "open", "2000 submissions/s over nproc connections, one /metrics scrape a second", "the dup_http draw on a fixed schedule", pacedRate / 4, 20,
		"Latency at a non-saturating rate, timed from when each submission was due, while obs is scraped: a change that batches for throughput pays here."},
}

func workloadNamed(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// Speed says how the metric moves with the speed of the box, and so how
	// it is brought to the yardstick's nominal speed (yardstick.go): a time
	// is divided by the slow-down, a rate multiplied, a count left alone.
	Speed speedKind `json:"-"`
}

type speedKind int

const (
	aCount speedKind = iota
	aTime
	aRate
)

// endToEnd is what a user of the serving stack sees, with the share of the
// parent's median by which each may worsen before a change is a regression.
// The same names are reported on every workload.
var endToEnd = []e2eSpec{
	{"setup_s", "s", "lower", 0.25, aTime},
	{"throughput_sps", "1/s", "higher", 0.25, aRate},
	{"latency_p50_ms", "ms", "lower", 0.25, aTime},
	{"ontime_share", "share", "higher", 0.01, aCount},
	{"cpu_us_per_sub", "us", "lower", 0.25, aTime},
	{"allocs_per_sub", "count", "lower", 0.15, aCount},
	{"alloc_bytes_per_sub", "B", "lower", 0.15, aCount},
	{"heap_live_mb", "MB", "lower", 0.10, aCount},
}

type layerSpec struct {
	Name   string
	Unit   string
	Better string
	Moves  string // the end-to-end metric and workload this should move
}

// stageNames are the pipeline stages core.stage_runs.<stage> is reported
// for, in chain order.
var stageNames = []string{"admit", "cache.lookup", "triage", "decode", "emulate", "extract", "infer"}

// perLayer is measured in the traced run, from the benchmark's own files,
// around calls into each layer's public functions.
var perLayer = buildPerLayer()

func buildPerLayer() []layerSpec {
	const (
		onFresh  = "throughput_sps, cpu_us_per_sub on fresh; none on dup_http, paced_http"
		onTriage = "throughput_sps on triage"
		onHTTP   = "throughput_sps on dup_http, latency_p50_ms on paced_http; none in-process"
		onQueue  = "throughput_sps on dup_http, paced_http, cluster; none on fresh, triage"
		onClu    = "throughput_sps, latency_p50_ms on cluster only"
		onSetup  = "setup_s, and the untimed gap between passes"
		onAll    = "every workload; largest share on dup_http"
	)
	l := []layerSpec{
		{"apk.parse_us", "us", "lower", onFresh},
		{"apk.parse_allocs", "count", "lower", "allocs_per_sub on fresh"},
		{"apk.digest_us", "us", "lower", "every workload, a few percent"},
		{"apk.bytes_per_archive", "B", "lower", "input size; constant for a seed"},
		{"apk.parse_manifest_us", "us", "lower", onTriage},
		{"adb.session_vet_us", "us", "lower", onFresh + "; near none on triage"},
		{"emulator.run_us", "us", "lower", onFresh + "; near none on triage"},
		{"emulator.virtual_s", "s", "lower", "core.virtual_scan_mean_s"},
		{"emulator.crash_share", "share", "lower", "fresh, cluster"},
		{"emulator.fallback_share", "share", "lower", "fresh, cluster"},
		{"features.vector_us", "us", "lower", onFresh},
		{"features.manifest_vector_us", "us", "lower", onTriage},
		{"ml.score_us", "us", "lower", onFresh},
		{"ml.score_batch_us_per_row", "us", "lower", "fresh under concurrent lanes"},
		{"ml.triage_score_us", "us", "lower", onTriage},
		{"ml.train_s", "s", "lower", "setup_s"},
		{"core.vet_miss_us", "us", "lower", onFresh},
		{"core.vet_hit_us", "us", "lower", onHTTP},
		{"core.vet_tier1_us", "us", "lower", onTriage},
		{"core.vet_miss_allocs", "count", "lower", "allocs_per_sub on fresh"},
		{"core.vet_hit_allocs", "count", "lower", "allocs_per_sub on dup_http"},
		{"core.self_us", "us", "lower", onFresh},
		{"core.tier1_share", "share", "higher", "above 0.5 on triage, 0 elsewhere"},
		{"core.virtual_scan_mean_s", "s", "lower", "the paper's per-app scan cost; exact for a seed, must not drift"},
	}
	for _, st := range stageNames {
		l = append(l, layerSpec{"core.stage_runs." + st, "count", "lower",
			"0 for decode, emulate, extract, infer on dup_http and paced_http"})
	}
	return append(l, []layerSpec{
		{"vcache.hit_us", "us", "lower", onHTTP},
		{"vcache.miss_store_us", "us", "lower", onFresh},
		{"vcache.persist_append_us", "us", "lower", onFresh},
		{"vcache.replay_us_per_entry", "us", "lower", "restart cost; no workload"},
		{"vcache.hit_share", "share", "higher", "0 on fresh, 1 on dup_http and paced_http"},
		{"vcache.coalesced_share", "share", "higher", "cluster's duplicate half"},
		{"vcache.live_bytes", "B", "lower", "heap_live_mb"},
		{"workqueue.enqueue_us", "us", "lower", "every workload"},
		{"workqueue.enqueue_journal_us", "us", "lower", onQueue},
		{"workqueue.claim_ack_us", "us", "lower", "every workload"},
		{"workqueue.journal_bytes_per_item", "B", "lower", onQueue},
		{"workqueue.replay_us_per_item", "us", "lower", "restart cost; no workload"},
		{"workqueue.reclaimed", "count", "lower", "0 everywhere: no lease expires"},
		{"workqueue.dead_lettered", "count", "lower", "0 everywhere"},
		{"worker.claim_loop_us", "us", "lower", "every workload but cluster"},
		{"vetsvc.submit_wait_hit_us", "us", "lower", onAll},
		{"vetsvc.self_us", "us", "lower", onAll},
		{"vetsvc.rejected", "count", "lower", "0: clients wait for queue space"},
		{"vetsvc.lease_age_p95_ms", "ms", "lower", "bench.latency_p90_ms on every workload"},
		{"gateway.post_hit_us", "us", "lower", onHTTP},
		{"gateway.self_us", "us", "lower", onHTTP},
		{"gateway.post_allocs", "count", "lower", "allocs_per_sub on dup_http"},
		{"gateway.retries_429", "count", "lower", "0: in-flight never exceeds the queue"},
		{"gateway.joined_share", "share", "lower", "share of posts answered from the record registry, not the service"},
		{"gateway.scrape_ms", "ms", "lower", "bench.latency_p90_ms on paced_http"},
		{"gateway.scrape_bytes", "B", "lower", "none"},
		{"cluster.sub_us", "us", "lower", onClu},
		{"cluster.self_us", "us", "lower", onClu},
		{"cluster.sub_allocs", "count", "lower", "allocs_per_sub on cluster"},
		{"cluster.claims_per_verdict", "ratio", "lower", "wasted claims; 1 when none"},
		{"cluster.cache_served_share", "share", "higher", "affinity at work: cpu_us_per_sub on cluster"},
		{"cluster.lease_lost", "count", "lower", "0"},
		{"cluster.model_pulls", "count", "lower", "setup_s on cluster: one per node"},
		{"modelstore.encode_ms", "ms", "lower", onSetup},
		{"modelstore.decode_ms", "ms", "lower", onSetup},
		{"modelstore.artifact_bytes", "B", "lower", onSetup},
		{"lifecycle.coldstart_ms", "ms", "lower", onSetup},
		{"lifecycle.swap_ms", "ms", "lower", onSetup},
		{"obs.observe_ns", "ns", "lower", "every workload, under a percent"},
		{"obs.emit_ns", "ns", "lower", "every workload, under a percent"},
		{"obs.stage_stats_ms", "ms", "lower", "heap_live_mb on dup_http; gateway.scrape_ms and bench.latency_p90_ms on paced_http"},
		{"bench.pacer_late_p95_ms", "ms", "lower", "how late the open-loop generator sent; 0 on closed loops"},
		{"bench.trace_overhead_share", "share", "lower", "throughput lost to the span recorder and the layer replay"},
		{"bench.spans", "count", "lower", "none"},
		{"bench.yardstick_ms", "ms", "lower", "the box's speed during the run: scale this run's per-layer times by 11.8/this to compare with another's"},
		{"bench.failed_share", "share", "lower", "must be 0"},
		{"bench.verdict_mismatch", "count", "lower", "must be 0"},
		{"bench.latency_p90_ms", "ms", "lower", "the tail a batching change pays with on paced_http; too unsteady on a shared box to carry a bound"},
		{"bench.latency_tail_ms", "ms", "lower", "highest percentile with ten samples beyond it, for information"},
		{"core.rung_us", "us", "lower", "serial cache-hit core.Vet"},
		{"vetsvc.rung_us", "us", "lower", "what vetsvc in memory adds"},
		{"workqueue.rung_us", "us", "lower", "what the journal adds"},
		{"gateway.rung_us", "us", "lower", "what loopback HTTP adds"},
		{"cluster.rung_us", "us", "lower", "what the claim wire adds over the gateway rung; the largest"},
		{"core.rung_allocs", "count", "lower", "allocs_per_sub everywhere"},
		{"vetsvc.rung_allocs", "count", "lower", "allocs_per_sub everywhere"},
		{"workqueue.rung_allocs", "count", "lower", "allocs_per_sub on dup_http, paced_http"},
		{"gateway.rung_allocs", "count", "lower", "allocs_per_sub on dup_http, paced_http"},
		{"cluster.rung_allocs", "count", "lower", "allocs_per_sub on cluster"},
	}...)
}

// manifestJSON renders BENCHMARK.json in the shape the driver's contract
// gives: nothing but the command, the paths, the run length and the three
// name tables.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []wl      `json:"workloads"`
		EndToEnd   []e2eSpec `json:"end_to_end"`
		PerLayer   []pl      `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, l := range perLayer {
		m.PerLayer = append(m.PerLayer, pl{l.Name, l.Unit, l.Better})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return []byte(b.String())
}
