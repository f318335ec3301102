package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is generated from the tables in spec.go; a table edited
// without regenerating it (go run . -manifest ../BENCHMARK.json) fails here.
func TestManifestInStep(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(manifestJSON()) {
		t.Fatal("BENCHMARK.json differs from the tables in spec.go; regenerate it with: go run . -manifest ../BENCHMARK.json")
	}
}

// The limits the driver refuses a BENCHMARK.json for.
func TestManifestWithinContract(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if len(manifestJSON()) > 64<<10 {
		t.Error("BENCHMARK.json is over 64 KiB")
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not 1 to 64 of [A-Za-z0-9_.-] starting with a letter or digit", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		name("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want within (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, l := range perLayer {
		name("per-layer", l.Name)
		if !unitRE.MatchString(l.Unit) {
			t.Errorf("%s: unit %q", l.Name, l.Unit)
		}
		if l.Better != "lower" && l.Better != "higher" {
			t.Errorf("%s: better %q", l.Name, l.Better)
		}
	}
}

// driverMetrics parses the driver's last line and returns its metrics.
func driverMetrics(t *testing.T, r *result) map[string]float64 {
	t.Helper()
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(driverLine(r)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("driver line: %v", err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
		t.Fatal("driver line lacks correct, attempted or failed")
	}
	if !*line.Correct || *line.Attempted < 1 || *line.Failed != 0 {
		t.Errorf("driver line: correct %v, attempted %d, failed %d", *line.Correct, *line.Attempted, *line.Failed)
	}
	out := map[string]float64{}
	for name, m := range line.Metrics {
		if m.Value == nil || m.Unit != unitOf(name) {
			t.Errorf("%s: value %v, unit %q, want unit %q", name, m.Value, m.Unit, unitOf(name))
			continue
		}
		out[name] = *m.Value
	}
	return out
}

// TestSmoke runs every workload, untraced and traced, at -smoke sizes: the
// harness must emit exactly the declared names, finite, with no failed
// submission and no verdict differing from the serial reference, and the
// workloads must separate the layers the way their why-sentences say.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five deployments")
	}
	root := t.TempDir()
	for i := range workloads {
		spec := &workloads[i]
		t.Run(spec.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(spec, 1, smokeSizes, traced, root, "")
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Mismatch != 0 || !res.Correct {
					t.Errorf("traced %v: %d failed, %d verdict mismatches of %d", traced, res.Failed, res.Mismatch, res.Attempted)
				}
				var want []string
				if traced {
					for _, l := range perLayer {
						want = append(want, l.Name)
					}
				} else {
					for _, m := range endToEnd {
						want = append(want, m.Name)
					}
				}
				got := driverMetrics(t, res)
				if len(got) != len(want) {
					t.Errorf("traced %v: %d metrics emitted, %d declared", traced, len(got), len(want))
				}
				for _, name := range want {
					v, ok := got[name]
					if !ok {
						t.Errorf("traced %v: %s declared but not emitted", traced, name)
					} else if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s = %v", name, v)
					}
				}
				if traced {
					checkSeparation(t, spec.Name, got)
				} else {
					for _, m := range endToEnd {
						if got[m.Name] <= 0 {
							t.Errorf("%s = %v; an end-to-end metric is never 0", m.Name, got[m.Name])
						}
					}
				}
			}
		})
	}
}

// checkSeparation asserts the counts that show which layers a workload
// used. Timings are left alone: at smoke sizes they mean nothing.
func checkSeparation(t *testing.T, workload string, v map[string]float64) {
	t.Helper()
	if v["bench.failed_share"] != 0 || v["bench.verdict_mismatch"] != 0 {
		t.Errorf("failed_share %v, verdict_mismatch %v", v["bench.failed_share"], v["bench.verdict_mismatch"])
	}
	if v["cluster.claims_per_verdict"] < 1 {
		t.Errorf("cluster.claims_per_verdict = %v, below 1", v["cluster.claims_per_verdict"])
	}
	switch workload {
	case "dup_http", "paced_http":
		for _, st := range []string{"triage", "decode", "emulate", "extract", "infer"} {
			if n := v["core.stage_runs."+st]; n != 0 {
				t.Errorf("core.stage_runs.%s = %v on an all-hit workload", st, n)
			}
		}
		if v["vcache.hit_share"] != 1 {
			t.Errorf("vcache.hit_share = %v, want 1", v["vcache.hit_share"])
		}
	case "fresh":
		if v["vcache.hit_share"] != 0 {
			t.Errorf("vcache.hit_share = %v, want 0", v["vcache.hit_share"])
		}
		if v["core.stage_runs.emulate"] == 0 {
			t.Error("no emulation ran")
		}
	case "triage":
		if v["core.tier1_share"] <= 0.5 {
			t.Errorf("core.tier1_share = %v, want above 0.5", v["core.tier1_share"])
		}
		if v["core.stage_runs.emulate"] >= v["core.stage_runs.triage"]/2 {
			t.Errorf("emulate ran %v times for %v triage runs", v["core.stage_runs.emulate"], v["core.stage_runs.triage"])
		}
	case "cluster":
		if v["cluster.model_pulls"] < 1 {
			t.Error("no node pulled the model over the wire")
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.05, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.95, 10}, {1, 10},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
}

// The reported tail is the highest percentile that still has ten samples
// beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},
		{19, 0, false},
		{20, 0.5, true},    // rank 10, ten beyond
		{100, 0.9, true},   // p95 would leave five
		{199, 0.9, true},   // p95 is rank 190: nine beyond
		{200, 0.95, true},  // rank 190 of 200: ten beyond
		{1000, 0.99, true}, // rank 990: ten beyond
		{9999, 0.99, true}, // p99.9 is rank 9990: nine beyond
		{10000, 0.999, true},
		{1000000, 0.99999, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rankOf(c.n, p) < 10 {
			t.Errorf("tailPercentile(%d) = %v leaves %d samples beyond", c.n, p, c.n-rankOf(c.n, p))
		}
	}
}

// Spreads are computed the way the driver computes them: Python's
// statistics.quantiles(values, n=4), the exclusive method.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
		{[]float64{3}, 3, 3, 3},
	} {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// The same seed gives the same inputs; another seed gives others.
func TestDrawsDeterministic(t *testing.T) {
	const p, n = 500, 5000
	a, b, other := zipfDraws(3, p, n), zipfDraws(3, p, n), zipfDraws(4, p, n)
	if !reflect.DeepEqual(a, b) {
		t.Error("zipfDraws differs between two calls with one seed")
	}
	if reflect.DeepEqual(a, other) {
		t.Error("zipfDraws is the same for two seeds")
	}
	counts := make([]int, p)
	for _, i := range a {
		if i < 0 || int(i) >= p {
			t.Fatalf("draw %d outside [0, %d)", i, p)
		}
		counts[i]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[50] {
		t.Errorf("draws are not Zipf-shaped: %d, %d, %d at ranks 0, 1, 50", counts[0], counts[1], counts[50])
	}
	if len(distinct(a)) >= n/2 {
		t.Errorf("%d distinct of %d draws: not duplicate-heavy", len(distinct(a)), n)
	}

	s1, s2, s3 := shuffledTwice(3, p, 100), shuffledTwice(3, p, 100), shuffledTwice(4, p, 100)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("shuffledTwice differs between two calls with one seed")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Error("shuffledTwice is the same for two seeds")
	}
	seen := make([]int, p)
	for _, i := range s1 {
		seen[i]++
	}
	for i, c := range seen {
		if c != 2 {
			t.Fatalf("index %d appears %d times, want 2", i, c)
		}
	}
	for at, i := range s1 {
		if int(i)/100 != at/200 {
			t.Fatalf("index %d at position %d: outside its block of 100", i, at)
		}
	}
	if reflect.DeepEqual(s1[:p], identity(p)) {
		t.Error("shuffledTwice left the order alone")
	}
}

// On the open loop a stalled submission's delay is charged to the
// submissions that fell due while it stalled: their latency runs from the
// instant they were due, not from the instant they were sent.
func TestPaceChargesStallToLaterSubmissions(t *testing.T) {
	const (
		n     = 40
		rate  = 1000.0 // one a millisecond
		stall = 20 * time.Millisecond
	)
	var mu sync.Mutex
	fromDue := make([]time.Duration, n)
	dues := make([]time.Time, n)
	pace(1, n, rate, func(_, k int, due time.Time) {
		if k == 5 {
			time.Sleep(stall)
		}
		mu.Lock()
		fromDue[k], dues[k] = time.Since(due), due
		mu.Unlock()
	})
	for k := 1; k < n; k++ {
		if gap := dues[k].Sub(dues[k-1]); gap != time.Millisecond {
			t.Fatalf("submission %d due %v after %d, want 1ms: the schedule moved", k, gap, k-1)
		}
	}
	if fromDue[5] < stall {
		t.Errorf("the stalled submission took %v from due, want at least %v", fromDue[5], stall)
	}
	// Submission 6 fell due 1 ms into a 20 ms stall, submission 15 10 ms in.
	if fromDue[6] < stall-2*time.Millisecond {
		t.Errorf("submission 6 charged %v; the stall before it was %v", fromDue[6], stall)
	}
	if fromDue[15] < stall/4 {
		t.Errorf("submission 15 charged %v; it fell due mid-stall", fromDue[15])
	}
	if fromDue[4] >= stall/2 {
		t.Errorf("submission 4, sent before the stall, charged %v", fromDue[4])
	}
}

// -compare digests each side over its runs: the median of the runs' values
// is compared, and their quartiles are the spread.
func TestCompareOverRuns(t *testing.T) {
	write := func(name string, throughputs ...float64) string {
		var f resultsFile
		for _, v := range throughputs {
			r := &result{Workload: "fresh", Correct: true, Metrics: map[string]sample{}}
			for _, m := range endToEnd {
				r.Metrics[m.Name] = sample{Median: 1, Q1: 1, Q3: 1, N: 1}
			}
			r.Metrics["throughput_sps"] = sample{Median: v, Q1: v / 2, Q3: v * 2, N: 8} // chunk quartiles are not the runs'
			f.Results = append(f.Results, r, &result{Workload: "fresh", Traced: true})
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("A.json", 1000, 1010, 990, 1005, 995)
	for _, c := range []struct {
		name     string
		change   []float64
		breaches int
		verdict  string
	}{
		{"same", []float64{1002, 998, 1000}, 0, "ok"},
		{"a third slower", []float64{700, 690, 710}, 1, "BREACH"},
		{"runs too far apart to tell", []float64{600, 1000, 1400, 950, 1050}, 0, "unresolved"},
	} {
		var out strings.Builder
		breaches, err := compareFiles(&out, parent, write("B.json", c.change...))
		if err != nil {
			t.Fatal(err)
		}
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "throughput_sps") {
				row = line
			}
		}
		if breaches != c.breaches || !strings.HasSuffix(row, c.verdict) {
			t.Errorf("%s: %d breaches, row %q; want %d and %s", c.name, breaches, row, c.breaches, c.verdict)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := e2eSpec{"latency_p50_ms", "ms", "lower", 0.10, aTime}
	higher := e2eSpec{"throughput_sps", "1/s", "higher", 0.10, aRate}
	tight := func(m float64) sample { return sample{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 10} }
	wide := func(m float64) sample { return sample{Median: m, Q1: m * 0.8, Q3: m * 1.2, N: 10} }
	for _, c := range []struct {
		name string
		m    e2eSpec
		a, b sample
		want string
	}{
		{"same", lower, tight(10), tight(10), "ok"},
		{"within the bound", lower, tight(10), tight(10.9), "ok"},
		{"slower past the bound", lower, tight(10), tight(11.5), "BREACH"},
		{"faster", lower, tight(10), tight(5), "ok"},
		{"less throughput past the bound", higher, tight(1000), tight(850), "BREACH"},
		{"more throughput", higher, tight(1000), tight(1500), "ok"},
		{"spread wider than the bound", lower, wide(10), wide(10.5), "unresolved"},
		{"wide but every middle run better", lower, wide(10), wide(5), "ok"},
		{"wide and a little worse", higher, wide(1000), wide(900), "unresolved"},
		{"wide but every middle run worse", lower, wide(10), wide(20), "BREACH"},
	} {
		if got, _, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
