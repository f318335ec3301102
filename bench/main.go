// Command bench is the repository's standing serving benchmark: five named
// workloads over the vetting stack (core.Vet pipeline → vetsvc →
// workqueue/worker → gateway → cluster), end-to-end metrics measured with
// tracing off, and a separate traced run that times each layer from
// outside. One process generates the load and hosts the program under
// test; the program receives only inputs generated from -seed.
//
//	go run . -seed 1 -out results.json     # all five workloads, both runs
//	go run . -workload fresh -trace 0      # one run, the driver's way
//	go run . -compare A.json B.json        # two result files against the bounds
//
// See README.md for the workloads, the metric names and how to read the
// trace file and the ladder.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		workload = flag.String("workload", "", "run one workload (default: all five)")
		trace    = flag.String("trace", "", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (default: both)")
		seconds  = flag.Float64("seconds", 0, "length of a timed phase, set by the driver (default: the benchmark's own)")
		out      = flag.String("out", "", "add the results, for -compare, to this file")
		spans    = flag.String("spans", "", "write the traced phase's spans to this file")
		smoke    = flag.Bool("smoke", false, "tiny sizes and 0.3 s phases: checks the harness, measures nothing")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		manifest = flag.String("manifest", "", "write BENCHMARK.json to this file and exit")
	)
	flag.Parse()
	switch {
	case *manifest != "":
		if err := os.WriteFile(*manifest, manifestJSON(), 0o644); err != nil {
			fatal(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		breaches, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if breaches > 0 {
			os.Exit(1)
		}
		return
	}

	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	if *seconds > 0 {
		sz.seconds = *seconds
	}
	specs := workloads
	if *workload != "" {
		w := workloadNamed(*workload)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		specs = []workloadSpec{*w}
	}
	var modes []bool // traced?
	switch *trace {
	case "":
		modes = []bool{false, true}
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	default:
		fatal(fmt.Errorf("-trace takes 0 or 1"))
	}

	// Every journal, persist log and registry lives under one directory of
	// the working tree, removed on the way out.
	if err := os.MkdirAll(scratchParent, 0o755); err != nil {
		fatal(err)
	}
	root, err := os.MkdirTemp(scratchParent, "run-")
	if err != nil {
		fatal(err)
	}
	file := &resultsFile{Env: environment(*seed)}
	if *out != "" { // a file that exists gains this run's results
		switch prev, err := readResultsFile(*out); {
		case err == nil:
			file = prev
		case !errors.Is(err, fs.ErrNotExist):
			fatal(err)
		}
	}
	var last *result
	ok := true
	for i := range specs {
		for _, traced := range modes {
			spansPath := ""
			if traced && *spans != "" {
				spansPath = *spans
				if len(specs) > 1 {
					spansPath = strings.TrimSuffix(*spans, ".json") + "." + specs[i].Name + ".json"
				}
			}
			fmt.Printf("== %s (%s loop; %s; %s) seed %d, traced %v\n", specs[i].Name, specs[i].Loop, specs[i].Load, specs[i].Size, *seed, traced)
			res, err := runWorkload(&specs[i], *seed, sz, traced, root, spansPath)
			if err != nil {
				os.RemoveAll(root)
				fatal(err)
			}
			printResult(res)
			file.Results = append(file.Results, res)
			last, ok = res, ok && res.Correct
		}
	}
	os.RemoveAll(root)
	if *out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if len(specs)*len(modes) == 1 {
		fmt.Println(driverLine(last))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: failed submissions or verdicts differing from the serial reference")
		os.Exit(1)
	}
}

// scratchParent holds the per-run temporary roots; inside the working tree
// because the driver lets the benchmark write nowhere else.
const scratchParent = ".bench_build/tmp"

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Env     map[string]string `json:"environment"`
	Results []*result         `json:"results"`
}

// environment records what a result was measured on.
func environment(seed int64) map[string]string {
	env := map[string]string{
		"seed":       fmt.Sprint(seed),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// unitOf looks a metric's unit up in the two declaration tables.
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, l := range perLayer {
		if l.Name == name {
			return l.Unit
		}
	}
	return ""
}

// printResult prints every metric of one run by name, with its unit, and
// for metrics digested over passes or windows the quartiles and count.
func printResult(r *result) {
	names := make([]string, 0, len(r.Metrics))
	if r.Traced {
		for _, l := range perLayer {
			names = append(names, l.Name)
		}
	} else {
		for _, m := range endToEnd {
			names = append(names, m.Name)
		}
	}
	for _, name := range names {
		s := r.Metrics[name]
		switch raw, ok := r.Info["raw."+name]; {
		case ok && raw != s.Median:
			fmt.Printf("  %-30s %14.4f %-6s (q1 %.4f, q3 %.4f, n %d; %.4f as measured)\n", name, s.Median, unitOf(name), s.Q1, s.Q3, s.N, raw)
		case s.N > 1:
			fmt.Printf("  %-30s %14.4f %-6s (q1 %.4f, q3 %.4f, n %d)\n", name, s.Median, unitOf(name), s.Q1, s.Q3, s.N)
		default:
			fmt.Printf("  %-30s %14.4f %s\n", name, s.Median, unitOf(name))
		}
	}
	if !r.Traced {
		fmt.Printf("  latency p90: %.4f ms as measured (median over chunks; no bound)\n", r.Info["latency_p90_ms"])
	}
	if p, ok := r.Info["latency_tail_pct"]; ok {
		fmt.Printf("  latency p%g: %.4f ms (highest percentile with ten samples beyond it)\n", p, r.Info["latency_tail_ms"])
	}
	if !r.Traced {
		fmt.Printf("  yardstick %.3f ms (nominal %g): times and rates above are brought to the nominal\n", r.Info["yardstick_ms"], yardstickNominalMS)
		fmt.Printf("  passes %g, virtual_scan_mean_s %.9f, tier1_share %.4f\n", r.Info["passes"], r.Info["virtual_scan_mean_s"], r.Info["tier1_share"])
	}
	fmt.Printf("  attempted %d, failed %d, verdict_mismatch %d\n", r.Attempted, r.Failed, r.Mismatch)
}

// driverLine renders the one JSON object the driver reads from the last
// line of standard output.
func driverLine(r *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, s := range r.Metrics {
		line.Metrics[name] = value{s.Median, unitOf(name)}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	return string(data)
}
