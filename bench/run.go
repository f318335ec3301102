package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// phase is one timed stretch of a workload. Every end-to-end quantity is
// kept as one value per chunk, so a run reports medians and their quartiles
// instead of one mean that a single slow stretch can drag.
type phase struct {
	vals      map[string][]float64
	yard      []float64 // yardstick readings around the chunks, ms
	lat       []float64 // ms, every submission of the phase, ascending
	sendLate  []float64 // ms, open loop only, ascending
	scrapes   []scrape
	passes    int
	wall      float64 // timed seconds
	attempted int
	failed    int
	mismatch  int
	tier1     int
	scanNS    int64
	retries   int
	firstErr  error
}

func (ph *phase) add(name string, v float64) { ph.vals[name] = append(ph.vals[name], v) }

// book folds one chunk's counters in.
func (ph *phase) book(st passStats, wall float64) {
	ph.wall += wall
	ph.attempted += st.n
	ph.failed += st.failed
	ph.mismatch += st.mismatch
	ph.tier1 += st.tier1
	ph.scanNS += st.scanNS
	ph.retries += st.retries
	ph.lat = append(ph.lat, st.lat...)
	ph.sendLate = append(ph.sendLate, st.sendLate...)
	ph.scrapes = append(ph.scrapes, st.scrapes...)
	if ph.firstErr == nil {
		ph.firstErr = st.firstErr
	}
}

// perSub books the three costs that are process totals over submissions.
func (ph *phase) perSub(u0, u1 usage, n int) {
	ph.add("cpu_us_per_sub", (u1.cpuUS-u0.cpuUS)/float64(n))
	ph.add("allocs_per_sub", float64(u1.mallocs-u0.mallocs)/float64(n))
	ph.add("alloc_bytes_per_sub", float64(u1.bytes-u0.bytes)/float64(n))
}

// latencies books one chunk's latency figures.
func (ph *phase) latencies(lat []float64, late int) {
	sort.Float64s(lat)
	ph.add("latency_p50_ms", percentile(lat, 0.50))
	ph.add("latency_p90_ms", percentile(lat, 0.90))
	ph.add("ontime_share", 1-float64(late)/float64(len(lat)))
}

// measure runs the workload for about seconds and returns what it cost.
// The submissions go out in chunks of a quarter to half a second's worth,
// with a yardstick reading between chunks; every end-to-end quantity is
// kept per chunk. A closed loop repeats whole passes — the deployment is
// reset, untimed, between them — until the timed chunks add up to seconds;
// the open loop runs its schedule once, a quarter of a second to a chunk.
func (b *bed) measure(seconds float64) (*phase, error) {
	ph := &phase{vals: map[string][]float64{}}
	open := b.spec.Loop == "open"
	seq := b.seq
	if open {
		seq = seq[:min(len(seq), int(pacedRate*seconds))]
	}
	for {
		for off := 0; off < len(seq); off += b.spec.Chunk {
			chunk := seq[off:min(off+b.spec.Chunk, len(seq))]
			ph.yard = append(ph.yard, b.yard.run())
			u0, t0 := readUsage(), time.Now()
			if open {
				b.runPaced(chunk, ph.attempted, pacedRate)
			} else {
				b.runPass(chunk, ph.attempted)
			}
			wall, u1 := time.Since(t0).Seconds(), readUsage()
			st := b.takeStats()
			ph.add("throughput_sps", float64(st.n)/wall)
			ph.perSub(u0, u1, st.n)
			ph.latencies(st.lat, st.late) // sorts st.lat; the phase's pool is sorted again at the end
			ph.book(st, wall)
		}
		ph.passes++
		if err := b.reset(); err != nil { // after the last pass too: the next phase starts cold
			return nil, err
		}
		if open || ph.wall >= seconds {
			break
		}
	}
	ph.yard = append(ph.yard, b.yard.run())
	sort.Float64s(ph.lat)
	sort.Float64s(ph.sendLate)
	ph.add("heap_live_mb", heapLiveMB())
	return ph, nil
}

// result is one run of one workload: the driver's last-line object plus
// the digests -compare reads.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Mismatch  int                `json:"verdict_mismatch"`
	Metrics   map[string]sample  `json:"metrics"`
	Info      map[string]float64 `json:"info,omitempty"`
}

// setUp builds the inputs and the deployment sz.setups times over, keeping
// the last, and returns every set-up's wall seconds with the yardstick
// readings taken around them: set-up time is one number per set-up, so
// steadying it takes several.
func setUp(spec *workloadSpec, seed int64, sz sizes, root string) (b *bed, times, yard []float64, err error) {
	y := newYardstick()
	read := func() { yard = append(yard, y.run(), y.run(), y.run()) }
	for i := 0; i < sz.setups; i++ {
		if b != nil {
			b.close()
			b = nil
			runtime.GC()
		}
		read()
		t0 := time.Now()
		in, err := buildInputs(seed, sz)
		if err != nil {
			return nil, nil, nil, err
		}
		if b, err = newBed(spec, in, sz, root); err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	b.yard = y
	read()
	return b, times, yard, nil
}

// atNominal brings a digest measured while the yardstick read yardMS to the
// yardstick's nominal speed.
func (s sample) atNominal(kind speedKind, yardMS float64) sample {
	f := 1.0
	switch kind {
	case aTime:
		f = yardstickNominalMS / yardMS
	case aRate:
		f = yardMS / yardstickNominalMS
	}
	return sample{Median: s.Median * f, Q1: s.Q1 * f, Q3: s.Q3 * f, N: s.N}
}

// runWorkload sets one workload up, computes the reference verdicts, and
// measures it: untraced for the end-to-end metrics, or — traced — a short
// untraced phase, the same again with the span recorder on, the layer
// probes and the ladder, for the per-layer metrics.
func runWorkload(spec *workloadSpec, seed int64, sz sizes, traced bool, root, spansPath string) (*result, error) {
	if traced {
		sz.setups = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	b, setups, setupYard, err := setUp(spec, seed, sz, root)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", spec.Name, err)
	}
	defer b.close()
	if b.ref, err = b.in.oracle(spec.Band); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	res := &result{Workload: spec.Name, Seed: seed, Traced: traced, Metrics: map[string]sample{}, Info: map[string]float64{}}
	var phases []*phase
	if !traced {
		ph, err := b.measure(sz.seconds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		phases = []*phase{ph}
		ph.vals["setup_s"] = setups
		yardMS := digest(ph.yard).Median
		for _, m := range endToEnd {
			raw, kind, at := digest(ph.vals[m.Name]), m.Speed, yardMS
			switch {
			case m.Name == "setup_s":
				at = digest(setupYard).Median
			case spec.Loop == "open" && (m.Name == "throughput_sps" || m.Name == "cpu_us_per_sub"):
				// The schedule, not the box, sets the rate; and the CPU a
				// submission costs on a half-idle box was measured not to
				// follow the yardstick (4 % apart over ten runs as measured,
				// 14 % scaled).
				kind = aCount
			}
			res.Metrics[m.Name] = raw.atNominal(kind, at)
			res.Info["raw."+m.Name] = raw.Median
		}
		res.Info["yardstick_ms"] = yardMS
		res.Info["passes"] = float64(ph.passes)
		res.Info["virtual_scan_mean_s"] = ph.virtualScanMean()
		res.Info["tier1_share"] = float64(ph.tier1) / float64(ph.attempted)
		res.Info["latency_p90_ms"] = digest(ph.vals["latency_p90_ms"]).Median
		if p, ok := tailPercentile(len(ph.lat)); ok {
			res.Info["latency_tail_pct"] = p * 100
			res.Info["latency_tail_ms"] = percentile(ph.lat, p)
		}
	} else {
		values, both, err := b.tracedRun(spansPath)
		if err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", spec.Name, err)
		}
		phases = both
		for _, l := range perLayer {
			v, ok := values[l.Name]
			if !ok {
				return nil, fmt.Errorf("%s: per-layer metric %s was not measured", spec.Name, l.Name)
			}
			res.Metrics[l.Name] = sample{Median: v, Q1: v, Q3: v, N: 1}
		}
	}
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		res.Mismatch += ph.mismatch
		if ph.firstErr != nil && err == nil {
			err = ph.firstErr
		}
	}
	res.Correct = res.Failed == 0 && res.Mismatch == 0
	if err != nil {
		fmt.Printf("  first failure: %v\n", err)
	}
	return res, nil
}

// virtualScanMean is the mean virtual-clock scan time of the phase's
// verdicts — the paper's per-app cost. Summed in integer nanoseconds over
// whole passes, it is exact for a seed.
func (ph *phase) virtualScanMean() float64 {
	done := ph.attempted - ph.failed
	if done == 0 {
		return 0
	}
	return float64(ph.scanNS) / float64(done) / 1e9
}
