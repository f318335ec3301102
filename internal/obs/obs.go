// Package obs is the observability spine of the vetting system: one
// lightweight structured event/trace layer every other package books its
// accounting through, instead of each growing a bespoke counter set.
//
// Three primitives cover the system's needs:
//
//   - Event: a structured record — a completed pipeline-stage span
//     (KindSpan, with a virtual-clock duration) or a service lifecycle
//     event (KindService: accepted, rejected, started, done). Events fan
//     out to registered Sinks; span events are additionally aggregated
//     into per-stage counters and latency distributions.
//   - Counter: a named monotonic counter handle. Handles are cheap
//     atomics; packages hold them directly, so their legacy snapshot
//     types (vcache.Stats, vetsvc.Metrics) remain thin views over obs
//     data rather than parallel bookkeeping.
//   - Distribution: a named latency sample set with deterministic
//     nearest-rank quantiles over the virtual clock, so p50/p95/p99 are
//     host-speed independent and bit-stable across runs.
//
// A Collector owns one namespace of stages, counters, and distributions.
// The Checker carries one for the vet pipeline; each vetting service
// carries its own for admission/completion accounting (so a rebuilt
// service starts from zero, as its Metrics always have).
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies events.
type Kind uint8

const (
	// KindSpan: one pipeline stage finished for one submission. Dur is
	// the stage's virtual-clock duration.
	KindSpan Kind = iota
	// KindService: a serving-layer lifecycle event (admission decision,
	// start, completion).
	KindService
)

func (k Kind) String() string {
	switch k {
	case KindSpan:
		return "span"
	case KindService:
		return "service"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one structured observability record.
type Event struct {
	Kind Kind
	// Name is the stage name (KindSpan) or lifecycle event name
	// (KindService: "accepted", "rejected", "started", "done").
	Name string
	// Trace identifies the submission: its vet sequence number (0 when
	// none was reserved, e.g. a rejected admission).
	Trace int64
	// Package is the submission's package name, best effort.
	Package string
	// Dur is the span's virtual-clock duration (zero for bookkeeping
	// stages and service events without one).
	Dur time.Duration
	// Note carries a stage-specific outcome detail: the cache outcome on
	// a lookup span, the engine name on an emulate span.
	Note string
	// Err is the failure that ended the stage or submission, nil on
	// success.
	Err error
}

// Sink receives every event emitted through a collector. Emit is called
// synchronously from vetting goroutines: implementations must be fast and
// must not call back into the emitting component.
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(ev Event) { f(ev) }

// Counter is a named monotonic counter handle obtained from a Collector.
type Counter struct {
	n atomic.Uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.n.Load() }

// Gauge is a named point-in-time value handle obtained from a Collector.
// Unlike a Counter it can move in both directions (or be set outright) —
// the current model generation, queue depths, and similar instantaneous
// state live here.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (negative d moves it down).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// maxWindow bounds the samples one distribution or stage keeps: 256 KiB
// each, whatever the uptime, with 327 samples beyond p99. Below it every
// digest is exact, as it was when every sample was kept.
const maxWindow = 1 << 15

// window is a sample set of bounded size: the exact count and sum of
// everything observed, and the most recent maxWindow samples to take
// quantiles from. Not safe for concurrent use; owners lock around it.
type window struct {
	n      uint64
	sum    float64
	recent []float64 // oldest first until full, then a ring written at n%maxWindow
}

func (w *window) observe(v float64) {
	if len(w.recent) < maxWindow {
		w.recent = append(w.recent, v)
	} else {
		w.recent[w.n%maxWindow] = v
	}
	w.n++
	w.sum += v
}

// clone copies the window, so it can be digested outside the owner's lock.
func (w *window) clone() window {
	c := *w
	c.recent = append([]float64(nil), w.recent...)
	return c
}

// summary digests the window. It sorts the samples in place: call it on a
// clone.
func (w *window) summary() Summary {
	if w.n == 0 {
		return Summary{}
	}
	s := Summarize(w.recent)
	s.Count, s.Mean = w.n, w.sum/float64(w.n)
	return s
}

// Distribution is a named sample set in virtual-clock seconds. Its count
// and mean cover every observation; its quantiles the latest maxWindow.
type Distribution struct {
	mu sync.Mutex
	w  window
}

// Observe records one sample.
func (d *Distribution) Observe(v float64) {
	d.mu.Lock()
	d.w.observe(v)
	d.mu.Unlock()
}

// Snapshot copies the retained samples: all of them, in observation order,
// until maxWindow have been observed; the latest maxWindow, unordered, after.
func (d *Distribution) Snapshot() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.w.recent...)
}

// Summary summarizes the samples recorded so far.
func (d *Distribution) Summary() Summary {
	d.mu.Lock()
	w := d.w.clone()
	d.mu.Unlock()
	return w.summary()
}

// Summary is a deterministic latency digest: mean plus nearest-rank
// quantiles, in virtual-clock seconds.
type Summary struct {
	Count uint64
	Mean  float64
	P50   float64
	P95   float64
	P99   float64
}

// Summarize digests one sample set. The slice is sorted in place; pass a
// copy if the order matters to the caller.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	sort.Float64s(samples)
	return Summary{
		Count: uint64(len(samples)),
		Mean:  sum / float64(len(samples)),
		P50:   Quantile(samples, 0.50),
		P95:   Quantile(samples, 0.95),
		P99:   Quantile(samples, 0.99),
	}
}

// Quantile is the nearest-rank quantile of a sorted sample.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// stageAgg accumulates one stage's spans.
type stageAgg struct {
	count  uint64
	errors uint64
	dur    window // virtual seconds of the successful spans
}

// StageStats is one stage's aggregate view: how many submissions passed
// through it, how many died in it, and its virtual-latency digest.
type StageStats struct {
	Stage  string
	Count  uint64
	Errors uint64
	Dur    Summary
}

// Collector is one observability namespace: per-stage span aggregates,
// named counters, named distributions, and a sink fan-out. Safe for
// concurrent use. Construct with NewCollector.
type Collector struct {
	mu     sync.Mutex
	stages map[string]*stageAgg
	order  []string // stage names in first-seen order (pipeline order)

	cmu      sync.Mutex
	counters map[string]*Counter

	gmu    sync.Mutex
	gauges map[string]*Gauge

	dmu   sync.Mutex
	dists map[string]*Distribution

	smu   sync.RWMutex
	sinks []Sink
}

// NewCollector builds an empty collector.
func NewCollector() *Collector {
	return &Collector{
		stages:   make(map[string]*stageAgg),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		dists:    make(map[string]*Distribution),
	}
}

// AddSink registers a sink for every subsequent event.
func (c *Collector) AddSink(s Sink) {
	if s == nil {
		return
	}
	c.smu.Lock()
	c.sinks = append(c.sinks, s)
	c.smu.Unlock()
}

// Emit records one event: span events are aggregated into per-stage
// stats, and every event fans out to the registered sinks in
// registration order.
func (c *Collector) Emit(ev Event) {
	if ev.Kind == KindSpan {
		c.mu.Lock()
		agg, ok := c.stages[ev.Name]
		if !ok {
			agg = &stageAgg{}
			c.stages[ev.Name] = agg
			c.order = append(c.order, ev.Name)
		}
		agg.count++
		if ev.Err != nil {
			agg.errors++
		} else {
			agg.dur.observe(ev.Dur.Seconds())
		}
		c.mu.Unlock()
	}
	c.smu.RLock()
	sinks := c.sinks
	c.smu.RUnlock()
	for _, s := range sinks {
		s.Emit(ev)
	}
}

// StageStats snapshots the per-stage aggregates in first-seen (pipeline)
// order. Durations summarize successful spans only; Errors counts the
// spans that ended in failure.
func (c *Collector) StageStats() []StageStats {
	c.mu.Lock()
	out := make([]StageStats, 0, len(c.order))
	type raw struct {
		name          string
		count, errors uint64
		dur           window
	}
	raws := make([]raw, 0, len(c.order))
	for _, name := range c.order {
		agg := c.stages[name]
		raws = append(raws, raw{name, agg.count, agg.errors, agg.dur.clone()})
	}
	c.mu.Unlock()
	for _, r := range raws {
		out = append(out, StageStats{
			Stage:  r.name,
			Count:  r.count,
			Errors: r.errors,
			Dur:    r.dur.summary(),
		})
	}
	return out
}

// Counter returns the named counter handle, creating it on first use.
// The handle stays valid for the collector's lifetime, so hot paths
// resolve it once and increment lock-free.
func (c *Collector) Counter(name string) *Counter {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	ctr, ok := c.counters[name]
	if !ok {
		ctr = &Counter{}
		c.counters[name] = ctr
	}
	return ctr
}

// Counters snapshots every named counter's current value.
func (c *Collector) Counters() map[string]uint64 {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	out := make(map[string]uint64, len(c.counters))
	for name, ctr := range c.counters {
		out[name] = ctr.Load()
	}
	return out
}

// Gauge returns the named gauge handle, creating it on first use. Like
// counter handles, gauge handles stay valid for the collector's lifetime.
func (c *Collector) Gauge(name string) *Gauge {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	g, ok := c.gauges[name]
	if !ok {
		g = &Gauge{}
		c.gauges[name] = g
	}
	return g
}

// Gauges snapshots every named gauge's current value.
func (c *Collector) Gauges() map[string]int64 {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	out := make(map[string]int64, len(c.gauges))
	for name, g := range c.gauges {
		out[name] = g.Load()
	}
	return out
}

// Distribution returns the named distribution, creating it on first use.
func (c *Collector) Distribution(name string) *Distribution {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	d, ok := c.dists[name]
	if !ok {
		d = &Distribution{}
		c.dists[name] = d
	}
	return d
}

// Distributions snapshots every named distribution's summary. Generic
// exporters (the gateway's Prometheus exposition) iterate this instead of
// naming distributions one by one, so a new distribution is exported the
// moment any package observes into it.
func (c *Collector) Distributions() map[string]Summary {
	c.dmu.Lock()
	names := make([]string, 0, len(c.dists))
	dists := make([]*Distribution, 0, len(c.dists))
	for name, d := range c.dists {
		names = append(names, name)
		dists = append(dists, d)
	}
	c.dmu.Unlock()
	out := make(map[string]Summary, len(names))
	for i, d := range dists {
		out[names[i]] = d.Summary()
	}
	return out
}
