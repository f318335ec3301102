package obs

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.95, 10}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := Quantile(s, tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %v, want 0", got)
	}
}

func TestSummarize(t *testing.T) {
	// Mean is computed before the in-place sort; quantiles after.
	s := Summarize([]float64{3, 1, 2, 4})
	if s.Count != 4 || s.Mean != 2.5 || s.P50 != 2 || s.P95 != 4 || s.P99 != 4 {
		t.Fatalf("Summarize = %+v", s)
	}
	if z := Summarize(nil); z != (Summary{}) {
		t.Fatalf("Summarize(nil) = %+v, want zero", z)
	}
}

func TestSpanAggregation(t *testing.T) {
	c := NewCollector()
	c.Emit(Event{Kind: KindSpan, Name: "emulate", Trace: 1, Dur: 2 * time.Second})
	c.Emit(Event{Kind: KindSpan, Name: "emulate", Trace: 2, Dur: 4 * time.Second})
	c.Emit(Event{Kind: KindSpan, Name: "infer", Trace: 1, Dur: time.Second})
	c.Emit(Event{Kind: KindSpan, Name: "emulate", Trace: 3, Err: errors.New("boom")})

	st := c.StageStats()
	if len(st) != 2 {
		t.Fatalf("stages = %d, want 2", len(st))
	}
	// First-seen order is pipeline order.
	if st[0].Stage != "emulate" || st[1].Stage != "infer" {
		t.Fatalf("stage order = %q, %q", st[0].Stage, st[1].Stage)
	}
	em := st[0]
	if em.Count != 3 || em.Errors != 1 {
		t.Fatalf("emulate agg = %+v", em)
	}
	// Errored spans carry no duration sample.
	if em.Dur.Count != 2 || em.Dur.Mean != 3 || em.Dur.P50 != 2 {
		t.Fatalf("emulate dur = %+v", em.Dur)
	}
}

func TestCountersAndDistributions(t *testing.T) {
	c := NewCollector()
	h := c.Counter("vcache.hits")
	h.Inc()
	h.Add(2)
	if c.Counter("vcache.hits") != h {
		t.Fatal("Counter must return a stable handle per name")
	}
	if got := c.Counters()["vcache.hits"]; got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}

	d := c.Distribution("scan.miss")
	d.Observe(1)
	d.Observe(3)
	if s := d.Summary(); s.Count != 2 || s.Mean != 2 {
		t.Fatalf("distribution summary = %+v", s)
	}
	// Summary must not disturb the stored samples.
	if got := d.Snapshot(); len(got) != 2 || got[0] != 1 {
		t.Fatalf("snapshot = %v", got)
	}
}

func TestSinkFanOutAndConcurrency(t *testing.T) {
	c := NewCollector()
	var mu sync.Mutex
	var got []Event
	c.AddSink(SinkFunc(func(ev Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	}))

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c.Emit(Event{Kind: KindSpan, Name: "emulate", Trace: int64(i)})
				c.Counter("n").Inc()
				c.Distribution("d").Observe(1)
			}
		}(i)
	}
	wg.Wait()

	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != 400 {
		t.Fatalf("sink saw %d events, want 400", n)
	}
	if c.Counter("n").Load() != 400 {
		t.Fatalf("counter = %d", c.Counter("n").Load())
	}
	if st := c.StageStats(); st[0].Count != 400 {
		t.Fatalf("stage count = %d", st[0].Count)
	}
}

// TestSampleMemoryIsBounded: a distribution and a stage keep the exact
// count and mean of everything observed but at most maxWindow samples, the
// most recent ones, so a long-lived server's metrics memory does not grow
// with its uptime.
func TestSampleMemoryIsBounded(t *testing.T) {
	c := NewCollector()
	d := c.Distribution("d")
	const n = 3*maxWindow + 7
	for i := 0; i < n; i++ {
		d.Observe(float64(i))
		c.Emit(Event{Kind: KindSpan, Name: "s", Dur: time.Duration(i) * time.Second})
	}
	if got := len(d.Snapshot()); got != maxWindow {
		t.Fatalf("distribution retains %d samples, want %d", got, maxWindow)
	}
	for name, s := range map[string]Summary{"distribution": d.Summary(), "stage": c.StageStats()[0].Dur} {
		if s.Count != n || s.Mean != float64(n-1)/2 {
			t.Errorf("%s: count %d mean %v, want %d and %v", name, s.Count, s.Mean, n, float64(n-1)/2)
		}
		// The window is the last maxWindow values, n-maxWindow .. n-1.
		if want := float64(n - maxWindow/2 - 1); s.P50 != want {
			t.Errorf("%s: p50 %v, want %v (median of the most recent window)", name, s.P50, want)
		}
	}
}
