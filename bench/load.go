package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// one submits payload i as submission k of the phase and books the
// outcome. Latency runs from due — the moment the client took the
// submission on a closed loop, the moment the schedule wanted it sent on
// the open loop — so a stall is charged to every submission it delayed.
func (c *client) one(k int, i int32, due time.Time) {
	root := c.tr.root(int32(k))
	v, err := c.submit(i, root)
	if err == nil && c.tr != nil && replaySampled(c.b.in.seed, k) {
		err = c.tr.traceReplay(c.b.in.payloads[i], root)
	}
	c.tr.end(root)
	ms := time.Since(due).Seconds() * 1e3
	c.lat = append(c.lat, ms)
	if err != nil || ms > c.b.spec.LimitMS {
		c.late++ // a failure misses the limit whatever it took
	}
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
		return
	}
	c.scanNS += int64(v.ScanTime)
	if v.Tier == 1 {
		c.tier1++
	}
	if c.b.ref != nil && !sameVerdict(v, &c.b.ref[i]) {
		c.mismatch++
	}
}

// runPass drives seq through the bed's clients as a closed loop: each
// client sends its next submission when the previous one's verdict is in.
// base numbers the first submission, so that a phase driven in several
// calls numbers its submissions through.
func (b *bed) runPass(seq []int32, base int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(seq) {
					return
				}
				c.one(base+k, seq[k], time.Now())
			}
		}()
	}
	wg.Wait()
}

// pace is the open-loop schedule: submission k of n is due k/rate seconds
// after the start whatever became of the ones before it, and is handed to
// send, with its due time, by the first free client at or after that
// instant. A stall therefore delays every submission that fell due during
// it, and send sees by how much.
func pace(clients, n int, rate float64, send func(client, k int, due time.Time)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				sleepUntil(due)
				send(c, k, due)
			}
		}()
	}
	wg.Wait()
}

// sleepUntil blocks until due. It sleeps in the kernel, not on a Go
// timer: an idle Go scheduler waits for its timers in epoll, which counts
// in whole milliseconds, and a generator that wakes up to a millisecond
// late would be most of the latency this workload reports.
func sleepUntil(due time.Time) {
	for d := time.Until(due); d > 0; d = time.Until(due) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an interrupted sleep is resumed by the loop
	}
}

// runPaced drives seq through the bed's clients on the open-loop schedule,
// numbering submissions from base. Where base starts a second of the
// schedule, client 0 first scrapes /metrics, in line on its connection, so
// the scrape's cost lands on the submission it was about to send and on
// those that fall due behind it.
func (b *bed) runPaced(seq []int32, base int, rate int) {
	scraped := base%rate != 0 // client 0's alone
	pace(len(b.clients), len(seq), float64(rate), func(ci, k int, due time.Time) {
		c := b.clients[ci]
		if ci == 0 && !scraped {
			scraped = true
			if s, err := c.scrapeMetrics(); err == nil {
				c.scrapes = append(c.scrapes, s)
			} else if c.firstErr == nil {
				c.firstErr = err
			}
		}
		c.sendLate = append(c.sendLate, max(0, time.Since(due).Seconds()*1e3))
		c.one(base+k, seq[k], due)
	})
}

// passStats is what the clients measured between two takeStats calls.
type passStats struct {
	n        int
	lat      []float64 // ms, in no order
	sendLate []float64 // ms, in no order
	scrapes  []scrape
	failed   int
	mismatch int
	late     int // answered after the workload's limit, failures included
	tier1    int
	scanNS   int64
	retries  int
	firstErr error
}

// takeStats collects and clears every client's measurements.
func (b *bed) takeStats() passStats {
	var st passStats
	for _, c := range b.clients {
		st.lat = append(st.lat, c.lat...)
		st.sendLate = append(st.sendLate, c.sendLate...)
		st.scrapes = append(st.scrapes, c.scrapes...)
		st.failed += c.failed
		st.mismatch += c.mismatch
		st.late += c.late
		st.tier1 += c.tier1
		st.scanNS += c.scanNS
		st.retries += c.retries429
		if st.firstErr == nil {
			st.firstErr = c.firstErr
		}
		c.lat, c.sendLate, c.scrapes = c.lat[:0], c.sendLate[:0], c.scrapes[:0]
		c.failed, c.mismatch, c.late, c.tier1, c.scanNS, c.retries429, c.firstErr = 0, 0, 0, 0, 0, 0, nil
	}
	st.n = len(st.lat)
	return st
}

// usage is the process's cumulative cost so far: CPU from getrusage, heap
// allocation from the runtime. The generator's own share is in it; that
// share is the same on every commit.
type usage struct {
	cpuUS   float64
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return usage{cpuUS: tv(ru.Utime) + tv(ru.Stime), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// heapLiveMB is the live heap after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
