package main

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"io"
	"math/rand"
	"strconv"
	"time"
)

// The yardstick is a fixed piece of work of the benchmark's own — inflate a
// text blob and hash it, eight times over, then chase pointers through an
// array larger than a core's private cache — that calls nothing of the
// program under test. It is timed between the chunks of a timed phase and
// around every set-up.
//
// Why: the sandbox this benchmark runs in shares its cores and caches with
// other tenants, and its speed moves by a quarter for minutes at a time,
// for every workload alike. Ten runs that straddle such a change spread
// further than any regression bound worth setting. The yardstick slows
// with the box, so the end-to-end metrics that scale with the box's speed
// are reported at the yardstick's nominal speed: a time is multiplied by
// yardstickNominalMS over the run's median yardstick reading, a rate
// divided. A change to the program moves its metrics and not the
// yardstick, so regressions show in full. The run prints the raw medians
// and the reading beside the reported figures.
//
// The mix was fitted, not guessed: over eight runs of each workload that
// straddled a speed change (raw throughput spread 23 to 33 %), scaling by
// this mix of inflate and chase left 3 to 8 % on every closed loop. Chase
// alone over-corrects (memory latency swings further than the workloads
// do), inflate alone under-corrects, and allocation tracks nothing.
type yardstick struct {
	blob  []byte // deflated text
	zr    io.ReadCloser
	text  []byte  // what blob inflates to
	chase []int32 // one random cycle through 4 MiB
}

// yardstickNominalMS is what one yardstick run reads on the 2-core box the
// benchmark was sized on, when that box is quiet.
const yardstickNominalMS = 11.8

func newYardstick() *yardstick {
	rng := rand.New(rand.NewSource(1))
	words := make([]string, 200)
	for i := range words {
		words[i] = "android.api." + strconv.Itoa(rng.Intn(1e6))
	}
	var text bytes.Buffer
	for text.Len() < 256<<10 {
		text.WriteString(words[rng.Intn(len(words))])
		text.WriteByte(byte(rng.Intn(256)))
	}
	var z bytes.Buffer
	w, err := flate.NewWriter(&z, flate.DefaultCompression)
	if err == nil {
		_, err = w.Write(text.Bytes())
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		panic(err) // writes to a bytes.Buffer at a valid level cannot fail
	}
	y := &yardstick{blob: z.Bytes(), text: make([]byte, text.Len()), chase: make([]int32, 1<<20)}
	y.zr = flate.NewReader(bytes.NewReader(y.blob))
	perm := rng.Perm(len(y.chase))
	for i, at := range perm {
		y.chase[at] = int32(perm[(i+1)%len(perm)])
	}
	y.run() // first use sizes the inflater's window
	return y
}

// yardstickSink keeps the compiler from dropping the work.
var yardstickSink int

// run does the fixed work once and returns its wall milliseconds.
func (y *yardstick) run() float64 {
	t0 := time.Now()
	for r := 0; r < 8; r++ {
		if err := y.zr.(flate.Resetter).Reset(bytes.NewReader(y.blob), nil); err != nil {
			panic(err) // the flate reader's Reset returns nil
		}
		if _, err := io.ReadFull(y.zr, y.text); err != nil {
			panic(err) // the blob was deflated from text of this length
		}
		sum := sha256.Sum256(y.text)
		yardstickSink += int(sum[0])
	}
	at := int32(0)
	for i := 0; i < 25000; i++ {
		at = y.chase[at]
	}
	yardstickSink += int(at)
	return time.Since(t0).Seconds() * 1e3
}
