package emulator

import (
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"apichecker/internal/behavior"
	"apichecker/internal/hook"
)

// TestAppSpeedBelongsToTheApp: the speed multiplier is drawn from the app's
// own stream, so whichever Monkey exercises the app finds it equally fast,
// and two apps draw two speeds.
func TestAppSpeedBelongsToTheApp(t *testing.T) {
	// The stock engine never crashes and an empty registry intercepts
	// nothing, so the virtual time is events x per-event cost x speed.
	e := New(GoogleEmulator, registryNone(t))
	p := prog(31, behavior.Benign, behavior.FamilyNone)
	first, err := e.Run(p, mk(1))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(2); seed < 40; seed++ {
		res, err := e.Run(p, mk(seed))
		if err != nil {
			t.Fatal(err)
		}
		if res.VirtualTime != first.VirtualTime {
			t.Fatalf("Monkey seed %d: virtual time %v, seed 1 ran %v", seed, res.VirtualTime, first.VirtualTime)
		}
	}
	speeds := map[float64]bool{}
	for seed := int64(0); seed < 200; seed++ {
		speeds[appSpeed(prog(seed, behavior.Benign, behavior.FamilyNone), GoogleEmulator, new(rand.PCG))] = true
	}
	// A clamped draw may repeat (SpeedMin/SpeedMax); the rest may not.
	if len(speeds) < 190 {
		t.Errorf("200 apps drew %d distinct speeds", len(speeds))
	}
}

// TestSeedPairsDoNotCollide: the old run seed folded the pair into one
// word, p.Seed ^ mk.Seed<<1 ^ const, so (2, 0) and (0, 1) were one stream —
// the same behaviour under those two pairs drew the same run. Now the app
// seed is the generator's state and the Monkey seed its stream.
func TestSeedPairsDoNotCollide(t *testing.T) {
	e := New(GoogleEmulator, registryAll(t))
	a := prog(5, behavior.Malicious, behavior.FamilySpyware)
	b := *a
	a.Seed, b.Seed = 2, 0
	if a.Seed^0<<1 != b.Seed^1<<1 {
		t.Fatal("test setup: the pairs did not collide under the old fold")
	}
	ra, err := e.Run(a, mk(0))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := e.Run(&b, mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Log.TotalInvocations == rb.Log.TotalInvocations && reflect.DeepEqual(ra.Log.Invocations(), rb.Log.Invocations()) {
		t.Errorf("(2, 0) and (0, 1) drew the same run: %d invocations", ra.Log.TotalInvocations)
	}
}

// TestPoissonCountMoments: both branches (Knuth below 30, the rounded normal
// above) keep a Poisson's first two moments over 10^5 draws.
func TestPoissonCountMoments(t *testing.T) {
	const n = 100000
	for _, lambda := range []float64{4, 29, 30, 200} {
		rng := rand.New(rand.NewPCG(uint64(lambda), 7))
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			k := float64(poissonCount(rng, lambda))
			sum += k
			sumSq += k * k
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-lambda) > 0.02*lambda {
			t.Errorf("lambda %v: mean %.3f", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.02*lambda {
			t.Errorf("lambda %v: variance %.3f", lambda, variance)
		}
	}
}

// TestSeedingStreamsAllocatesLittle: a run pays for its log and its result,
// and beyond those for two PCG streams — 16 bytes of state each, and a
// 16-byte rand.Rand where that escapes. (One math/rand source was 4.9 KB.)
func TestSeedingStreamsAllocatesLittle(t *testing.T) {
	reg := registryNone(t)
	e := New(GoogleEmulator, reg)
	// A launcher that does nothing: the run reaches it at event 0 and draws
	// only the speed, so what it allocates is the log, the result, the
	// one-entry list of active activities and the streams.
	p := &behavior.Program{PackageName: "com.emu.quiet", Version: 1, Seed: 9,
		Activities: []behavior.ActivityBehavior{{Name: "Main", Referenced: true, ReachRate: 1}}}
	cfg := mk(3)
	if _, err := e.Run(p, cfg); err != nil {
		t.Fatal(err)
	}
	type active struct {
		ab    *behavior.ActivityBehavior
		start float64
	}
	var (
		sink    *Result
		actives []active
	)
	run := func() { sink, _ = e.RunContext(context.Background(), p, cfg) }
	bare := func() {
		l := hook.NewLog(reg)
		sink = &Result{Log: l}
		l.ObserveActivity("Main")
		actives = append([]active(nil), active{&p.Activities[0], 0})
		l.Seal()
	}
	runAllocs, runBytes := leastPerRun(200, run)
	bareAllocs, bareBytes := leastPerRun(200, bare)
	if n := runAllocs - bareAllocs; n > 4 {
		t.Errorf("seeding the two streams costs %d allocations, want at most 4", n)
	}
	if b := runBytes - bareBytes; b > 64 {
		t.Errorf("seeding the two streams costs %d bytes, want at most 64", b)
	}
	_, _ = sink, actives
}

// leastPerRun returns the fewest allocations and bytes one call of f made
// over runs calls. The least, not testing.AllocsPerRun's mean: the hook
// log's index table comes from a sync.Pool, which a GC (and, at random, the
// race detector) empties, and a refill is 12 KB on one side of a 64-byte
// comparison. Noise only ever adds, so the minimum is the call's own cost.
func leastPerRun(runs int, f func()) (allocs, bytes int64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	allocs, bytes = math.MaxInt64, math.MaxInt64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, int64(after.Mallocs-before.Mallocs))
		bytes = min(bytes, int64(after.TotalAlloc-before.TotalAlloc))
	}
	return allocs, bytes
}
