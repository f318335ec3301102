package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"apichecker/internal/apk"
	"apichecker/internal/core"
	"apichecker/internal/dataset"
	"apichecker/internal/framework"
	"apichecker/internal/parallel"
)

// sizes fixes how much input a run builds and how long its phases last.
// Run length is the benchmark's, not the caller's: only -smoke and the
// driver's -seconds change it.
type sizes struct {
	apis      int     // universe size
	trainApps int     // labelled corpus the checker trains on
	payloads  int     // |P|, the unique raw archives
	dupDraws  int     // Zipf draws per dup_http pass, and the ladder's length
	probeOps  int     // iterations of each layer probe
	setups    int     // set-ups per run; setup_s is their median
	seconds   float64 // length of one timed phase
}

var (
	fullSizes  = sizes{apis: 6000, trainApps: 900, payloads: 4000, dupDraws: 20000, probeOps: 400, setups: 3, seconds: runSeconds}
	smokeSizes = sizes{apis: 3000, trainApps: 300, payloads: 200, dupDraws: 1000, probeOps: 40, setups: 1, seconds: 0.3}
)

// nproc is the parallelism every client, lane, node and connection count
// derives from, so the load generator never oversubscribes the box it
// shares with the program under test.
func nproc() int {
	return min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// inputs is everything a workload is made from, all derived from the seed.
type inputs struct {
	seed     int64
	u        *framework.Universe
	corpus   *dataset.Corpus
	payloads [][]byte // P: unique raw archives
}

func universeFor(apis int, seed int64) (*framework.Universe, error) {
	cfg := framework.TestConfig(apis)
	cfg.Seed = seed
	return framework.Generate(cfg)
}

func corpusFor(u *framework.Universe, apps int, seed int64) (*dataset.Corpus, error) {
	cfg := dataset.DefaultConfig()
	cfg.Seed = seed
	cfg.NumApps = apps
	return dataset.Generate(u, cfg)
}

// buildInputs generates the universe, the training corpus and the payload
// set P for one seed. P comes from its own corpus (seed+11) so no payload
// is a training app; archives are built on nproc goroutines.
func buildInputs(seed int64, sz sizes) (*inputs, error) {
	u, err := universeFor(sz.apis, seed)
	if err != nil {
		return nil, err
	}
	corpus, err := corpusFor(u, sz.trainApps, seed)
	if err != nil {
		return nil, err
	}
	pc, err := corpusFor(u, max(sz.payloads, 20), seed+11)
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: seed, u: u, corpus: corpus, payloads: make([][]byte, sz.payloads)}
	errs := make([]error, sz.payloads)
	parallel.Run(sz.payloads, nproc(), func(i int) {
		in.payloads[i], errs[i] = apk.Build(pc.Program(i), u)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// checkerConfig is the checker shape every deployment, probe and ladder
// rung shares. The verdict cache holds twice |P|: its bound is enforced per
// shard, and at the default 4096 a few of 4000 warm entries would be
// evicted from the fuller shards, so the all-hit workloads would not be.
// band turns the tier-1 triage pre-screen on at [0.05, 0.95].
func (in *inputs) checkerConfig(band bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.VerdictCache = 2 * len(in.payloads)
	if band {
		cfg.TriageLo, cfg.TriageHi = 0.05, 0.95
	}
	return cfg
}

// train builds a checker over the inputs' corpus and returns the wall
// seconds training took. persistDir, when set, puts the file-backed tier
// under the verdict cache.
func (in *inputs) train(band bool, persistDir string) (*core.Checker, float64, error) {
	cfg := in.checkerConfig(band)
	cfg.VerdictPersistDir = persistDir
	t0 := time.Now()
	ck, _, err := core.TrainFromCorpus(in.corpus, cfg)
	return ck, time.Since(t0).Seconds(), err
}

// oracle is the correctness reference: a serial core.Vet loop over P on a
// checker trained separately from the one under test (same seed, same
// band). Verdicts derive from content alone, so every deployment must
// return exactly these, whatever its lanes, caches, queues or wires did.
func (in *inputs) oracle(band bool) ([]core.Verdict, error) {
	ck, _, err := in.train(band, "")
	if err != nil {
		return nil, err
	}
	ref := make([]core.Verdict, len(in.payloads))
	for i, raw := range in.payloads {
		v, err := ck.Vet(context.Background(), core.Submission{Raw: raw})
		if err != nil {
			return nil, fmt.Errorf("oracle vet of payload %d: %w", i, err)
		}
		ref[i] = *v
	}
	return ref, nil
}

// sameVerdict compares a served verdict with the reference. Generation is
// the one field left out: it counts hot-swaps, and the benchmark empties
// caches between passes through SwapModel.
func sameVerdict(got *core.Verdict, want *core.Verdict) bool {
	if got == nil {
		return false
	}
	g := *got
	g.Generation = want.Generation
	return g == *want
}

// zipfDraws returns n payload indexes drawn Zipf(s=1.1) over [0, p): the
// duplicate-heavy stream of the HTTP workloads and the ladder.
func zipfDraws(seed int64, p, n int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.1, 1, uint64(p-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}

// identity returns 0..p-1: one pass over every archive of P.
func identity(p int) []int32 {
	out := make([]int32, p)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// shuffledTwice returns every index of [0, p) twice, in blocks of block
// indexes shuffled from the seed: half of a pass is duplicates, at
// unpredictable distances of up to two blocks' worth. Shuffling block by
// block, not the whole pass, gives every chunk of a timed phase the same
// share of duplicates; one shuffle over the pass would start it with nothing
// but first sightings and end it with nothing but repeats.
func shuffledTwice(seed int64, p, block int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, 0, 2*p)
	for lo := 0; lo < p; lo += block {
		at := len(out)
		for i := lo; i < min(lo+block, p); i++ {
			out = append(out, int32(i), int32(i))
		}
		part := out[at:]
		rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
	}
	return out
}

// distinct returns the indexes of seq once each, in first-seen order.
func distinct(seq []int32) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, i := range seq {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}
