// Package parallel provides the one bounded-parallel-map primitive every
// fan-out in the system shares: the corpus emulation passes
// (dataset.Corpus), the serving lanes (worker.Executor, which bounds how
// many vets emulate at once), the per-API Spearman sweep
// (features.SelectKeyAPIs) and the forest's tree training and batch
// scoring (ml.RandomForest).
//
// The contract is deliberately narrow: indices are dispatched to a bounded
// worker set, fn(i) runs exactly once per index, and Run returns only when
// every call has finished. Determinism is the caller's job — write to
// index i of a pre-sized slice and derive any per-item randomness from i,
// never from scheduling order.
package parallel

import (
	"runtime"
	"sync"
)

// Run invokes fn(i) for every i in [0, n) using at most workers
// goroutines. workers <= 0 selects GOMAXPROCS. fn must be safe to call
// concurrently; Run blocks until all calls return.
func Run(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	idxCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
}
