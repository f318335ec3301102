package workqueue

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNoLostWakeups hammers the queue's one wake mechanism. Claimers that
// block with no bound are the only ones that take items: plain Claims in
// one run, and in the other one ClaimWhere per key, each the only taker of
// its key's items. Beside them churners register and drop waiters without
// end (a filter that takes nothing, under a bounded until or a ctx that is
// cancelled), while items are enqueued, acked, nacked or abandoned to the
// lease TTL, then the queue is shut down under AwaitDrained. A wake-up lost
// by a blocked claimer strands an item it alone could take, and the run
// never drains; a stale wake left on a reused channel hands a churner's
// wait a wake-up meant for no one, which only costs a rescan. Every item
// is acked exactly once, and AwaitDrained returns only after the last ack.
func TestNoLostWakeups(t *testing.T) {
	const keys = 4
	for _, tc := range []struct {
		name   string
		accept func(k int) func(Item) bool
	}{
		{"Claim", func(int) func(Item) bool { return nil }},
		{"ClaimWhere", func(k int) func(Item) bool {
			key := fmt.Sprint(k)
			return func(it Item) bool { return it.Key == key }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hammerWakes(t, keys, tc.accept)
		})
	}
}

func hammerWakes(t *testing.T, keys int, accept func(k int) func(Item) bool) {
	const items = 600
	q, _ := mustOpen(t, Config{
		Capacity:    16,
		LeaseTTL:    20 * time.Millisecond,
		MaxAttempts: 1 << 20,
		OnDead:      func(it Item, err error) { t.Errorf("seq %d dead-lettered: %v", it.Seq, err) },
	})
	defer q.Close()

	var (
		mu    sync.Mutex
		acked = map[int64]int{}
		total atomic.Int64
	)
	work := func(l Lease, r *rand.Rand) {
		switch n := r.IntN(100); {
		case n < 2: // abandoned: the lease TTL hands the item on
		case n < 12:
			if _, err := l.Nack(errors.New("again")); err != nil && !errors.Is(err, ErrLeaseLost) {
				t.Errorf("nack: %v", err)
			}
		default:
			if err := l.Ack(); err == nil {
				mu.Lock()
				acked[l.Item().Seq]++
				mu.Unlock()
				total.Add(1)
			} else if !errors.Is(err, ErrLeaseLost) {
				t.Errorf("ack: %v", err)
			}
		}
	}

	// A stranded item stalls the run: the queue fills and Acquire blocks,
	// or the drain never ends. stop then ends ctx, which every wait of the
	// run is under, so nothing reports after the test has returned.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var claimers sync.WaitGroup
	stop := func(format string, args ...any) {
		t.Errorf(format, args...)
		t.Errorf("stalled at %d of %d acked: %+v", total.Load(), items, q.Stats())
		cancel()
		claimers.Wait()
	}
	for k := range keys {
		claimers.Add(1)
		go func() {
			defer claimers.Done()
			r := rand.New(rand.NewPCG(uint64(k), 1))
			for {
				l, err := q.ClaimWhere(ctx, time.Time{}, accept(k))
				if errors.Is(err, ErrDrained) || ctx.Err() != nil {
					return
				}
				if err != nil {
					t.Errorf("claimer %d: %v", k, err)
					return
				}
				work(l, r)
			}
		}()
	}
	nothing := func(Item) bool { return false }
	for c := range 3 {
		claimers.Add(1)
		go func() {
			defer claimers.Done()
			r := rand.New(rand.NewPCG(uint64(c), 2))
			for {
				var err error
				wait := time.Duration(r.IntN(2000)) * time.Microsecond
				if c%2 == 0 {
					_, err = q.ClaimWhere(ctx, time.Now().Add(wait), nothing)
				} else {
					bounded, cancel := context.WithTimeout(ctx, wait)
					_, err = q.ClaimWhere(bounded, time.Time{}, nothing)
					cancel()
				}
				switch {
				case errors.Is(err, ErrDrained), ctx.Err() != nil:
					return
				case errors.Is(err, ErrNothingClaimable), errors.Is(err, context.DeadlineExceeded):
				default:
					t.Errorf("churner %d: %v", c, err)
					return
				}
			}
		}()
	}

	for i := range items {
		if err := q.Acquire(ctx); err != nil {
			stop("enqueue %d: %v", i, err)
			return
		}
		if _, err := q.Enqueue(Item{Key: fmt.Sprint(i % keys)}); err != nil {
			t.Fatal(err)
		}
	}
	q.Shutdown()
	drained := make(chan int64, 1)
	go func() {
		q.AwaitDrained(ctx) //nolint:errcheck // a stall shows as ctx's end below
		drained <- total.Load()
	}()
	if n := <-drained; ctx.Err() != nil {
		stop("not drained: %v", ctx.Err())
		return
	} else if n != items {
		t.Errorf("AwaitDrained returned after %d of %d acks", n, items)
	}
	claimers.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(acked) != items {
		t.Errorf("%d items acked, want %d", len(acked), items)
	}
	for seq, n := range acked {
		if n != 1 {
			t.Errorf("seq %d acked %d times", seq, n)
		}
	}
}
