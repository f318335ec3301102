package vetsvc

import (
	"context"
	"errors"
	"sync"
	"testing"

	"apichecker/internal/core"
	"apichecker/internal/vcache"
)

// TestTicketWaitersRaceSettle: ticket waiters whose ctx is cancelled at the
// moment settle fires, beside waiters that are never cancelled, round after
// round on fresh records. A waiter never cancelled returns the settled
// verdict; a cancelled one returns it or its ctx's error. The waiters'
// channels are reused from round to round, so a wake left on one — sent
// by a settle to a waiter that had given up — would wake its next waiter
// before its record settles, and that Wait would return neither a verdict
// nor an error.
func TestTicketWaitersRaceSettle(t *testing.T) {
	const rounds, waiters = 300, 8
	want := &core.Verdict{}
	for range rounds {
		r := newRecord(1, "p", "")
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range waiters {
			cancellable := i%2 == 1
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			wg.Add(2)
			go func() {
				defer wg.Done()
				v, err := r.ticket.Wait(ctx)
				switch {
				case err == nil && v != want:
					t.Errorf("waiter %d: Wait = %v, nil before its record settled", i, v)
				case err != nil && (!cancellable || !errors.Is(err, context.Canceled)):
					t.Errorf("waiter %d: Wait = %v", i, err)
				}
			}()
			go func() {
				defer wg.Done()
				<-start
				if cancellable {
					cancel()
				}
			}()
		}
		close(start)
		r.settle(want, vcache.OutcomeMiss, nil, func() {})
		wg.Wait()
	}
}
