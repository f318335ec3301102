package workqueue

import "sync"

// Waiter is one blocked goroutine's wake-up: a channel of capacity one
// that WaitList.WakeAll signals, linked into the list of what it waits on.
// Waiters come from a free list and return to it drained, so once the list
// is warm a wait allocates nothing: a queue's blocked claimers wait on
// them, and so does a vetting service's Ticket.Wait.
type Waiter struct {
	C    chan struct{}
	next *Waiter
}

// WaitList is the goroutines blocked on one condition. Its owner's lock
// guards every call; the zero value is empty.
type WaitList struct{ head *Waiter }

// Add registers a waiter. The caller unlocks, blocks on its C (and on
// whatever else ends the wait), then, under the lock again, hands it to
// Done.
func (l *WaitList) Add() *Waiter {
	w := freeWaiters.get()
	w.next, l.head = l.head, w
	return w
}

// WakeAll signals every registered waiter and empties the list. With
// nothing waiting it does nothing.
func (l *WaitList) WakeAll() {
	for w := l.head; w != nil; {
		next := w.next
		w.next = nil
		select {
		case w.C <- struct{}{}:
		default: // unreachable: a waiter leaves the list when signalled
		}
		w = next
	}
	l.head = nil
}

// Done ends w's wait, however it ended: w leaves the list if WakeAll has
// not taken it off, drops a signal it was sent and did not receive, and
// goes back to the free list. Both happen under the lock WakeAll runs
// under, so the next waiter handed w never sees a stale wake.
func (l *WaitList) Done(w *Waiter) {
	for p := &l.head; *p != nil; p = &(*p).next {
		if *p == w {
			*p, w.next = w.next, nil
			break
		}
	}
	select {
	case <-w.C:
	default:
	}
	freeWaiters.put(w)
}

// maxFreeWaiters bounds the free list, so a burst of waiters does not
// keep its channels for good.
const maxFreeWaiters = 1024

// freeWaiters is the one free list of drained, unlinked waiters. A mutex
// rather than a sync.Pool: a pool is emptied at every GC, so a warm wait
// would still allocate now and then.
var freeWaiters waiterPool

type waiterPool struct {
	mu   sync.Mutex
	head *Waiter
	n    int
}

func (p *waiterPool) get() *Waiter {
	p.mu.Lock()
	w := p.head
	if w != nil {
		p.head, w.next = w.next, nil
		p.n--
	}
	p.mu.Unlock()
	if w == nil {
		w = &Waiter{C: make(chan struct{}, 1)}
	}
	return w
}

func (p *waiterPool) put(w *Waiter) {
	p.mu.Lock()
	if p.n < maxFreeWaiters {
		w.next, p.head = p.head, w
		p.n++
	}
	p.mu.Unlock()
}
