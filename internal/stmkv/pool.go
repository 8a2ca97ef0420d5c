package stmkv

import (
	"context"
	"fmt"
)

// ThreadPool multiplexes an unbounded population of goroutines onto a
// TM's fixed, 1-based thread ids. The core.TM contract requires each
// thread id to be used by at most one goroutine at a time, which fits
// a fixed worker set but not a network server that spawns a goroutine
// per connection; the pool closes that gap — a handler acquires an id
// for the duration of one store operation and releases it, so at most
// one operation per id runs at a time.
//
// The pool is a buffered channel underneath: AcquireCtx blocks when all
// ids are in flight, providing natural admission control (excess
// requests queue in the scheduler instead of violating the TM's
// threading contract).
type ThreadPool struct {
	ids   chan int
	first int
	count int
}

// NewThreadPool builds a pool over the thread ids first..first+count-1.
func NewThreadPool(first, count int) (*ThreadPool, error) {
	if first < 1 || count < 1 {
		return nil, fmt.Errorf("stmkv: bad thread pool range first=%d count=%d (ids are 1-based)", first, count)
	}
	p := &ThreadPool{ids: make(chan int, count), first: first, count: count}
	for id := first; id < first+count; id++ {
		p.ids <- id
	}
	return p, nil
}

// AcquireCtx blocks until a thread id is free and returns it; the
// caller owns the id until Release. It returns ctx.Err() if the context
// ends before an id frees up (a cancelled request stops queueing for
// the store instead of occupying a handler forever).
func (p *ThreadPool) AcquireCtx(ctx context.Context) (int, error) {
	select {
	case id := <-p.ids:
		return id, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Release returns an id obtained from AcquireCtx to the pool.
// Releasing an id the pool did not hand out corrupts the accounting;
// the double-release panic below catches the common form (the channel
// is sized exactly to the id count).
func (p *ThreadPool) Release(id int) {
	if id < p.first || id >= p.first+p.count {
		panic(fmt.Sprintf("stmkv: Release of thread id %d outside pool range [%d,%d)", id, p.first, p.first+p.count))
	}
	select {
	case p.ids <- id:
	default:
		panic(fmt.Sprintf("stmkv: double Release of thread id %d", id))
	}
}
