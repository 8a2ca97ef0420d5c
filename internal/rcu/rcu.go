// Package rcu implements the transactional fence as an RCU-style grace
// period (§1 and Figure 7 lines 33–39 of the paper, after Gotsman,
// Rinetzky and Yang [17]): a fence blocks until every transaction that
// was active when the fence was invoked completes. Every TM's fence
// runs through one Fence.
//
// Each thread keeps one padded counter that is odd while it runs a
// transaction (Enter and Exit each add 1). A grace period snapshots
// the odd counters, then waits for each observed thread. The two
// variants, chosen by New's epochs argument, differ only in when that
// wait ends:
//
//   - flags (the paper's Figure 7): once the thread's counter is seen
//     even. A thread that ends one transaction and starts another
//     between two polls is still seen busy, so the fence also waits
//     for transactions that began after it was invoked, with no bound:
//     a thread that runs transactions back to back can hold it until
//     a poll happens to fall between two of them.
//   - epochs: once the counter has left its snapshotted value, so the
//     fence waits for at most one transaction per thread it observed:
//     the one running at its snapshot.
//
// Both meet the paper's specification of the fence (it returns once
// every transaction active at the call has completed): epochs exactly,
// flags by over-approximation. Epochs is the engine's default wherever
// a TM offers both, and flags the paper-literal ablation (+flags);
// experiment E14 compares the two.
//
// The wait is scheduler-aware: a fencer spins briefly and then parks on
// a condition variable that Exit signals, so on an oversubscribed box
// the fence sleeps until the observed transactions actually finish
// instead of burning (or starving behind) CPU-bound transaction
// threads. Exit pays one extra atomic load; it broadcasts only while a
// fencer is parked. Snapshot buffers are pooled, so the steady-state
// fence allocates nothing.
package rcu

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"safepriv/internal/telemetry"
)

// slot is one thread's counter, on its own cache line.
type slot struct {
	seq atomic.Uint64 // odd while a transaction is active
	_   [64]byte
}

// Fence tracks per-thread transaction activity and runs grace periods
// over it. Thread ids are 1-based and at most the count given to New.
type Fence struct {
	slots  []slot
	epochs bool
	board  *telemetry.Board
	// w is the state fencers write, kept in its own allocation away
	// from the header every Enter and Exit reads.
	w *waker
}

// waker parks fencers between transaction exits and pools their
// snapshot buffers.
type waker struct {
	mu      sync.Mutex
	cond    sync.Cond
	waiters atomic.Int32
	bufs    sync.Pool // *[]uint64, one per concurrent grace period
}

// New returns a fence for thread ids 1..threads. epochs selects the
// epoch wait instead of the flag wait. A non-nil board receives each
// Wait's count and duration in its shared slot 0: the fence is the slow
// path by construction, so one padded shared slot costs nothing
// measurable. The board also counts its commits off the fence: each
// thread's counter, halved, is the transactions it has ended, and
// ExitAborted counts the ones that did not commit.
func New(threads int, epochs bool, board *telemetry.Board) *Fence {
	w := &waker{}
	w.cond.L = &w.mu
	f := &Fence{slots: make([]slot, threads+1), epochs: epochs, board: board, w: w}
	if board != nil {
		board.CountEnded(f.ended)
	}
	return f
}

// ended is how many transactions thread t has ended: Enter and Exit
// each add one to its counter.
func (f *Fence) ended(t int) int64 {
	if t >= len(f.slots) {
		return 0
	}
	return int64(f.slots[t].seq.Load() / 2)
}

// Enter marks thread t as running a transaction (Figure 9 line 10:
// active[t] := true).
func (f *Fence) Enter(t int) { f.slots[t].seq.Add(1) }

// Exit marks thread t's transaction complete (active[t] := false) and
// wakes parked fencers.
func (f *Fence) Exit(t int) {
	f.slots[t].seq.Add(1)
	if f.w.waiters.Load() != 0 {
		f.w.mu.Lock()
		f.w.cond.Broadcast()
		f.w.mu.Unlock()
	}
}

// ExitAborted is Exit for a transaction that ends without committing.
// It counts the transaction on the board's Uncommitted first, so the
// commits the board derives never include it (telemetry.Snapshot).
func (f *Fence) ExitAborted(t int) {
	if sl := f.board.Slot(t); sl != nil {
		sl.Uncommitted.Add(1)
	}
	f.Exit(t)
}

// Wait is the paper's fence: it blocks until every transaction active
// at the time of the call has completed. It must not be called inside a
// transaction.
func (f *Fence) Wait() {
	sl := f.board.Slot(0)
	var start time.Time
	if sl != nil {
		start = time.Now()
	}
	f.wait(nil)
	if sl != nil {
		sl.Fences.Add(1)
		sl.FenceWaitNs.Add(time.Since(start).Nanoseconds())
	}
}

// WaitFiltered is the buggy filtered fence: it waits only for active
// threads keep reports true for at snapshot time (the GCC libitm
// skip-read-only bug, [43] in the paper). It is not counted on the
// board.
func (f *Fence) WaitFiltered(keep func(thread int) bool) { f.wait(keep) }

// wait runs one grace period over a pooled snapshot buffer.
func (f *Fence) wait(keep func(int) bool) {
	b, _ := f.w.bufs.Get().(*[]uint64)
	if b == nil {
		g := make([]uint64, len(f.slots))
		b = &g
	}
	f.snapshot(*b, keep)
	f.await(*b)
	f.w.bufs.Put(b)
}

// snapshot is the first pass of Figure 7 (r[t] := active[t]): g[t]
// becomes thread t's counter if it is odd and kept, else 0 (nothing to
// wait for). keep == nil keeps every thread.
func (f *Fence) snapshot(g []uint64, keep func(int) bool) {
	for t := 1; t < len(g); t++ {
		s := f.slots[t].seq.Load()
		if s%2 == 0 || keep != nil && !keep(t) {
			s = 0
		}
		g[t] = s
	}
}

// quiesced is one non-blocking step of Figure 7's second pass: true
// once every thread observed in g has finished. It clears the entries
// of threads it sees finished, so a thread that ends and restarts
// between polls is not re-awaited; every poll of one grace period must
// pass the same g.
func (f *Fence) quiesced(g []uint64) bool {
	done := true
	for t := 1; t < len(g); t++ {
		if g[t] == 0 {
			continue
		}
		s := f.slots[t].seq.Load()
		busy := s == g[t] // epochs: still the observed transaction
		if !f.epochs {
			busy = s%2 == 1 // flags: any transaction
		}
		if busy {
			done = false
		} else {
			g[t] = 0
		}
	}
	return done
}

// await spins briefly (the common case: the observed transactions are
// already gone or finish within a few yields), then parks until
// quiesced(g). The test is repeated under the waker's lock, so an Exit
// that lands between the test and the park is never missed: its
// broadcast and our wait are ordered by the same mutex.
func (f *Fence) await(g []uint64) {
	for i := 0; i < 64; i++ {
		if f.quiesced(g) {
			return
		}
		runtime.Gosched()
	}
	w := f.w
	w.waiters.Add(1)
	w.mu.Lock()
	for !f.quiesced(g) {
		w.cond.Wait()
	}
	w.mu.Unlock()
	w.waiters.Add(-1)
}
