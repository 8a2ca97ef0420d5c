// Package rcu implements transactional fences as RCU-style grace
// periods (§1 and Figure 7 lines 33–39 of the paper, after Gotsman,
// Rinetzky and Yang [17]): a fence blocks until every transaction that
// was active when the fence was invoked completes.
//
// Two implementations are provided:
//
//   - Flags: the paper's two-pass algorithm over per-thread active
//     flags (Figure 7): snapshot the flags, then wait for each flagged
//     thread to clear its flag.
//   - Epochs: a sequence-counter grace period in the style of RCU
//     quiescent-state detection: each thread's counter is odd while a
//     transaction is active; a fence waits until every odd counter
//     observed in its snapshot has changed.
//
// The Flags fence can wait for a *later* transaction of the same thread
// if the thread completes one transaction and starts another between
// the fence's two passes — harmless (it only waits longer). The Epochs
// fence waits for exactly the observed transaction. Benchmarks compare
// the two (experiment E14).
//
// Both quiescers also expose the grace period in split form
// (Snapshotter): SnapshotInto captures the set of in-flight
// transactions without blocking, and Quiesced polls whether they have
// all finished. internal/quiesce runs its fences on the split form: the
// snapshot buffer is caller-owned, so repeated grace periods allocate
// nothing.
//
// Grace-period waits are scheduler-aware (Parker): a waiter spins
// briefly and then parks on a condition variable that Exit signals, so
// on an oversubscribed box the fence sleeps until the observed
// transactions actually finish instead of burning (or, worse, starving
// behind) CPU-bound transaction threads with a poll loop. The Exit
// fast path pays one extra atomic load; the broadcast happens only
// while a waiter is parked.
package rcu

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Quiescer tracks per-thread transaction activity and implements the
// fence's wait. Thread ids are 1-based and must be < the size the
// quiescer was created with.
type Quiescer interface {
	// Enter marks thread t as running a transaction (Figure 9 line 10:
	// active[t] := true).
	Enter(t int)
	// Exit marks thread t's transaction complete (abort/commit handler:
	// active[t] := false).
	Exit(t int)
	// Active reports whether thread t currently runs a transaction.
	Active(t int) bool
	// Wait blocks until every transaction active at the time of the
	// call has completed (the fence body).
	Wait()
}

// Gen is a grace-period snapshot: one word per thread id, recording the
// activity state observed at snapshot time. Entry 0 of a thread is the
// universal "nothing to wait for" value — callers may zero an entry
// (see Drop) to exclude that thread from the grace period.
type Gen []uint64

// Drop excludes thread t from the snapshot's grace period.
func (g Gen) Drop(t int) {
	if t < len(g) {
		g[t] = 0
	}
}

// Snapshotter is a Quiescer whose grace period is available in split
// form: capture a snapshot, then poll it. The contract mirrors Wait:
// once Quiesced(g) returns true, every transaction that was active at
// SnapshotInto time has completed.
type Snapshotter interface {
	Quiescer
	// SnapshotInto overwrites g (growing it if needed) with the current
	// activity snapshot and returns it. A nil g allocates.
	SnapshotInto(g Gen) Gen
	// Quiesced polls the snapshot: true once every thread observed
	// active in g has since completed its observed transaction.
	// Quiesced clears the entries of threads it has seen complete, so a
	// thread that finishes and immediately starts a new transaction
	// between polls is not re-awaited; callers must pass the same g to
	// every poll of one grace period.
	Quiesced(g Gen) bool
}

// Parker is a Snapshotter whose grace-period wait can park the caller:
// WaitQuiesced blocks until Quiesced(g) holds, sleeping on a condition
// variable that transaction exits signal instead of polling. Flags,
// Epochs and NoOp implement it; internal/quiesce waits through it.
type Parker interface {
	Snapshotter
	// WaitQuiesced blocks until every thread observed active in g has
	// completed its observed transaction (same contract as polling
	// Quiesced(g) to true). The caller must own g exclusively.
	WaitQuiesced(g Gen)
}

// waker parks grace-period waiters between transaction exits. wake is
// called on every Exit; it broadcasts only when a waiter is actually
// parked (one atomic load otherwise).
type waker struct {
	mu      sync.Mutex
	cond    sync.Cond
	waiters atomic.Int32
}

func newWaker() *waker {
	w := &waker{}
	w.cond.L = &w.mu
	return w
}

func (w *waker) wake() {
	if w.waiters.Load() == 0 {
		return
	}
	w.mu.Lock()
	w.cond.Broadcast()
	w.mu.Unlock()
}

// await spins briefly (the common case: the observed transactions are
// already gone or finish within a few yields), then parks until done()
// reports true. done is re-checked under the waker's lock, so an Exit
// that lands between the check and the park is never missed: its
// broadcast and our wait are ordered by the same mutex.
func (w *waker) await(done func() bool) {
	for i := 0; i < 64; i++ {
		if done() {
			return
		}
		runtime.Gosched()
	}
	w.waiters.Add(1)
	w.mu.Lock()
	for !done() {
		w.cond.Wait()
	}
	w.mu.Unlock()
	w.waiters.Add(-1)
}

// waitSnapshot is the shared Wait body: one grace period via the split
// API, parked between exits.
func waitSnapshot(p Parker) {
	g := p.SnapshotInto(nil)
	p.WaitQuiesced(g)
}

// cacheLinePad separates per-thread words to avoid false sharing.
type cacheLinePad [64]byte

type flagSlot struct {
	active atomic.Uint32
	_      cacheLinePad
}

// Flags is the paper's flag-based fence (Figure 7).
type Flags struct {
	slots []flagSlot
	w     *waker
}

// NewFlags returns a flag quiescer for thread ids 1..n.
func NewFlags(n int) *Flags { return &Flags{slots: make([]flagSlot, n+1), w: newWaker()} }

// Enter implements Quiescer.
func (f *Flags) Enter(t int) { f.slots[t].active.Store(1) }

// Exit implements Quiescer.
func (f *Flags) Exit(t int) {
	f.slots[t].active.Store(0)
	f.w.wake()
}

// Active implements Quiescer.
func (f *Flags) Active(t int) bool { return f.slots[t].active.Load() == 1 }

// SnapshotInto implements Snapshotter: the first pass of Figure 7
// (r[t] := active[t]).
func (f *Flags) SnapshotInto(g Gen) Gen {
	g = sizeGen(g, len(f.slots))
	for t := 1; t < len(f.slots); t++ {
		g[t] = uint64(f.slots[t].active.Load())
	}
	return g
}

// Quiesced implements Snapshotter: the second pass of Figure 7, one
// non-blocking step at a time. A thread observed with its flag clear is
// dropped from the snapshot (it completed the observed transaction; a
// newer transaction of the same thread is not waited for).
func (f *Flags) Quiesced(g Gen) bool {
	done := true
	for t := 1; t < len(g) && t < len(f.slots); t++ {
		if g[t] == 0 {
			continue
		}
		if f.slots[t].active.Load() == 1 {
			done = false
		} else {
			g[t] = 0
		}
	}
	return done
}

// WaitQuiesced implements Parker: the second pass of Figure 7 as a
// parked wait instead of a spin.
func (f *Flags) WaitQuiesced(g Gen) { f.w.await(func() bool { return f.Quiesced(g) }) }

// Wait implements the two-pass fence of Figure 7 lines 33–39.
func (f *Flags) Wait() { waitSnapshot(f) }

type epochSlot struct {
	seq atomic.Uint64 // odd while a transaction is active
	_   cacheLinePad
}

// Epochs is a sequence-counter grace-period fence.
type Epochs struct {
	slots []epochSlot
	w     *waker
}

// NewEpochs returns an epoch quiescer for thread ids 1..n.
func NewEpochs(n int) *Epochs { return &Epochs{slots: make([]epochSlot, n+1), w: newWaker()} }

// Enter implements Quiescer: the counter becomes odd.
func (e *Epochs) Enter(t int) { e.slots[t].seq.Add(1) }

// Exit implements Quiescer: the counter becomes even.
func (e *Epochs) Exit(t int) {
	e.slots[t].seq.Add(1)
	e.w.wake()
}

// Active implements Quiescer.
func (e *Epochs) Active(t int) bool { return e.slots[t].seq.Load()%2 == 1 }

// SnapshotInto implements Snapshotter: record each odd (in-transaction)
// sequence number; even counters need no wait and record as 0.
func (e *Epochs) SnapshotInto(g Gen) Gen {
	g = sizeGen(g, len(e.slots))
	for t := 1; t < len(e.slots); t++ {
		if s := e.slots[t].seq.Load(); s%2 == 1 {
			g[t] = s
		} else {
			g[t] = 0
		}
	}
	return g
}

// Quiesced implements Snapshotter: a thread is done once its counter
// moved off the snapshotted odd value (the observed transaction exited,
// whatever the thread did afterwards).
func (e *Epochs) Quiesced(g Gen) bool {
	done := true
	for t := 1; t < len(g) && t < len(e.slots); t++ {
		if g[t] == 0 {
			continue
		}
		if e.slots[t].seq.Load() == g[t] {
			done = false
		} else {
			g[t] = 0
		}
	}
	return done
}

// WaitQuiesced implements Parker.
func (e *Epochs) WaitQuiesced(g Gen) { e.w.await(func() bool { return e.Quiesced(g) }) }

// Wait blocks until every counter observed odd has changed.
func (e *Epochs) Wait() { waitSnapshot(e) }

// sizeGen returns g resized to n entries (reusing its backing array
// when large enough).
func sizeGen(g Gen, n int) Gen {
	if cap(g) < n {
		return make(Gen, n)
	}
	return g[:n]
}

// NoOp is a quiescer whose Wait returns immediately: the "unsafe
// privatization" baseline used to reproduce the delayed-commit and
// doomed-transaction anomalies (experiments E1, E2).
type NoOp struct {
	inner Quiescer
}

// NewNoOp wraps a real quiescer for Enter/Exit/Active bookkeeping but
// makes Wait a no-op.
func NewNoOp(n int) *NoOp { return &NoOp{inner: NewFlags(n)} }

// Enter implements Quiescer.
func (q *NoOp) Enter(t int) { q.inner.Enter(t) }

// Exit implements Quiescer.
func (q *NoOp) Exit(t int) { q.inner.Exit(t) }

// Active implements Quiescer.
func (q *NoOp) Active(t int) bool { return q.inner.Active(t) }

// Wait implements Quiescer by not waiting.
func (q *NoOp) Wait() {}

// SnapshotInto implements Snapshotter with an empty snapshot.
func (q *NoOp) SnapshotInto(g Gen) Gen { return sizeGen(g, 0) }

// Quiesced implements Snapshotter: an empty snapshot is always done.
func (q *NoOp) Quiesced(g Gen) bool { return true }

// WaitQuiesced implements Parker by not waiting.
func (q *NoOp) WaitQuiesced(g Gen) {}
