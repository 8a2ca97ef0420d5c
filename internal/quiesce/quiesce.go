// Package quiesce is the shared quiescence service behind every TM's
// transactional fence: the paper's grace-period wait (Figure 7,
// implemented by internal/rcu) promoted from a per-TM private loop to
// one subsystem with three fence modes — the STM analogue of RCU's
// synchronize_rcu → call_rcu evolution:
//
//   - Wait: every Fence call runs its own grace period and blocks for
//     it (the paper's fence, exactly as before).
//   - Combine: concurrent Fence calls coalesce. A caller that arrives
//     while a grace period is in flight does not start its own; it
//     waits for the next one, which a single leader runs on behalf of
//     every caller that arrived before it started. K concurrent
//     privatizers pay for O(1) grace periods instead of K.
//   - Defer: Fence callers never have to block at all — Defer(t, fn)
//     registers a callback that a background reclaimer runs after a
//     grace period that starts after registration, batching all
//     callbacks registered in the meantime under one grace period
//     (call_rcu). Synchronous Fence still works in this mode: it rides
//     the reclaimer's batch as a no-op callback.
//
// The service also carries the per-thread activity bookkeeping
// (Enter/Exit/Active delegate to the underlying rcu quiescer) so TMs
// hold one object instead of a quiescer plus fence logic, and a
// filtered fence (FenceFiltered) so the deliberately buggy
// skip-read-only fence of the GCC libitm bug reproduction is expressed
// as a predicate over the shared machinery rather than a fourth private
// wait loop.
//
// Deferred callbacks run on a single reclaimer goroutine, serially, in
// registration order, and receive a caller-reserved thread id (distinct
// from every application thread id) valid for transactional and
// non-transactional TM access for the duration of the callback. The
// reclaimer is started lazily and exits whenever its queue drains, so
// an idle or abandoned service holds no goroutine. Callbacks must not
// call Fence or Barrier on the same service (self-deadlock); running
// transactions is fine.
package quiesce

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"safepriv/internal/rcu"
	"safepriv/internal/telemetry"
)

// Mode selects how Fence waits out the grace period.
type Mode int

const (
	// Wait runs one grace period per Fence call, blocking the caller —
	// the paper's fence.
	Wait Mode = iota
	// Combine coalesces concurrent Fence calls onto shared grace
	// periods: one leader waits, everyone who arrived before the grace
	// period started returns with it.
	Combine
	// Defer routes fences through a background reclaimer: Defer
	// callbacks never block the caller, and synchronous Fence calls
	// batch with whatever else is pending.
	Defer
)

// String names the mode as the engine registry spells it.
func (m Mode) String() string {
	switch m {
	case Wait:
		return "wait"
	case Combine:
		return "combine"
	case Defer:
		return "defer"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode decodes a mode name ("wait", "combine", "defer").
func ParseMode(s string) (Mode, error) {
	switch s {
	case "wait", "":
		return Wait, nil
	case "combine":
		return Combine, nil
	case "defer":
		return Defer, nil
	}
	return Wait, fmt.Errorf("quiesce: unknown fence mode %q (want wait, combine, or defer)", s)
}

// Stats is a snapshot of the service's traffic, for harness reports.
type Stats struct {
	// Fences counts synchronous Fence calls served.
	Fences uint64
	// GracePeriods counts underlying grace periods actually run; under
	// Combine or Defer it can be far below Fences+Deferred.
	GracePeriods uint64
	// Deferred counts callbacks registered through Defer.
	Deferred uint64
	// Batches counts reclaimer rounds (one grace period each).
	Batches uint64
}

// Service implements the three fence modes over one grace-period
// mechanism. Construct with New (activity tracked by an rcu quiescer)
// or NewFunc (grace period supplied as a closure, for TMs like the
// global-lock baseline whose quiescence is structural).
type Service struct {
	q    rcu.Quiescer
	snap rcu.Snapshotter // non-nil when q supports the split API
	gp   func()          // fallback blocking grace period

	// mode is fixed at construction and read on every Fence/Defer.
	mode Mode

	// board, when set, receives fence/fence-wait/batch telemetry.
	// Fences record into the board's shared slot 0: the fence is the
	// slow path by construction, so one padded shared slot costs
	// nothing measurable and keeps the hot Fence signature thread-free.
	board *telemetry.Board

	// reclaimThread is the thread id deferred callbacks run under.
	reclaimThread int

	// Combining state: started/completed count grace periods; at most
	// one is in flight (started == completed+1), and only its leader
	// touches combineBuf.
	cmu        sync.Mutex
	ccond      *sync.Cond
	started    uint64
	completed  uint64
	combineBuf rcu.Gen

	// Deferred state: pending is the next batch (nil entries are
	// synchronous-fence sentinels); enqueued/executed index callbacks
	// FIFO so Barrier and deferred Fence can wait on a counter.
	dmu        sync.Mutex
	dcond      *sync.Cond
	pending    []deferred
	enqueued   uint64
	executed   uint64
	reclaiming bool
	reclaimBuf rcu.Gen

	// waitPool recycles snapshot buffers across wait-mode fences.
	waitPool sync.Pool

	// Traffic counters, each on its own cache line: Fence and Defer are
	// called from different threads concurrently, and four adjacent
	// atomics would put every bump on one ping-ponging line.
	fences       padCounter
	gracePeriods padCounter
	deferredCnt  padCounter
	batches      padCounter
}

// padCounter is an atomic counter padded out to a full cache line so
// independent counters bumped by different threads never false-share.
type padCounter struct {
	atomic.Uint64
	_ [56]byte
}

// deferred is one queued callback (fn nil = fence sentinel).
type deferred struct {
	fn func(thread int)
}

// New builds a service over q in the given mode. reclaimThread is the
// reserved thread id handed to deferred callbacks; it must be valid on
// the owning TM and used by nothing else.
func New(q rcu.Quiescer, mode Mode, reclaimThread int) *Service {
	s := &Service{q: q, mode: mode, reclaimThread: reclaimThread}
	if sn, ok := q.(rcu.Snapshotter); ok {
		s.snap = sn
	}
	s.gp = q.Wait
	s.ccond = sync.NewCond(&s.cmu)
	s.dcond = sync.NewCond(&s.dmu)
	return s
}

// NewFunc builds a service whose grace period is the supplied blocking
// wait, for TMs without per-thread activity tracking (the global-lock
// baseline's fence is "acquire and release the lock"). Enter, Exit,
// Active and FenceFiltered must not be used on a NewFunc service.
func NewFunc(wait func(), mode Mode, reclaimThread int) *Service {
	s := &Service{gp: wait, mode: mode, reclaimThread: reclaimThread}
	s.ccond = sync.NewCond(&s.cmu)
	s.dcond = sync.NewCond(&s.dmu)
	return s
}

// SetBoard attaches a telemetry board; fence counts, fence-wait time
// and reclaimer batches are recorded into its shared slot. Call before
// the service sees traffic.
func (s *Service) SetBoard(b *telemetry.Board) { s.board = b }

// ReclaimThread returns the reserved thread id deferred callbacks run
// under.
func (s *Service) ReclaimThread() int { return s.reclaimThread }

// Enter marks thread t as running a transaction.
func (s *Service) Enter(t int) { s.q.Enter(t) }

// Exit marks thread t's transaction complete.
func (s *Service) Exit(t int) { s.q.Exit(t) }

// Active reports whether thread t currently runs a transaction.
func (s *Service) Active(t int) bool { return s.q.Active(t) }

// Stats returns a snapshot of the service's counters.
func (s *Service) Stats() Stats {
	return Stats{
		Fences:       s.fences.Load(),
		GracePeriods: s.gracePeriods.Load(),
		Deferred:     s.deferredCnt.Load(),
		Batches:      s.batches.Load(),
	}
}

// grace runs one grace period, reusing *buf for the snapshot when the
// split API is available. The caller must own *buf exclusively.
func (s *Service) grace(buf *rcu.Gen) {
	s.gracePeriods.Add(1)
	if s.snap == nil {
		s.gp()
		return
	}
	*buf = s.snap.SnapshotInto(*buf)
	s.awaitQuiesced(*buf)
}

// awaitQuiesced waits out one snapshot. When the quiescer supports the
// parked wait (rcu.Parker) the caller sleeps on a condition variable
// that transaction exits signal — on an oversubscribed scheduler a
// polling leader can starve behind CPU-bound transaction threads for
// whole preemption quanta, while a parked one wakes the moment the
// observed transactions finish. Quiescers without parking fall back to
// the old yield-then-sleep poll.
func (s *Service) awaitQuiesced(g rcu.Gen) {
	if p, ok := s.snap.(rcu.Parker); ok {
		p.WaitQuiesced(g)
		return
	}
	for i := 0; !s.snap.Quiesced(g); i++ {
		if i < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// Fence blocks until every transaction active at the time of the call
// has completed, per the service's mode. It must not be called inside a
// transaction or from a deferred callback.
func (s *Service) Fence() {
	s.fences.Add(1)
	sl := s.board.Slot(0)
	var start time.Time
	if sl != nil {
		start = time.Now()
	}
	switch s.mode {
	case Combine:
		s.combinedWait()
	case Defer:
		s.deferredFence()
	default:
		// Concurrent wait-mode fences each need their own snapshot
		// buffer; pool them so the steady state allocates nothing.
		g, _ := s.waitPool.Get().(*rcu.Gen)
		if g == nil {
			g = new(rcu.Gen)
		}
		s.grace(g)
		s.waitPool.Put(g)
	}
	if sl != nil {
		sl.Fences.Add(1)
		sl.FenceWaitNs.Add(time.Since(start).Nanoseconds())
	}
}

// FenceFiltered is the buggy filtered fence: it waits only for threads
// keep reports true for at snapshot time (the GCC libitm skip-read-only
// bug, [43] in the paper). It is always a direct blocking wait — never
// combined or deferred — and requires the split snapshot API.
func (s *Service) FenceFiltered(keep func(thread int) bool) {
	s.fences.Add(1)
	if s.snap == nil {
		s.gp() // no snapshot support: degenerate to the full fence
		return
	}
	s.gracePeriods.Add(1)
	g := s.snap.SnapshotInto(nil)
	for t := 1; t < len(g); t++ {
		if g[t] != 0 && !keep(t) {
			g.Drop(t)
		}
	}
	s.awaitQuiesced(g)
}

// combinedWait coalesces concurrent fences: each caller needs one grace
// period that starts after its arrival; the first waiter for that
// period becomes its leader and runs it for everyone.
func (s *Service) combinedWait() {
	s.cmu.Lock()
	target := s.started + 1 // the next grace period to start covers us
	for s.completed < target {
		if s.started == s.completed && s.started < target {
			s.started++
			s.cmu.Unlock()
			s.grace(&s.combineBuf) // sole leader: combineBuf is ours
			s.cmu.Lock()
			s.completed++
			s.ccond.Broadcast()
		} else {
			s.ccond.Wait()
		}
	}
	s.cmu.Unlock()
}

// Defer registers fn to run after a grace period that starts after this
// call: every transaction active now has completed by the time fn runs.
// In Defer mode it returns immediately and fn later runs on the
// reclaimer goroutine with the service's reserved thread id; in the
// other modes it fences synchronously and runs fn(thread) inline before
// returning. fn must not call Fence, Defer or Barrier on this service.
func (s *Service) Defer(thread int, fn func(thread int)) {
	s.deferredCnt.Add(1)
	if s.mode != Defer {
		s.Fence()
		fn(thread)
		return
	}
	s.dmu.Lock()
	s.pending = append(s.pending, deferred{fn: fn})
	s.enqueued++
	s.startReclaimerLocked()
	s.dmu.Unlock()
}

// DeferBatch registers every callback in fns under ONE grace period
// that starts after this call — the batched form of Defer. In Defer
// mode the whole batch joins the reclaimer's queue in a single step and
// shares the next reclaimer round's generation snapshot with whatever
// else is pending; in the other modes one (combined) Fence covers the
// batch and the callbacks then run inline, in order, on the caller's
// thread. N callbacks pay for one grace period instead of N. The fns
// obey the same rules as Defer callbacks.
func (s *Service) DeferBatch(thread int, fns []func(thread int)) {
	if len(fns) == 0 {
		return
	}
	s.deferredCnt.Add(uint64(len(fns)))
	if s.mode != Defer {
		s.Fence()
		for _, fn := range fns {
			fn(thread)
		}
		return
	}
	s.dmu.Lock()
	for _, fn := range fns {
		s.pending = append(s.pending, deferred{fn: fn})
	}
	s.enqueued += uint64(len(fns))
	s.startReclaimerLocked()
	s.dmu.Unlock()
}

// Batch accumulates deferred callbacks that will share one grace
// period: Defer appends without touching the service, Flush hands the
// whole batch to DeferBatch. It is the incremental-accumulation form
// of DeferBatch for callers that discover their reclamation round
// piece by piece and want a single generation snapshot for all of it
// (the TMs' core.BatchFencer surface is the slice form, DeferBatch,
// directly). A Batch is not safe for concurrent use; Flush resets it
// for reuse.
type Batch struct {
	s   *Service
	fns []func(thread int)
}

// NewBatch returns an empty batch over the service.
func (s *Service) NewBatch() *Batch { return &Batch{s: s} }

// Defer appends fn to the batch. Nothing is registered until Flush.
func (b *Batch) Defer(fn func(thread int)) { b.fns = append(b.fns, fn) }

// Len returns the number of callbacks accumulated since the last Flush.
func (b *Batch) Len() int { return len(b.fns) }

// Flush registers the accumulated callbacks under one shared grace
// period (see DeferBatch) and resets the batch. A Flush of an empty
// batch is a no-op.
func (b *Batch) Flush(thread int) {
	b.s.DeferBatch(thread, b.fns)
	b.fns = nil
}

// Barrier blocks until every callback registered by Defer before the
// call has run. It waits on the queue counters, not on the mode: in
// Wait and Combine modes nothing is ever queued, so the counters
// already match and it returns immediately.
func (s *Service) Barrier() {
	s.dmu.Lock()
	target := s.enqueued
	for s.executed < target {
		s.dcond.Wait()
	}
	s.dmu.Unlock()
}

// deferredFence is Fence in Defer mode: ride the reclaimer's next batch
// as a sentinel, so synchronous fences batch with pending callbacks.
func (s *Service) deferredFence() {
	s.dmu.Lock()
	s.pending = append(s.pending, deferred{})
	s.enqueued++
	target := s.enqueued
	s.startReclaimerLocked()
	for s.executed < target {
		s.dcond.Wait()
	}
	s.dmu.Unlock()
}

// startReclaimerLocked launches the reclaimer if it is not running.
// Caller holds dmu.
func (s *Service) startReclaimerLocked() {
	if !s.reclaiming {
		s.reclaiming = true
		go s.reclaim()
	}
}

// reclaim is the background reclaimer: repeatedly take the pending
// batch, wait one grace period (which starts after every callback in
// the batch was registered), run the callbacks in order, and exit when
// the queue drains — an idle service holds no goroutine.
func (s *Service) reclaim() {
	s.dmu.Lock()
	for len(s.pending) > 0 {
		batch := s.pending
		s.pending = nil
		s.dmu.Unlock()
		s.batches.Add(1)
		if sl := s.board.Slot(0); sl != nil {
			sl.ReclaimBatches.Add(1)
		}
		s.grace(&s.reclaimBuf)
		for _, d := range batch {
			if d.fn != nil {
				d.fn(s.reclaimThread)
			}
		}
		s.dmu.Lock()
		s.executed += uint64(len(batch))
		s.dcond.Broadcast()
	}
	s.reclaiming = false
	s.dmu.Unlock()
}
