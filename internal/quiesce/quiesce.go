// Package quiesce is the shared quiescence service behind every TM's
// transactional fence: the paper's grace-period wait (Figure 7,
// implemented by internal/rcu) promoted from a per-TM private loop to
// one subsystem. Every Fence call runs its own grace period and blocks
// for it — the paper's fence — over a pooled snapshot buffer, so the
// steady state allocates nothing.
//
// The service also carries the per-thread activity bookkeeping
// (Enter/Exit/Active delegate to the underlying rcu quiescer) so TMs
// hold one object instead of a quiescer plus fence logic, and a
// filtered fence (FenceFiltered) so the deliberately buggy
// skip-read-only fence of the GCC libitm bug reproduction is expressed
// as a predicate over the shared machinery rather than a second private
// wait loop.
package quiesce

import (
	"sync"
	"time"

	"safepriv/internal/rcu"
	"safepriv/internal/telemetry"
)

// Service runs the fence over one grace-period mechanism. Construct
// with New (activity tracked by an rcu quiescer) or NewFunc (grace
// period supplied as a closure, for TMs like the global-lock baseline
// whose quiescence is structural).
type Service struct {
	q rcu.Quiescer
	// snap is q's split grace period when q has one (rcu.Flags, Epochs
	// and NoOp do). Its wait parks on a condition variable that
	// transaction exits signal, so a fence wakes the moment the observed
	// transactions finish rather than at a poll's next tick.
	snap rcu.Parker
	gp   func() // fallback blocking grace period

	// board, when set, receives fence and fence-wait telemetry. Fences
	// record into the board's shared slot 0: the fence is the slow path
	// by construction, so one padded shared slot costs nothing
	// measurable and keeps the hot Fence signature thread-free.
	board *telemetry.Board

	// waitPool recycles snapshot buffers across fences.
	waitPool sync.Pool
}

// New builds a service over q.
func New(q rcu.Quiescer) *Service {
	s := &Service{q: q, gp: q.Wait}
	if p, ok := q.(rcu.Parker); ok {
		s.snap = p
	}
	return s
}

// NewFunc builds a service whose grace period is the supplied blocking
// wait, for TMs without per-thread activity tracking (the global-lock
// baseline's fence is "acquire and release the lock"). Enter, Exit and
// Active must not be used on a NewFunc service, and its FenceFiltered
// runs the full wait.
func NewFunc(wait func()) *Service { return &Service{gp: wait} }

// SetBoard attaches a telemetry board; fence counts and fence-wait time
// are recorded into its shared slot. Call before the service sees
// traffic.
func (s *Service) SetBoard(b *telemetry.Board) { s.board = b }

// Enter marks thread t as running a transaction.
func (s *Service) Enter(t int) { s.q.Enter(t) }

// Exit marks thread t's transaction complete.
func (s *Service) Exit(t int) { s.q.Exit(t) }

// Active reports whether thread t currently runs a transaction.
func (s *Service) Active(t int) bool { return s.q.Active(t) }

// Fence blocks until every transaction active at the time of the call
// has completed. It must not be called inside a transaction.
func (s *Service) Fence() {
	sl := s.board.Slot(0)
	var start time.Time
	if sl != nil {
		start = time.Now()
	}
	if s.snap == nil {
		s.gp()
	} else {
		// Concurrent fences each need their own snapshot buffer; pool
		// them so the steady state allocates nothing.
		g, _ := s.waitPool.Get().(*rcu.Gen)
		if g == nil {
			g = new(rcu.Gen)
		}
		*g = s.snap.SnapshotInto(*g)
		s.snap.WaitQuiesced(*g)
		s.waitPool.Put(g)
	}
	if sl != nil {
		sl.Fences.Add(1)
		sl.FenceWaitNs.Add(time.Since(start).Nanoseconds())
	}
}

// FenceFiltered is the buggy filtered fence: it waits only for threads
// keep reports true for at snapshot time (the GCC libitm skip-read-only
// bug, [43] in the paper). It requires the split snapshot API.
func (s *Service) FenceFiltered(keep func(thread int) bool) {
	if s.snap == nil {
		s.gp() // no snapshot support: degenerate to the full fence
		return
	}
	g := s.snap.SnapshotInto(nil)
	for t := 1; t < len(g); t++ {
		if g[t] != 0 && !keep(t) {
			g.Drop(t)
		}
	}
	s.snap.WaitQuiesced(g)
}
