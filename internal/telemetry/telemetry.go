// Package telemetry provides the engine's runtime self-observation:
// cache-line-padded per-thread counter slots that the slow paths
// (core.Atomically's retries, a TM's aborts, rcu.Fence's grace periods,
// stmalloc's magazine layer) bump with plain atomic adds, and an
// aggregating Snapshot that kvserve's /stats and bench/ read.
//
// The design constraint is zero allocation and zero sharing on the
// write side: each thread id owns one Slot, each Slot occupies its own
// cache lines, and recording is a single uncontended atomic add. All
// cross-thread cost is paid by the (rare) reader in Snapshot. A
// committed transaction records nothing at all: Snapshot derives
// commits from the fence's per-thread counter (CountEnded), which every
// transaction already bumps as it begins and ends (Figure 9's
// active[t]).
package telemetry

import "sync/atomic"

// Slot is one thread's counter block. Fields are written only by the
// owning thread (with atomic adds, so Snapshot can read them racily
// but coherently) and padded out to two cache lines so adjacent
// threads' slots never share a line (64B line; the 16 counters are
// exactly 128B).
type Slot struct {
	// Uncommitted counts the thread's transactions that ended without
	// committing: a TM abort, a voluntary Abort, a body's refusal. The
	// TM bumps it on its abort paths only (rcu.Fence.ExitAborted);
	// Snapshot's Commits is the thread's ended transactions minus it.
	Uncommitted atomic.Int64
	// Aborts counts aborted attempts (retries within core.Atomically).
	Aborts atomic.Int64
	// Fences counts transactional fences issued (grace-period waits)
	// attributed to this thread.
	Fences atomic.Int64
	// FenceWaitNs accumulates nanoseconds spent blocked inside
	// synchronous fence waits.
	FenceWaitNs atomic.Int64
	// Privatizations counts privatize→fence→operate→publish cycles.
	Privatizations atomic.Int64
	// MagHits counts allocator fast-path hits (allocation or free
	// served from a thread-local magazine without touching a shard).
	MagHits atomic.Int64
	// MagMisses counts allocator slow paths (magazine empty/full, the
	// request went to a shard free list or the bump frontier).
	MagMisses atomic.Int64
	// ReclaimBatches counts whole-magazine retires (one fence amortized
	// over a batch of frees).
	ReclaimBatches atomic.Int64
	// BackoffNs accumulates nanoseconds spent in contention backoff
	// between aborted attempts.
	BackoffNs atomic.Int64
	// Scans counts bulk read operations (a whole Range/Scan/ScanPage
	// call, however many windows it took).
	Scans atomic.Int64
	// ScanWindows counts privatized scan windows (one
	// privatize→fence→walk→publish cycle each); ScanWindows/Scans is
	// the windows-per-scan fan-out bench/ reports.
	ScanWindows atomic.Int64
	// RehashWindows counts stmds.HashMap doublings: one
	// privatize→fence→relink→publish window each, so a table that
	// doubled d times records d (bench/'s stmds.rehash_windows reads
	// it under this name; TestHashMapRehashWindowsRecorded).
	RehashWindows atomic.Int64
	// GateSpinWakes, GateParks and GateTimeouts count how stalls on a
	// publish gate (package region) ended: the spin saw the gate open,
	// the waiter parked on the gate's channel, the park ran into its
	// backstop timeout. Bumped only on the stall path.
	GateSpinWakes atomic.Int64
	GateParks     atomic.Int64
	GateTimeouts  atomic.Int64
	// ReadThroughs counts stmkv Gets that found their shard read-private
	// (a scan window) and proceeded beside the scanner instead of
	// stalling.
	ReadThroughs atomic.Int64
}

// Board is a fixed set of per-thread Slots. Thread ids follow the
// repo-wide convention: 1-based; index 0 is a shared overflow slot for
// recorders that have no thread identity (e.g. rcu.Fence's grace-period
// bookkeeping).
type Board struct {
	slots []Slot
	// ended(th) is how many transactions thread th has ended, committed
	// or not; nil until CountEnded wires it.
	ended func(th int) int64
}

// NewBoard builds a Board with slots for thread ids 0..threads
// (0 = anonymous/shared, 1..threads = the convention's thread ids).
func NewBoard(threads int) *Board {
	if threads < 1 {
		threads = 1
	}
	return &Board{slots: make([]Slot, threads+1)}
}

// Slot returns thread th's counter block, or nil on a nil board.
// Out-of-range ids (including the anonymous id 0) share the overflow
// slot 0, so recording is always safe and never allocates.
func (b *Board) Slot(th int) *Slot {
	if b == nil {
		return nil
	}
	if th < 0 || th >= len(b.slots) {
		th = 0
	}
	return &b.slots[th]
}

// CountEnded wires the source of Snapshot's Commits: ended(th) must
// return how many transactions thread th has ended, committed or not.
// rcu.New passes its fence's per-thread counter, halved. A board that
// is never wired reports no commits.
func (b *Board) CountEnded(ended func(th int) int64) { b.ended = ended }

// Threads returns the highest thread id the board has a dedicated
// slot for.
func (b *Board) Threads() int {
	if b == nil {
		return 0
	}
	return len(b.slots) - 1
}

// Snapshot is the aggregated view of a Board at one instant: sums of
// every slot's counters, read with atomic loads so it is safe to take
// while the workload runs.
type Snapshot struct {
	// Commits is the committed transactions of every thread: ended
	// minus Uncommitted. Each thread's ended count is read before its
	// Uncommitted, and an abort bumps Uncommitted before it ends, so a
	// snapshot taken mid-abort undercounts by that abort at most and
	// never counts it as a commit.
	Commits        int64
	Aborts         int64
	Fences         int64
	FenceWaitNs    int64
	Privatizations int64
	MagHits        int64
	MagMisses      int64
	ReclaimBatches int64
	BackoffNs      int64
	Scans          int64
	ScanWindows    int64
	RehashWindows  int64
	GateSpinWakes  int64
	GateParks      int64
	GateTimeouts   int64
	ReadThroughs   int64
}

// Snapshot aggregates all slots. O(threads), allocation-free.
func (b *Board) Snapshot() Snapshot {
	var s Snapshot
	if b == nil {
		return s
	}
	for i := range b.slots {
		sl := &b.slots[i]
		if b.ended != nil {
			s.Commits += b.ended(i) - sl.Uncommitted.Load()
		}
		s.Aborts += sl.Aborts.Load()
		s.Fences += sl.Fences.Load()
		s.FenceWaitNs += sl.FenceWaitNs.Load()
		s.Privatizations += sl.Privatizations.Load()
		s.MagHits += sl.MagHits.Load()
		s.MagMisses += sl.MagMisses.Load()
		s.ReclaimBatches += sl.ReclaimBatches.Load()
		s.BackoffNs += sl.BackoffNs.Load()
		s.Scans += sl.Scans.Load()
		s.ScanWindows += sl.ScanWindows.Load()
		s.RehashWindows += sl.RehashWindows.Load()
		s.GateSpinWakes += sl.GateSpinWakes.Load()
		s.GateParks += sl.GateParks.Load()
		s.GateTimeouts += sl.GateTimeouts.Load()
		s.ReadThroughs += sl.ReadThroughs.Load()
	}
	return s
}

// Delta returns the per-counter difference s - prev: the activity in
// the window between two snapshots. bench/ reads each measured slice
// as a delta, so setup traffic stays out of the per-layer counters.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	return Snapshot{
		Commits:        s.Commits - prev.Commits,
		Aborts:         s.Aborts - prev.Aborts,
		Fences:         s.Fences - prev.Fences,
		FenceWaitNs:    s.FenceWaitNs - prev.FenceWaitNs,
		Privatizations: s.Privatizations - prev.Privatizations,
		MagHits:        s.MagHits - prev.MagHits,
		MagMisses:      s.MagMisses - prev.MagMisses,
		ReclaimBatches: s.ReclaimBatches - prev.ReclaimBatches,
		BackoffNs:      s.BackoffNs - prev.BackoffNs,
		Scans:          s.Scans - prev.Scans,
		ScanWindows:    s.ScanWindows - prev.ScanWindows,
		RehashWindows:  s.RehashWindows - prev.RehashWindows,
		GateSpinWakes:  s.GateSpinWakes - prev.GateSpinWakes,
		GateParks:      s.GateParks - prev.GateParks,
		GateTimeouts:   s.GateTimeouts - prev.GateTimeouts,
		ReadThroughs:   s.ReadThroughs - prev.ReadThroughs,
	}
}

// AbortRate is aborts per attempt: Aborts/(Commits+Aborts). Zero when
// nothing ran.
func (s Snapshot) AbortRate() float64 {
	attempts := s.Commits + s.Aborts
	if attempts <= 0 {
		return 0
	}
	return float64(s.Aborts) / float64(attempts)
}

// PrivRate is privatizing fences per commit: Fences/Commits. Zero when
// nothing committed.
func (s Snapshot) PrivRate() float64 {
	if s.Commits <= 0 {
		return 0
	}
	return float64(s.Fences) / float64(s.Commits)
}

// MagHitRate is the magazine fast-path fraction:
// MagHits/(MagHits+MagMisses). Zero when the allocator never ran.
func (s Snapshot) MagHitRate() float64 {
	total := s.MagHits + s.MagMisses
	if total <= 0 {
		return 0
	}
	return float64(s.MagHits) / float64(total)
}

// Provider is implemented by TMs that carry a telemetry Board.
// core.Atomically type-asserts against it once per call; engines
// without a board cost nothing.
type Provider interface {
	TelemetryBoard() *Board
}
