// Package tl2 implements the TL2 software transactional memory of Dice,
// Shalev and Shavit as presented in Figure 9 of "Safe Privatization in
// Transactional Memory" (PPoPP 2018), extended with the paper's
// transactional fences implemented over RCU-style grace periods
// (Figure 7 lines 33–39).
//
// Per register x the TM keeps its value reg[x] and a versioned
// write-lock combining ver[x] and lock[x] (package vlock); a global
// version clock (package vclock) generates timestamps; per-thread
// active flags (package rcu) implement fences.
//
//   - txbegin: active[t] := true; rver := clock            (lines 9–12)
//   - read:    write-set hit, else versioned-lock validated
//     optimistic read aborting on lock/version conflict    (lines 14–24)
//   - write:   buffered in the write-set                   (lines 26–28)
//   - txcommit: lock write-set (trylock, abort on failure);
//     wver := clock++ + 1; validate read-set (skipped after
//     an exclusive tick to rver+1); write back reg, ver and
//     unlock per register; committed                       (lines 30–55)
//   - abort/commit handlers clear active[t] after the
//     response is recorded                                 (lines 57–63)
//   - fence: two-pass wait on active flags                 (lines 30–37)
//
// Begin, the handlers and the fence are the figure verbatim; read and
// write are too, except that a transaction that has written nothing
// reads without looking up its (empty) write set. txcommit departs
// from the figure in two places, both from the TL2 authors' own paper
// (Dice, Shalev and Shavit, DISC 2006) and neither selectable
// (internal/model keeps Figure 9 as printed and is the reference the
// checker explores):
//
//   - A transaction with an empty write set commits without locking,
//     without ticking the clock and without revalidating. Every read
//     was validated against rver when it was made, so the read set is
//     a consistent snapshot of the memory at rver and the transaction
//     serializes there. A read-only transaction therefore writes no
//     shared word but its own active flag.
//   - A writer whose tick was exclusive (vclock.Clock.Tick: its own
//     increment produced the value, as FAI's always does and GV4's
//     does when its CAS wins) and drew wver == rver+1 skips the
//     read-set revalidation. Such a tick moved the clock from rver
//     itself, so every other writer's timestamp is <= rver or is
//     drawn after this tick. Every writer locks its write set before
//     the clock reaches its timestamp (a GV4 adopter's CAS failed
//     because the clock moved on after it sampled it) and holds the
//     locks through its write-back. So a writer with a timestamp
//     <= rver locked before this transaction sampled rver: a read saw
//     its lock and aborted, or saw its write, at a version <= rver,
//     and stays valid. A writer whose timestamp is drawn after this
//     tick writes back after it too: a read saw its lock and aborted,
//     or came before its write, and that writer serializes after this
//     one.
//     An adopted GV4 value is not exclusive: the committer it was
//     adopted from ticked after rver and may have overwritten the
//     read set (TestGV4AdoptedTickValidates). Every other writer
//     locks, ticks, revalidates and writes back as printed.
//
// Neither touches the privatization argument. Uninstrumented stores
// never bump versions, so revalidation never covered them, and the
// fence waits on the active flag, which the commit handler clears
// after the response on every path, never on a timestamp.
//
// Non-transactional accesses are uninstrumented: plain atomic loads and
// stores of reg[x] that ignore locks and versions — the source of the
// delayed-commit and doomed-transaction anomalies when programs are not
// DRF, and safe exactly for the paper's DRF programs.
package tl2

import (
	"fmt"

	"safepriv/internal/core"
	"safepriv/internal/rcu"
	"safepriv/internal/record"
	"safepriv/internal/stripe"
	"safepriv/internal/telemetry"
	"safepriv/internal/vclock"
	"sync/atomic"
)

// FencePolicy selects the fence implementation, for the paper's
// experiments on fence placement and the GCC fence-elision bug.
type FencePolicy int

const (
	// fenceWait is the correct fence of Figure 7: wait for all active
	// transactions.
	fenceWait FencePolicy = iota
	// FenceNoOp makes Fence return immediately (and records nothing):
	// the "TM used out-of-the-box" configuration that exhibits the
	// delayed-commit and doomed-transaction problems (Figure 1).
	FenceNoOp
	// FenceSkipReadOnly reproduces the GCC libitm bug reported by Zhou,
	// Zardoshti and Spear (ICPP 2017, [43] in the paper): the fence
	// does not wait for transactions that have not written anything,
	// which violates strong atomicity for doomed read-only transactions.
	FenceSkipReadOnly
)

// config collects TL2 construction options.
type config struct {
	// regs is the number of registers.
	regs int
	// threads is the number of thread ids (1-based ids 1..threads).
	threads int
	// stripes is the version-lock table size (package stripe): 0 for
	// the default (injective register↦stripe mapping up to
	// the stripe package's cap), otherwise a power of two. Fewer
	// stripes than registers trades false conflicts for lock memory.
	stripes int
	// fence selects the fence implementation. Default fenceWait.
	fence FencePolicy
	// epochs selects the epoch-based grace period instead of the
	// paper's flag-based one (ablation E14).
	epochs bool
	// gv4 selects the pass-on-failure global clock (ablation).
	gv4 bool
	// sortedLocks acquires commit-time locks in ascending register
	// order instead of write-set insertion order (Figure 9 iterates the
	// write-set). With trylock-and-abort either is livelock-free, but
	// canonical order reduces mutual aborts between transactions whose
	// write sets overlap in opposite orders. Ablation.
	sortedLocks bool
	// debugInvariants enables runtime assertion of the timestamp
	// invariants of Figure 11 that are locally checkable (INV.7(a,b),
	// per-register version monotonicity, lock ownership discipline).
	// Violations panic.
	debugInvariants bool
	// sink, if non-nil, receives every TM interface action (package
	// record) for offline strong-opacity checking.
	sink record.Sink
	// bug injects a deliberate correctness bug, for negative testing of
	// the strong-opacity checker (the checker must reject histories the
	// buggy TM produces under contention). Never use outside tests.
	bug Bug
}

// Bug selects an injected correctness bug.
type Bug int

const (
	// bugNone is the correct algorithm.
	bugNone Bug = iota
	// bugSkipReadValidation makes reads return the current register
	// value without the version/lock check of Figure 9 lines 17–22:
	// transactions can observe inconsistent snapshots.
	bugSkipReadValidation
	// BugSkipCommitValidation skips the read-set revalidation of
	// Figure 9 lines 41–50: doomed transactions commit (lost updates).
	BugSkipCommitValidation
	// BugNoCommitLocks writes back without acquiring register locks:
	// concurrent commits interleave their write-backs.
	BugNoCommitLocks
)

// Option mutates TL2 construction.
type Option func(*config)

// withStripes sets the version-lock table size (0 = default).
func withStripes(n int) Option { return func(c *config) { c.stripes = n } }

// WithFence sets the fence policy.
func WithFence(p FencePolicy) Option { return func(c *config) { c.fence = p } }

// WithEpochFence selects the epoch-based grace period.
func WithEpochFence() Option { return func(c *config) { c.epochs = true } }

// WithGV4 selects the GV4 clock.
func WithGV4() Option { return func(c *config) { c.gv4 = true } }

// WithSortedLocks acquires commit locks in canonical register order.
func WithSortedLocks() Option { return func(c *config) { c.sortedLocks = true } }

// withDebugInvariants enables runtime invariant checking.
func withDebugInvariants() Option { return func(c *config) { c.debugInvariants = true } }

// WithSink attaches a recording sink.
func WithSink(s record.Sink) Option { return func(c *config) { c.sink = s } }

// WithBug injects a correctness bug (tests only).
func WithBug(b Bug) Option { return func(c *config) { c.bug = b } }

// threadState is the per-thread metadata of Figure 9 (rset, wset, rver,
// wver), reused across the thread's transactions.
type threadState struct {
	tx txn
	_  [64]byte // keep threads' states off each other's cache lines
}

// TM is a TL2 transactional memory. It implements core.TM.
type TM struct {
	cfg      config
	table    *stripe.Table
	clock    vclock.Clock
	fence    *rcu.Fence
	board    *telemetry.Board
	hasWrite []writerFlag // per thread: current txn wrote something
	threads  []threadState
}

// New constructs a TL2 TM with regs registers and thread ids
// 1..threads.
func New(regs, threads int, opts ...Option) *TM {
	cfg := config{regs: regs, threads: threads}
	for _, o := range opts {
		o(&cfg)
	}
	tm := &TM{
		cfg:      cfg,
		table:    stripe.New(regs, cfg.stripes),
		hasWrite: make([]writerFlag, threads+1),
		threads:  make([]threadState, threads+1),
	}
	if cfg.gv4 {
		tm.clock = vclock.NewGV4()
	} else {
		tm.clock = vclock.NewFAI()
	}
	tm.board = telemetry.NewBoard(threads)
	tm.fence = rcu.New(threads, cfg.epochs, tm.board)
	for t := range tm.threads {
		tx := &tm.threads[t].tx
		tx.tm = tm
		tx.thread = t
	}
	return tm
}

// NumRegs implements core.TM.
func (tm *TM) NumRegs() int { return tm.cfg.regs }

// Load implements core.TM: an uninstrumented non-transactional read.
func (tm *TM) Load(thread, x int) int64 {
	if s := tm.cfg.sink; s != nil {
		return s.NonTxnRead(thread, x, func() int64 { return tm.table.Load(x) })
	}
	return tm.table.Load(x)
}

// Store implements core.TM: an uninstrumented non-transactional write.
func (tm *TM) Store(thread, x int, v int64) {
	if s := tm.cfg.sink; s != nil {
		s.NonTxnWrite(thread, x, v, func() { tm.table.Store(x, v) })
		return
	}
	tm.table.Store(x, v)
}

// Fence implements core.TM per the configured policy.
func (tm *TM) Fence(thread int) {
	switch tm.cfg.fence {
	case FenceNoOp:
		// Models the absence of a fence in the program: nothing waits,
		// nothing is recorded.
		return
	case FenceSkipReadOnly:
		if s := tm.cfg.sink; s != nil {
			s.FBegin(thread)
		}
		// The buggy fence: wait only for threads whose current
		// transaction has performed a write. Doomed read-only
		// transactions are not waited for.
		tm.fence.WaitFiltered(func(t int) bool { return tm.hasWrite[t].v.Load() == 1 })
		if s := tm.cfg.sink; s != nil {
			s.FEnd(thread)
		}
	default:
		if s := tm.cfg.sink; s != nil {
			s.FBegin(thread)
		}
		tm.fence.Wait()
		if s := tm.cfg.sink; s != nil {
			s.FEnd(thread)
		}
	}
}

// TelemetryBoard implements telemetry.Provider: the per-thread counter
// board core.Atomically and the fence record into.
func (tm *TM) TelemetryBoard() *telemetry.Board { return tm.board }

// Begin implements core.TM (Figure 9 txbegin): set the active flag,
// then sample the read timestamp.
func (tm *TM) Begin(thread int) core.Txn {
	tx := &tm.threads[thread].tx
	if tx.live {
		panic(fmt.Sprintf("tl2: thread %d began a transaction inside a transaction", thread))
	}
	tx.reset()
	tm.fence.Enter(thread)
	if s := tm.cfg.sink; s != nil {
		s.TxBegin(thread)
	}
	tx.rver = tm.clock.Load()
	tx.live = true
	if tm.cfg.debugInvariants && tx.rver > tm.clock.Load() {
		panic("tl2: INV.7(b) violated: rver > clock")
	}
	return tx
}

// writerFlag is a per-thread "current transaction has written" flag on
// its own cache line; it is read by the FenceSkipReadOnly fence. The
// set/clear methods avoid redundant stores so read-only transactions
// never write the flag after reset.
type writerFlag struct {
	v atomic.Uint32
	_ [60]byte
}

func (f *writerFlag) set() {
	if f.v.Load() == 0 {
		f.v.Store(1)
	}
}

func (f *writerFlag) clear() {
	if f.v.Load() != 0 {
		f.v.Store(0)
	}
}
