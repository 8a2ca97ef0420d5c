// Package wtstm is a write-through software TM: encounter-time write
// locking with in-place updates and an undo log, in the style of
// TinySTM/McRT-STM's write-through mode. It exists to reproduce the
// second half of the paper's §1 observation:
//
//	"TMs that make transactional updates in-place and undo them on
//	 abort are subject to a similar [delayed-commit] problem."
//
// For a write-back TM (TL2) the privatization hazard is a *delayed
// commit* overwriting the owner's private write; for a write-through TM
// it is a *delayed abort*: a doomed transaction's rollback restores the
// pre-transaction value on top of the owner's uninstrumented write
// (TestDelayedAbortAnomaly demonstrates it; the transactional fence —
// which waits until aborting transactions finish their rollback —
// excludes it).
//
// The algorithm: writes lock the register's stripe (abort on conflict),
// log the old value and version, and store in place; reads validate
// against the transaction's read timestamp like TL2; a commit that
// holds locks ticks the global clock, revalidates the read-set,
// installs the new version per locked stripe and unlocks, and one that
// holds none (a read-only transaction) just ends, without touching the
// clock; abort rolls the undo log back in reverse and restores the old
// versions before clearing the active flag.
//
// Registers and version-locks live in the shared striped table of
// package stripe; with fewer stripes than registers distinct registers
// may share a lock, so lock acquisition and release are deduplicated by
// stripe while the undo log stays per register.
package wtstm

import (
	"fmt"

	"safepriv/internal/core"
	"safepriv/internal/rcu"
	"safepriv/internal/stripe"
	"safepriv/internal/telemetry"
	"safepriv/internal/vclock"
	"safepriv/internal/vlock"
)

// config collects construction options.
type config struct {
	// regs is the number of registers.
	regs int
	// threads is the number of thread ids (1-based ids 1..threads).
	threads int
	// gv4 selects the pass-on-failure global clock.
	gv4 bool
	// epochs selects the epoch-based grace period.
	epochs bool
	// unsafeFence makes Fence a no-op, to exhibit the delayed-abort
	// anomaly in tests and experiments.
	unsafeFence bool
}

// Option mutates TM construction.
type Option func(*config)

// WithGV4 selects the GV4 clock.
func WithGV4() Option { return func(c *config) { c.gv4 = true } }

// WithEpochFence selects the epoch-based grace period.
func WithEpochFence() Option { return func(c *config) { c.epochs = true } }

// WithUnsafeFence makes Fence a no-op.
func WithUnsafeFence() Option { return func(c *config) { c.unsafeFence = true } }

// TM is a write-through TM implementing core.TM.
type TM struct {
	cfg     config
	table   *stripe.Table
	clock   vclock.Clock
	fence   *rcu.Fence
	board   *telemetry.Board
	threads []slot
}

type slot struct {
	tx txn
	_  [64]byte
}

// New returns a write-through TM with regs registers and thread ids
// 1..threads.
func New(regs, threads int, opts ...Option) *TM {
	cfg := config{regs: regs, threads: threads}
	for _, o := range opts {
		o(&cfg)
	}
	tm := &TM{
		cfg:     cfg,
		table:   stripe.New(regs, 0),
		threads: make([]slot, threads+1),
	}
	if cfg.gv4 {
		tm.clock = vclock.NewGV4()
	} else {
		tm.clock = vclock.NewFAI()
	}
	tm.board = telemetry.NewBoard(threads)
	tm.fence = rcu.New(threads, cfg.epochs, tm.board)
	for t := range tm.threads {
		tm.threads[t].tx.tm = tm
		tm.threads[t].tx.thread = t
	}
	return tm
}

// NumRegs implements core.TM.
func (tm *TM) NumRegs() int { return tm.cfg.regs }

// Load implements core.TM (uninstrumented).
func (tm *TM) Load(thread, x int) int64 { return tm.table.Load(x) }

// Store implements core.TM (uninstrumented).
func (tm *TM) Store(thread, x int, v int64) { tm.table.Store(x, v) }

// Fence implements core.TM: wait for all active transactions, including
// aborting ones mid-rollback.
func (tm *TM) Fence(thread int) {
	if tm.cfg.unsafeFence {
		return
	}
	tm.fence.Wait()
}

// TelemetryBoard implements telemetry.Provider: the per-thread counter
// board core.Atomically and the fence record into.
func (tm *TM) TelemetryBoard() *telemetry.Board { return tm.board }

// Begin implements core.TM.
func (tm *TM) Begin(thread int) core.Txn {
	tx := &tm.threads[thread].tx
	if tx.live {
		panic(fmt.Sprintf("wtstm: thread %d began a transaction inside a transaction", thread))
	}
	tx.reset()
	tm.fence.Enter(thread)
	tx.rver = tm.clock.Load()
	tx.live = true
	return tx
}

// undoEntry records a register's pre-transaction value.
type undoEntry struct {
	x int
	v int64 // value before the transaction's first write
}

// lockedStripe records an acquired lock stripe and its pre-lock
// version, for release (commit installs the write version, abort
// reinstates this one).
type lockedStripe struct {
	s   int
	old int64
}

// txn is a write-through transaction.
type txn struct {
	tm     *TM
	thread int
	live   bool
	rver   int64
	wver   int64
	undo   []undoEntry
	locked []lockedStripe
	rset   []int
}

func (tx *txn) reset() {
	tx.rver, tx.wver = 0, 0
	tx.undo = tx.undo[:0]
	tx.locked = tx.locked[:0]
	tx.rset = tx.rset[:0]
}

// finish ends the transaction; an abort is counted on the telemetry
// board as it ends.
func (tx *txn) finish(committed bool) {
	tx.live = false
	if committed {
		tx.tm.fence.Exit(tx.thread)
	} else {
		tx.tm.fence.ExitAborted(tx.thread)
	}
}

// ownsStripe reports whether the transaction already holds stripe s.
func (tx *txn) ownsStripe(s int) bool {
	return tx.tm.table.Lock(s).OwnedBy(tx.thread)
}

// logged reports whether x already has an undo entry (x was written
// before in this transaction).
func (tx *txn) logged(x int) bool {
	for i := range tx.undo {
		if tx.undo[i].x == x {
			return true
		}
	}
	return false
}

// Read implements core.Txn.
func (tx *txn) Read(x int) (int64, error) {
	tm := tx.tm
	if !tx.live {
		panic("wtstm: Read on finished transaction")
	}
	l := tm.table.LockFor(x)
	if tx.ownsStripe(tm.table.StripeOf(x)) {
		// We hold the stripe lock, so no other transaction can move x;
		// the in-place value is stable (and ours, if we wrote it).
		return tm.table.Load(x), nil
	}
	w1 := l.Raw()
	v := tm.table.Load(x)
	w2 := l.Raw()
	ts, locked := vlock.RawVersion(w2)
	if locked || w1 != w2 || tx.rver < ts {
		tx.rollback()
		return 0, core.ErrAborted
	}
	tx.rset = append(tx.rset, x)
	return v, nil
}

// Write implements core.Txn: encounter-time lock, log, store in place.
func (tx *txn) Write(x int, v int64) error {
	tm := tx.tm
	if !tx.live {
		panic("wtstm: Write on finished transaction")
	}
	s := tm.table.StripeOf(x)
	if !tx.ownsStripe(s) {
		old, ok := tm.table.Lock(s).TryLockVersioned(tx.thread)
		if !ok {
			tx.rollback()
			return core.ErrAborted
		}
		if tx.rver < old {
			// The register moved past our snapshot before we locked it.
			tm.table.Lock(s).AbortUnlock(old)
			tx.rollback()
			return core.ErrAborted
		}
		tx.locked = append(tx.locked, lockedStripe{s, old})
	}
	if !tx.logged(x) {
		tx.undo = append(tx.undo, undoEntry{x: x, v: tm.table.Load(x)})
	}
	tm.table.Store(x, v)
	return nil
}

// Commit implements core.Txn.
func (tx *txn) Commit() error {
	tm := tx.tm
	if !tx.live {
		panic("wtstm: Commit on finished transaction")
	}
	if len(tx.locked) == 0 {
		// Read-only: every read was validated against rver when it was
		// made, so the read set is a consistent snapshot at rver; commit
		// without a timestamp and without revalidating (as tl2 does).
		tx.finish(true)
		return nil
	}
	// The exclusive flag is ignored: this TM always revalidates.
	tx.wver, _ = tm.clock.Tick()
	for _, x := range tx.rset {
		ts, locked, owner := tm.table.LockFor(x).Sample()
		if locked && owner == tx.thread {
			continue // validated at lock time in Write
		}
		if locked || tx.rver < ts {
			tx.rollback()
			return core.ErrAborted
		}
	}
	// Install versions and release locks; values are already in place.
	for i := range tx.locked {
		tm.table.Lock(tx.locked[i].s).Unlock(tx.wver)
	}
	tx.finish(true)
	return nil
}

// rollback undoes in-place writes in reverse order, then restores
// versions and releases locks, and only then clears the active flag —
// the ordering the fence relies on. All values are restored before any
// lock is released so no other thread can observe (or lock past) a
// half-rolled-back stripe.
func (tx *txn) rollback() {
	tm := tx.tm
	for i := len(tx.undo) - 1; i >= 0; i-- {
		tm.table.Store(tx.undo[i].x, tx.undo[i].v)
	}
	for i := len(tx.locked) - 1; i >= 0; i-- {
		tm.table.Lock(tx.locked[i].s).AbortUnlock(tx.locked[i].old)
	}
	tx.undo = tx.undo[:0]
	tx.locked = tx.locked[:0]
	tx.finish(false)
}

// Live implements core.Txn.
func (tx *txn) Live() bool { return tx.live }

// Abort implements core.Txn.
func (tx *txn) Abort() {
	if !tx.live {
		panic("wtstm: Abort on finished transaction")
	}
	tx.rollback()
}
