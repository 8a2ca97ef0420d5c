// Runtime: an executable strongly atomic TM.
//
// The rest of this package checks membership in the idealized atomic TM
// Hatomic of §2.4 (strong atomicity as a set of histories). TM below is
// Hatomic as a *runtime*: a transactional memory whose every history is
// non-interleaved at the granularity of conflicting accesses, obtained
// by encounter-time two-phase locking over the shared striped lock
// table (package stripe). Unlike the global-lock baseline, disjoint
// transactions run concurrently — only stripe conflicts serialize — so
// it also serves as a scalable strongly-atomic reference point in the
// benchmark harness.
//
//   - transactional reads and writes acquire the register's stripe lock
//     (trylock; conflict aborts the transaction, so there is no
//     deadlock) and hold it until commit/abort;
//   - writes are in-place with an undo log, rolled back on abort before
//     any lock is released;
//   - non-transactional accesses spin-acquire the stripe lock for the
//     single access — every access is mutually exclusive with every
//     conflicting transaction, which is strong atomicity by
//     construction, with no need for fences (Fence still waits for
//     active transactions, for API parity).
package atomictm

import (
	"fmt"
	"runtime"

	"safepriv/internal/core"
	"safepriv/internal/rcu"
	"safepriv/internal/record"
	"safepriv/internal/stripe"
	"safepriv/internal/telemetry"
)

// Option mutates TM construction.
type Option func(*config)

type config struct {
	stripes int
	sink    record.Sink
}

// withStripes sets the lock-table size (0 = stripe default).
func withStripes(n int) Option { return func(c *config) { c.stripes = n } }

// WithSink attaches a recording sink.
func WithSink(s record.Sink) Option { return func(c *config) { c.sink = s } }

// TM is the executable strongly-atomic TM. It implements core.TM.
type TM struct {
	table   *stripe.Table
	fence   *rcu.Fence
	board   *telemetry.Board
	sink    record.Sink
	threads []slot
}

type slot struct {
	tx txn
	_  [64]byte
}

// New returns a strongly-atomic TM with regs registers and thread ids
// 1..threads.
func New(regs, threads int, opts ...Option) *TM {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	tm := &TM{
		table:   stripe.New(regs, cfg.stripes),
		sink:    cfg.sink,
		threads: make([]slot, threads+1),
	}
	tm.board = telemetry.NewBoard(threads)
	tm.fence = rcu.New(threads, false, tm.board)
	for t := range tm.threads {
		tm.threads[t].tx.tm = tm
		tm.threads[t].tx.thread = t
	}
	return tm
}

// NumRegs implements core.TM.
func (tm *TM) NumRegs() int { return tm.table.Regs() }

// acquire spin-acquires stripe s for a non-transactional access and
// returns the pre-lock version to reinstate on release. It can only
// wait for transactions that conflict on the stripe — exactly the
// serialization strong atomicity demands.
func (tm *TM) acquire(thread, s int) int64 {
	for {
		if old, ok := tm.table.Lock(s).TryLockVersioned(thread); ok {
			return old
		}
		spin()
	}
}

// Load implements core.TM: a non-transactional read, serialized with
// conflicting transactions by the stripe lock.
func (tm *TM) Load(thread, x int) int64 {
	s := tm.table.StripeOf(x)
	old := tm.acquire(thread, s)
	var v int64
	if sk := tm.sink; sk != nil {
		v = sk.NonTxnRead(thread, x, func() int64 { return tm.table.Load(x) })
	} else {
		v = tm.table.Load(x)
	}
	tm.table.Lock(s).AbortUnlock(old)
	return v
}

// Store implements core.TM: a non-transactional write, serialized with
// conflicting transactions by the stripe lock.
func (tm *TM) Store(thread, x int, v int64) {
	s := tm.table.StripeOf(x)
	old := tm.acquire(thread, s)
	if sk := tm.sink; sk != nil {
		sk.NonTxnWrite(thread, x, v, func() { tm.table.Store(x, v) })
	} else {
		tm.table.Store(x, v)
	}
	tm.table.Lock(s).AbortUnlock(old)
}

// Fence implements core.TM. Strong atomicity holds without fences here;
// the wait is provided for API parity with the paper's TMs.
func (tm *TM) Fence(thread int) {
	if sk := tm.sink; sk != nil {
		sk.FBegin(thread)
	}
	tm.fence.Wait()
	if sk := tm.sink; sk != nil {
		sk.FEnd(thread)
	}
}

// TelemetryBoard implements telemetry.Provider: the per-thread counter
// board core.Atomically and the fence record into.
func (tm *TM) TelemetryBoard() *telemetry.Board { return tm.board }

// Begin implements core.TM.
func (tm *TM) Begin(thread int) core.Txn {
	tx := &tm.threads[thread].tx
	if tx.live {
		panic(fmt.Sprintf("atomictm: thread %d began a transaction inside a transaction", thread))
	}
	tx.reset()
	tm.fence.Enter(thread)
	if sk := tm.sink; sk != nil {
		sk.TxBegin(thread)
	}
	tx.live = true
	return tx
}

type undoEntry struct {
	x int
	v int64
}

type heldStripe struct {
	s   int
	old int64
}

// txn is a two-phase-locking transaction: all stripe locks are held
// until commit/abort.
type txn struct {
	tm     *TM
	thread int
	live   bool
	held   []heldStripe
	undo   []undoEntry
}

func (tx *txn) reset() {
	tx.held = tx.held[:0]
	tx.undo = tx.undo[:0]
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

// lockStripe acquires x's stripe unless already held; false means
// conflict (the caller aborts).
func (tx *txn) lockStripe(x int) bool {
	tm := tx.tm
	s := tm.table.StripeOf(x)
	if tm.table.Lock(s).OwnedBy(tx.thread) {
		return true
	}
	old, ok := tm.table.Lock(s).TryLockVersioned(tx.thread)
	if !ok {
		return false
	}
	tx.held = append(tx.held, heldStripe{s, old})
	return true
}

// releaseAll rolls back the undo log (abort only) and releases every
// held stripe, values strictly before locks.
func (tx *txn) releaseAll(abort bool) {
	tm := tx.tm
	if abort {
		for i := len(tx.undo) - 1; i >= 0; i-- {
			tm.table.Store(tx.undo[i].x, tx.undo[i].v)
		}
	}
	for i := len(tx.held) - 1; i >= 0; i-- {
		tm.table.Lock(tx.held[i].s).AbortUnlock(tx.held[i].old)
	}
	tx.held = tx.held[:0]
	tx.undo = tx.undo[:0]
}

// Read implements core.Txn.
func (tx *txn) Read(x int) (int64, error) {
	if !tx.live {
		panic("atomictm: Read on finished transaction")
	}
	if !tx.lockStripe(x) {
		if sk := tx.tm.sink; sk != nil {
			sk.ReadAborted(tx.thread, x)
		}
		tx.releaseAll(true)
		tx.finish(false)
		return 0, core.ErrAborted
	}
	v := tx.tm.table.Load(x)
	if sk := tx.tm.sink; sk != nil {
		sk.ReadOK(tx.thread, x, v)
	}
	return v, nil
}

// Write implements core.Txn: in-place under the stripe lock, undo
// logged.
func (tx *txn) Write(x int, v int64) error {
	if !tx.live {
		panic("atomictm: Write on finished transaction")
	}
	if !tx.lockStripe(x) {
		if sk := tx.tm.sink; sk != nil {
			sk.WriteAborted(tx.thread, x, v)
		}
		tx.releaseAll(true)
		tx.finish(false)
		return core.ErrAborted
	}
	logged := false
	for i := range tx.undo {
		if tx.undo[i].x == x {
			logged = true
			break
		}
	}
	if !logged {
		tx.undo = append(tx.undo, undoEntry{x, tx.tm.table.Load(x)})
	}
	tx.tm.table.Store(x, v)
	if sk := tx.tm.sink; sk != nil {
		sk.Write(tx.thread, x, v)
	}
	return nil
}

// Commit implements core.Txn: 2PL commit never fails.
func (tx *txn) Commit() error {
	if !tx.live {
		panic("atomictm: Commit on finished transaction")
	}
	// Committed is recorded while the stripe locks are still held: once
	// they drop, another thread can read this transaction's values, and
	// that read's response must not enter the history ahead of the
	// committed action it depends on.
	if sk := tx.tm.sink; sk != nil {
		sk.TxCommitReq(tx.thread)
		sk.Committed(tx.thread, 0)
	}
	tx.releaseAll(false)
	tx.finish(true)
	return nil
}

// Live implements core.Txn.
func (tx *txn) Live() bool { return tx.live }

// Abort implements core.Txn.
func (tx *txn) Abort() {
	if !tx.live {
		panic("atomictm: Abort on finished transaction")
	}
	if sk := tx.tm.sink; sk != nil {
		sk.TxCommitReq(tx.thread)
	}
	tx.releaseAll(true)
	if sk := tx.tm.sink; sk != nil {
		sk.Aborted(tx.thread)
	}
	tx.finish(false)
}

// spin backs off a contended non-transactional access.
func spin() { runtime.Gosched() }
