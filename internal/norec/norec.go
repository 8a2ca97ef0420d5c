// Package norec implements the NOrec software transactional memory of
// Dalessandro, Spear and Scott (PPoPP 2010) — reference [10] of the
// paper, cited in §8 as a TM that supports safe privatization *without*
// transactional fences.
//
// NOrec has no ownership records: a single global sequence lock
// serializes writer commits, and readers validate *by value* whenever
// the sequence lock has moved. Privatization safety follows from two
// properties the paper's discussion relies on:
//
//   - no delayed commits: a writer's entire write-back happens while it
//     holds the sequence lock, strictly before or after any other
//     commit — in particular before a privatizing transaction's commit
//     that invalidates it can be observed, and a writer whose snapshot
//     the privatizer broke fails its value-based revalidation under the
//     lock and aborts;
//   - no doomed reads of private data: a transaction that was
//     invalidated by the privatizing commit revalidates (the sequence
//     number moved) on its very next read and aborts before it can
//     observe the owner's uninstrumented writes.
//
// Fence is still provided (grace period over active flags) so NOrec
// drops into every harness in this repository, but — unlike TL2 — the
// privatization idiom is safe on NOrec even when the fence is omitted,
// which TestNoFencePrivatizationSafe demonstrates.
package norec

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"safepriv/internal/core"
	"safepriv/internal/rcu"
	"safepriv/internal/record"
	"safepriv/internal/telemetry"
)

// Option mutates NOrec construction.
type Option func(*options)

type options struct {
	epochs bool
}

// WithEpochFence selects the epoch-based grace period for the fence
// instead of the flag-based one.
func WithEpochFence() Option { return func(o *options) { o.epochs = true } }

// TM is a NOrec transactional memory implementing core.TM.
type TM struct {
	// seq is the global sequence lock: even = no writer committing; a
	// committer holds it by moving it odd.
	seq     atomic.Int64
	_       [56]byte
	regs    []atomic.Int64
	fence   *rcu.Fence
	board   *telemetry.Board
	sink    record.Sink
	threads []slot
}

type slot struct {
	tx txn
	_  [64]byte
}

// New returns a NOrec TM with regs registers and thread ids 1..threads.
func New(regs, threads int, sink record.Sink, opts ...Option) *TM {
	var o options
	for _, f := range opts {
		f(&o)
	}
	tm := &TM{
		regs:    make([]atomic.Int64, regs),
		sink:    sink,
		threads: make([]slot, threads+1),
	}
	tm.board = telemetry.NewBoard(threads)
	tm.fence = rcu.New(threads, o.epochs, tm.board)
	for t := range tm.threads {
		tm.threads[t].tx.tm = tm
		tm.threads[t].tx.thread = t
	}
	return tm
}

// NumRegs implements core.TM.
func (tm *TM) NumRegs() int { return len(tm.regs) }

// Load implements core.TM (uninstrumented).
func (tm *TM) Load(thread, x int) int64 {
	if tm.sink != nil {
		return tm.sink.NonTxnRead(thread, x, func() int64 { return tm.regs[x].Load() })
	}
	return tm.regs[x].Load()
}

// Store implements core.TM (uninstrumented).
func (tm *TM) Store(thread, x int, v int64) {
	if tm.sink != nil {
		tm.sink.NonTxnWrite(thread, x, v, func() { tm.regs[x].Store(v) })
		return
	}
	tm.regs[x].Store(v)
}

// Fence implements core.TM. NOrec does not require fences for safe
// privatization; the fence is provided for API parity and still
// implements the paper's semantics (wait for all active transactions).
func (tm *TM) Fence(thread int) {
	if tm.sink != nil {
		tm.sink.FBegin(thread)
	}
	tm.fence.Wait()
	if tm.sink != nil {
		tm.sink.FEnd(thread)
	}
}

// TelemetryBoard implements telemetry.Provider: the per-thread counter
// board core.Atomically and the fence record into.
func (tm *TM) TelemetryBoard() *telemetry.Board { return tm.board }

// Begin implements core.TM.
func (tm *TM) Begin(thread int) core.Txn {
	tx := &tm.threads[thread].tx
	if tx.live {
		panic(fmt.Sprintf("norec: thread %d began a transaction inside a transaction", thread))
	}
	tx.reset()
	tm.fence.Enter(thread)
	if tm.sink != nil {
		tm.sink.TxBegin(thread)
	}
	// Wait for a quiescent (even) sequence number.
	for {
		s := tm.seq.Load()
		if s%2 == 0 {
			tx.snapshot = s
			break
		}
		runtime.Gosched()
	}
	tx.live = true
	return tx
}

type rentry struct {
	x int
	v int64
}

// txn is a NOrec transaction: a value-based read log and a buffered
// write set, validated against the global sequence lock.
type txn struct {
	tm       *TM
	thread   int
	live     bool
	snapshot int64
	reads    []rentry
	wset     []rentry
}

func (tx *txn) reset() {
	tx.snapshot = 0
	tx.reads = tx.reads[:0]
	tx.wset = tx.wset[:0]
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

// validate re-reads the entire read log under a stable even sequence
// number; ok=false means some value changed (the snapshot broke).
func (tx *txn) validate() (int64, bool) {
	for {
		s := tx.tm.seq.Load()
		if s%2 != 0 {
			runtime.Gosched()
			continue
		}
		good := true
		for _, r := range tx.reads {
			if tx.tm.regs[r.x].Load() != r.v {
				good = false
				break
			}
		}
		if tx.tm.seq.Load() != s {
			continue // a commit raced the scan; retry
		}
		return s, good
	}
}

// Read implements core.Txn.
func (tx *txn) Read(x int) (int64, error) {
	if !tx.live {
		panic("norec: Read on finished transaction")
	}
	for i := range tx.wset {
		if tx.wset[i].x == x {
			v := tx.wset[i].v
			if s := tx.tm.sink; s != nil {
				s.ReadOK(tx.thread, x, v)
			}
			return v, nil
		}
	}
	v := tx.tm.regs[x].Load()
	for tx.tm.seq.Load() != tx.snapshot {
		s, ok := tx.validate()
		if !ok {
			if sk := tx.tm.sink; sk != nil {
				sk.ReadAborted(tx.thread, x)
			}
			tx.finish(false)
			return 0, core.ErrAborted
		}
		tx.snapshot = s
		v = tx.tm.regs[x].Load()
	}
	tx.reads = append(tx.reads, rentry{x, v})
	if s := tx.tm.sink; s != nil {
		s.ReadOK(tx.thread, x, v)
	}
	return v, nil
}

// Write implements core.Txn (buffered).
func (tx *txn) Write(x int, v int64) error {
	if !tx.live {
		panic("norec: Write on finished transaction")
	}
	for i := range tx.wset {
		if tx.wset[i].x == x {
			tx.wset[i].v = v
			if s := tx.tm.sink; s != nil {
				s.Write(tx.thread, x, v)
			}
			return nil
		}
	}
	tx.wset = append(tx.wset, rentry{x, v})
	if s := tx.tm.sink; s != nil {
		s.Write(tx.thread, x, v)
	}
	return nil
}

// Commit implements core.Txn.
func (tx *txn) Commit() error {
	tm := tx.tm
	if !tx.live {
		panic("norec: Commit on finished transaction")
	}
	if s := tm.sink; s != nil {
		s.TxCommitReq(tx.thread)
	}
	if len(tx.wset) == 0 {
		// Read-only: the read log was valid at tx.snapshot; nothing to
		// publish.
		if s := tm.sink; s != nil {
			s.Committed(tx.thread, 0)
		}
		tx.finish(true)
		return nil
	}
	// Acquire the sequence lock at a snapshot our reads are valid for.
	for !tm.seq.CompareAndSwap(tx.snapshot, tx.snapshot+1) {
		s, ok := tx.validate()
		if !ok {
			if sk := tm.sink; sk != nil {
				sk.Aborted(tx.thread)
			}
			tx.finish(false)
			return core.ErrAborted
		}
		tx.snapshot = s
	}
	// The commit is decided. Committed is recorded before the write-back
	// makes any value visible: an uninstrumented Load sees a register as
	// soon as it is stored, a transaction once seq is released, and
	// neither read's response may enter the history ahead of the
	// committed action it depends on.
	wver := tx.snapshot + 2
	if s := tm.sink; s != nil {
		s.Committed(tx.thread, wver)
	}
	// Write back while holding the lock (seq odd).
	for _, w := range tx.wset {
		tm.regs[w.x].Store(w.v)
	}
	tm.seq.Store(wver)
	tx.finish(true)
	return nil
}

// Live implements core.Txn.
func (tx *txn) Live() bool { return tx.live }

// Abort implements core.Txn (voluntary abort as an aborting commit).
func (tx *txn) Abort() {
	if !tx.live {
		panic("norec: Abort on finished transaction")
	}
	if s := tx.tm.sink; s != nil {
		s.TxCommitReq(tx.thread)
		s.Aborted(tx.thread)
	}
	tx.finish(false)
}
