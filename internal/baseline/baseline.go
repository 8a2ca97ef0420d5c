// Package baseline provides a global-lock transactional memory: every
// transaction and every non-transactional access runs under one mutex.
// It is trivially strongly atomic — its histories are non-interleaved
// by construction, so it is a runtime embodiment of the paper's
// idealized atomic TM Hatomic (§2.4) — and serves two purposes:
//
//   - the performance baseline for the TL2 scalability experiments
//     (experiment E13): it cannot scale, TL2 should;
//   - the oracle for differential testing: any program's behaviour
//     under baseline is a strongly atomic behaviour, and for DRF
//     programs TL2 must produce observationally equivalent ones
//     (Theorem 5.3).
package baseline

import (
	"sync"

	"safepriv/internal/core"
	"safepriv/internal/rcu"
	"safepriv/internal/record"
	"safepriv/internal/telemetry"
)

// TM is a global-lock transactional memory implementing core.TM.
type TM struct {
	mu    sync.Mutex
	regs  []int64
	fence *rcu.Fence
	board *telemetry.Board
	sink  record.Sink
	txns  []txn
}

// New returns a global-lock TM with regs registers and thread ids
// 1..threads.
func New(regs, threads int, sink record.Sink) *TM {
	tm := &TM{regs: make([]int64, regs), sink: sink, txns: make([]txn, threads+1)}
	tm.board = telemetry.NewBoard(threads)
	tm.fence = rcu.New(threads, false, tm.board)
	for t := range tm.txns {
		tm.txns[t].tm = tm
		tm.txns[t].thread = t
	}
	return tm
}

// NumRegs implements core.TM.
func (tm *TM) NumRegs() int { return len(tm.regs) }

// Begin implements core.TM: acquire the global lock for the duration
// of the transaction.
func (tm *TM) Begin(thread int) core.Txn {
	tm.mu.Lock()
	tm.fence.Enter(thread)
	tx := &tm.txns[thread]
	tx.undo = tx.undo[:0]
	tx.live = true
	if tm.sink != nil {
		tm.sink.TxBegin(thread)
	}
	return tx
}

// Fence implements core.TM: a grace period over the (sole possible)
// active transaction, which holds the global lock from Enter to Exit.
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

// Load implements core.TM.
func (tm *TM) Load(thread, x int) int64 {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if tm.sink != nil {
		return tm.sink.NonTxnRead(thread, x, func() int64 { return tm.regs[x] })
	}
	return tm.regs[x]
}

// Store implements core.TM.
func (tm *TM) Store(thread, x int, v int64) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if tm.sink != nil {
		tm.sink.NonTxnWrite(thread, x, v, func() { tm.regs[x] = v })
		return
	}
	tm.regs[x] = v
}

type undoEntry struct {
	x int
	v int64
}

// txn is an in-place transaction with an undo log; it holds the global
// lock from Begin to Commit/Abort.
type txn struct {
	tm     *TM
	thread int
	live   bool
	undo   []undoEntry
}

// Read implements core.Txn.
func (tx *txn) Read(x int) (int64, error) {
	v := tx.tm.regs[x]
	if s := tx.tm.sink; s != nil {
		s.ReadOK(tx.thread, x, v)
	}
	return v, nil
}

// Write implements core.Txn.
func (tx *txn) Write(x int, v int64) error {
	tx.undo = append(tx.undo, undoEntry{x, tx.tm.regs[x]})
	tx.tm.regs[x] = v
	if s := tx.tm.sink; s != nil {
		s.Write(tx.thread, x, v)
	}
	return nil
}

// Commit implements core.Txn: always succeeds.
func (tx *txn) Commit() error {
	if s := tx.tm.sink; s != nil {
		s.TxCommitReq(tx.thread)
		s.Committed(tx.thread, 0)
	}
	tx.live = false
	tx.tm.fence.Exit(tx.thread)
	tx.tm.mu.Unlock()
	return nil
}

// Live implements core.Txn.
func (tx *txn) Live() bool { return tx.live }

// Abort implements core.Txn: roll back in-place writes.
func (tx *txn) Abort() {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		e := tx.undo[i]
		tx.tm.regs[e.x] = e.v
	}
	if s := tx.tm.sink; s != nil {
		s.TxCommitReq(tx.thread)
		s.Aborted(tx.thread)
	}
	tx.live = false
	tx.tm.fence.ExitAborted(tx.thread)
	tx.tm.mu.Unlock()
}
