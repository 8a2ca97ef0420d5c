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
	"safepriv/internal/quiesce"
	"safepriv/internal/record"
	"safepriv/internal/telemetry"
)

// Option mutates TM construction.
type Option func(*config)

type config struct{ mode quiesce.Mode }

// WithFenceMode selects the quiescence mode (wait, combine, defer).
// The baseline's grace period is structural — acquire and release the
// global lock — so the quiescence service wraps that wait.
func WithFenceMode(m quiesce.Mode) Option { return func(c *config) { c.mode = m } }

// TM is a global-lock transactional memory implementing core.TM.
type TM struct {
	mu    sync.Mutex
	regs  []int64
	qs    *quiesce.Service
	board *telemetry.Board
	sink  record.Sink
	txns  []txn
}

// New returns a global-lock TM with regs registers and thread ids
// 1..threads. Thread id threads+1 is reserved for the quiescence
// service's reclaimer (deferred-fence callbacks).
func New(regs, threads int, sink record.Sink, opts ...Option) *TM {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	reclaim := threads + 1
	tm := &TM{regs: make([]int64, regs), sink: sink, txns: make([]txn, reclaim+1)}
	tm.qs = quiesce.NewFunc(func() {
		tm.mu.Lock()
		//lint:ignore SA2001 empty critical section is the grace period
		tm.mu.Unlock()
	}, cfg.mode, reclaim)
	tm.board = telemetry.NewBoard(reclaim)
	tm.qs.SetBoard(tm.board)
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
	tx := &tm.txns[thread]
	tx.undo = tx.undo[:0]
	tx.live = true
	if tm.sink != nil {
		tm.sink.TxBegin(thread)
	}
	return tx
}

// Fence implements core.TM: acquiring and releasing the global lock
// waits for the (sole possible) active transaction.
func (tm *TM) Fence(thread int) {
	if tm.sink != nil {
		tm.sink.FBegin(thread)
	}
	tm.qs.Fence()
	if tm.sink != nil {
		tm.sink.FEnd(thread)
	}
}

// FenceAsync implements core.TM: the quiescence service's Defer.
// Deferred grace periods are not recorded in the sink.
func (tm *TM) FenceAsync(thread int, fn func(thread int)) { tm.qs.Defer(thread, fn) }

// FenceAsyncBatch implements core.BatchFencer: every callback shares
// one grace period.
func (tm *TM) FenceAsyncBatch(thread int, fns []func(thread int)) { tm.qs.DeferBatch(thread, fns) }

// FenceBarrier implements core.TM.
func (tm *TM) FenceBarrier(thread int) { tm.qs.Barrier() }

// TelemetryBoard implements telemetry.Provider: the per-thread counter
// board core.Atomically and the quiescence service record into.
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
	tx.tm.mu.Unlock()
}
