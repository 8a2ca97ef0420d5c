// Package coretest holds test helpers for code built on core.TM.
package coretest

import (
	"runtime"
	"sync"

	"safepriv/internal/core"
	"safepriv/internal/telemetry"
)

// WindowProbe is a core.TM that counts the Go heap allocations made
// inside private windows: from the moment a Fence returns to the start
// of the next Begin, which in the privatization idiom (Figure 7) is the
// publishing transaction. It reads runtime.MemStats at both ends, so it
// counts every goroutine's allocations; drive it from one goroutine.
type WindowProbe struct {
	core.TM
	ms   runtime.MemStats
	open bool   // a Fence returned and no Begin has started since
	at   uint64 // Mallocs when the open window's Fence returned

	// Windows counts the windows closed so far, Mallocs the allocations
	// made inside them.
	Windows int
	Mallocs uint64
}

// NewWindowProbe wraps tm.
func NewWindowProbe(tm core.TM) *WindowProbe { return &WindowProbe{TM: tm} }

// Fence runs the wrapped fence and opens a window.
func (p *WindowProbe) Fence(th int) {
	p.TM.Fence(th)
	runtime.ReadMemStats(&p.ms)
	p.at, p.open = p.ms.Mallocs, true
}

// Begin closes the open window, if any, and begins a transaction.
func (p *WindowProbe) Begin(th int) core.Txn {
	if p.open {
		runtime.ReadMemStats(&p.ms)
		p.Mallocs += p.ms.Mallocs - p.at
		p.Windows++
		p.open = false
	}
	return p.TM.Begin(th)
}

// Measure runs pass with zeroed counters, up to three times, and stops
// at the first pass whose windows allocated nothing; the counters then
// hold the last pass run. The probe reads process-wide counters, so now
// and then an allocation by a runtime goroutine lands inside a window
// (about one process in forty on a 2-CPU host, with the Go collector on
// or off); code that allocates inside its own windows does so on every
// pass.
func (p *WindowProbe) Measure(pass func()) {
	for range 3 {
		p.open, p.Windows, p.Mallocs = false, 0, 0
		if pass(); p.Mallocs == 0 {
			return
		}
	}
}

// TelemetryBoard forwards the wrapped TM's board (nil without one), so
// the code under test takes the same telemetry paths as in production.
func (p *WindowProbe) TelemetryBoard() *telemetry.Board { return boardOf(p.TM) }

// boardOf returns tm's telemetry board, nil without one.
func boardOf(tm core.TM) *telemetry.Board {
	if pr, ok := tm.(telemetry.Provider); ok {
		return pr.TelemetryBoard()
	}
	return nil
}

// ReadCounter is a core.TM that counts the transactional reads its
// transactions make and, among them, the repeated ones: reads of a
// register the same transaction has already read. Reads and Repeats
// accumulate across transactions until Reset; drive it from one
// goroutine.
type ReadCounter struct {
	core.TM
	tx countingTxn

	Reads, Repeats int
}

// countingTxn is the transaction ReadCounter hands out; seen holds the
// registers the current transaction has read.
type countingTxn struct {
	core.Txn
	c    *ReadCounter
	seen map[int]struct{}
}

// NewReadCounter wraps tm.
func NewReadCounter(tm core.TM) *ReadCounter {
	c := &ReadCounter{TM: tm}
	c.tx = countingTxn{c: c, seen: make(map[int]struct{})}
	return c
}

// Reset zeroes the counters.
func (c *ReadCounter) Reset() { c.Reads, c.Repeats = 0, 0 }

// Begin begins a transaction whose reads are counted.
func (c *ReadCounter) Begin(th int) core.Txn {
	clear(c.tx.seen)
	c.tx.Txn = c.TM.Begin(th)
	return &c.tx
}

// Read counts the read, and counts it as repeated when the transaction
// has read x before.
func (t *countingTxn) Read(x int) (int64, error) {
	t.c.Reads++
	if _, ok := t.seen[x]; ok {
		t.c.Repeats++
	} else {
		t.seen[x] = struct{}{}
	}
	return t.Txn.Read(x)
}

// TelemetryBoard forwards the wrapped TM's board (nil without one).
func (c *ReadCounter) TelemetryBoard() *telemetry.Board { return boardOf(c.TM) }

// CommitPauser is a core.TM that schedules one privatization race. It
// parks a chosen thread's next transaction just before its Commit, and
// releases it when another thread, the privatizer, starts its private
// phase: at the privatizer's Fence or, if the privatizer never fences,
// right after its first uninstrumented Load or Store of a register the
// parked transaction wrote; the privatizer then waits for that commit
// attempt to finish before it goes on.
//
// On a TM that writes in place (wtstm) a parked transaction's writes
// are already in memory, and a privatizing transaction that overwrote
// what it read dooms it. A real fence waits for its rollback, so the
// private phase sees a clean region; without one, the private phase
// reads the doomed values, or the rollback clobbers its stores (the
// delayed-abort anomaly).
type CommitPauser struct {
	core.TM
	thread int
	armed  bool // thread's next transaction parks; only thread's goroutine uses it

	writes                 map[int]bool // registers the parked transaction wrote
	parked, released, done chan struct{}
	release                sync.Once
}

// NewCommitPauser wraps tm and arms it to park thread's next
// transaction.
func NewCommitPauser(tm core.TM, thread int) *CommitPauser {
	return &CommitPauser{TM: tm, thread: thread, armed: true, writes: make(map[int]bool),
		parked: make(chan struct{}), released: make(chan struct{}), done: make(chan struct{})}
}

// Parked is closed once the parked transaction has reached its Commit.
func (p *CommitPauser) Parked() <-chan struct{} { return p.parked }

// Begin hands the armed thread a transaction that parks before its
// commit, and every other call a plain one.
func (p *CommitPauser) Begin(th int) core.Txn {
	tx := p.TM.Begin(th)
	if th != p.thread || !p.armed {
		return tx
	}
	p.armed = false
	return &pausedTxn{Txn: tx, p: p}
}

// Fence releases a parked transaction, then runs the wrapped fence.
func (p *CommitPauser) Fence(th int) {
	if p.privatizer(th) {
		p.release.Do(func() { close(p.released) })
	}
	p.TM.Fence(th)
}

// Load and Store run the wrapped access, then release a parked
// transaction that wrote x and wait for its commit attempt to finish.
func (p *CommitPauser) Load(th, x int) int64 {
	v := p.TM.Load(th, x)
	p.touched(th, x)
	return v
}

func (p *CommitPauser) Store(th, x int, v int64) {
	p.TM.Store(th, x, v)
	p.touched(th, x)
}

func (p *CommitPauser) touched(th, x int) {
	if p.privatizer(th) && p.writes[x] {
		p.release.Do(func() { close(p.released) })
		<-p.done
	}
}

// privatizer reports whether th is not the parked thread and a
// transaction is parked.
func (p *CommitPauser) privatizer(th int) bool {
	select {
	case <-p.parked:
		return th != p.thread
	default:
		return false
	}
}

// TelemetryBoard forwards the wrapped TM's board (nil without one).
func (p *CommitPauser) TelemetryBoard() *telemetry.Board { return boardOf(p.TM) }

// pausedTxn records its writes and parks in Commit until released.
type pausedTxn struct {
	core.Txn
	p *CommitPauser
}

func (t *pausedTxn) Write(x int, v int64) error {
	t.p.writes[x] = true
	return t.Txn.Write(x, v)
}

func (t *pausedTxn) Commit() error {
	close(t.p.parked)
	<-t.p.released
	defer close(t.p.done)
	return t.Txn.Commit()
}
