// Package coretest holds test helpers for code built on core.TM.
package coretest

import (
	"runtime"

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
