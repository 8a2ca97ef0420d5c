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

// Reset zeroes the counters.
func (p *WindowProbe) Reset() { p.open, p.Windows, p.Mallocs = false, 0, 0 }

// TelemetryBoard forwards the wrapped TM's board (nil without one), so
// the code under test takes the same telemetry paths as in production.
func (p *WindowProbe) TelemetryBoard() *telemetry.Board {
	if pr, ok := p.TM.(telemetry.Provider); ok {
		return pr.TelemetryBoard()
	}
	return nil
}
