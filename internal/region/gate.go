package region

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"safepriv/internal/core"
	"safepriv/internal/telemetry"
)

const (
	// spinLoads is how many times one spinning round re-reads the gate's
	// generation (about a microsecond) before it yields the processor.
	spinLoads = 1024
	// spinRounds is how many spinning rounds precede parking: a private
	// phase is one fence plus a bounded walk or copy, so the owner is
	// usually nearly done.
	spinRounds = 64
	// parkTimeout caps one parked wait; it only matters when the owner
	// died between privatize and publish.
	parkTimeout = time.Millisecond
	// maxWaits bounds the rounds a waiter spends on one operation.
	// Private phases are bounded work, so exhausting the bound means the
	// owner never published and waiting longer would hang forever. With
	// each parked wait capped at parkTimeout it is also a rough
	// stuck-time budget (about 17 minutes).
	maxWaits = 1 << 20
)

// gate is a publish gate: the waiting half of the idiom. The zero value
// is ready to use.
//
// A gate is a generation counter and, while a waiter is parked, a
// channel behind an atomic pointer. The owner calls Open after its
// publishing transaction commits; Open bumps the generation and, if a
// waiter installed a channel, swaps it out and closes it. A waiter
// (Retry) samples the generation before it runs its transaction, so a
// publish that lands between the failed attempt and the wait has
// already moved it and the wait ends at once. Only a waiter that parks
// makes a channel, so a publish nobody waits on allocates nothing.
//
// The wait spins on the gate, not on the TM: it re-reads the Go-level
// generation, never a TM register, so it adds no non-transactional
// access to the program the paper's DRF argument covers, costs the TM
// no aborted attempts, and sees the publish within one cache miss.
// Only when the spinning rounds are used up does the waiter park on
// the channel, with a timeout that backstops a dead owner. It fills a
// cache line of its own: every waiter re-reads it in a loop, so it must
// not share a line with counters its neighbours bump.
type gate struct {
	gen atomic.Uint64                 // bumped by every Open
	ch  atomic.Pointer[chan struct{}] // nil until a waiter parks
	_   [48]byte
}

// Open wakes every waiter. Owners call it after each publish.
func (g *gate) Open() {
	g.gen.Add(1)
	if p := g.ch.Swap(nil); p != nil {
		close(*p)
	}
}

// sample returns the gate's generation; every Open after it moves it.
func (g *gate) sample() uint64 { return g.gen.Load() }

// parkChan returns the channel the next Open closes, installing one
// when no waiter has since the last Open.
func (g *gate) parkChan() *chan struct{} {
	for {
		if p := g.ch.Load(); p != nil {
			return p
		}
		c := make(chan struct{})
		if g.ch.CompareAndSwap(nil, &c) {
			return &c
		}
	}
}

// Retry runs body as a transaction of thread th, again after every
// publish for as long as body fails with the error private (matched
// with errors.Is). Any other outcome is returned as is. body must
// report private before it writes anything the owner could see.
//
// The stall outcomes are counted in th's telemetry slot when tm carries
// a board: GateSpinWakes, GateParks, GateTimeouts.
func (g *gate) Retry(tm core.TM, th int, private error, body func(core.Txn) error) error {
	return g.retry(tm, th, private, body, maxWaits, parkTimeout)
}

func (g *gate) retry(tm core.TM, th int, private error, body func(core.Txn) error, maxWaits int, parkTimeout time.Duration) error {
	var (
		slot  *telemetry.Slot // set on the first stall
		timer *time.Timer     // one per call, reused across parks
	)
	for wait := 0; ; wait++ {
		gate := g.sample()
		err := core.Atomically(tm, th, body)
		if err == nil || !errors.Is(err, private) {
			if timer != nil {
				timer.Stop()
			}
			return err
		}
		if wait >= maxWaits {
			return fmt.Errorf("region: still private after %d waits (owner died?): %w", wait, err)
		}
		if wait == 0 {
			if p, ok := tm.(telemetry.Provider); ok {
				slot = p.TelemetryBoard().Slot(th)
			}
		}
		if wait < spinRounds {
			if g.spin(gate) {
				if slot != nil {
					slot.GateSpinWakes.Add(1)
				}
			} else {
				runtime.Gosched()
			}
			continue
		}
		// Open moves the generation before it swaps the channel out, so
		// if the generation has not moved once the channel is loaded, an
		// Open still to come closes it: no publish is missed.
		parked := g.parkChan()
		if g.sample() != gate {
			if slot != nil {
				slot.GateSpinWakes.Add(1)
			}
			continue
		}
		if slot != nil {
			slot.GateParks.Add(1)
		}
		if timer == nil {
			timer = time.NewTimer(parkTimeout)
		} else {
			timer.Reset(parkTimeout)
		}
		select {
		case <-*parked:
		case <-timer.C:
			if slot != nil {
				slot.GateTimeouts.Add(1)
			}
		}
	}
}

// spin re-reads the generation until it differs from the sampled one
// (a publish happened) or the round is used up.
func (g *gate) spin(gate uint64) bool {
	for i := 0; i < spinLoads; i++ {
		if g.sample() != gate {
			return true
		}
	}
	return false
}
