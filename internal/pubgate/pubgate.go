// Package pubgate is the waiting half of the privatization idiom
// (Figure 7 of the paper): the one place where an operation that found
// its shard, scan window or hash table privatized waits for the
// owner's publish. stmkv's shards, stmds.SkipMap's scan windows and
// stmds.HashMap's doublings all wait through it.
//
// A Gate is a channel behind an atomic pointer. The owner calls Open
// after its publishing transaction commits; Open swaps in a fresh
// channel and closes the old one. A waiter (Retry) samples the pointer
// before it runs its transaction, so a publish that lands between the
// failed attempt and the wait has already replaced the sampled pointer
// and the wait ends at once.
//
// The wait spins on the gate, not on the TM: it re-reads the Go-level
// pointer, never a TM register, so it adds no non-transactional access
// to the program the paper's DRF argument covers, costs the TM no
// aborted attempts, and sees the publish within one cache miss. Only
// when the spinning rounds are used up does the waiter park on the
// channel, with a timeout that backstops a dead owner.
package pubgate

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
	// spinLoads is how many times one spinning round re-reads the gate
	// pointer (about a microsecond) before it yields the processor.
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

// Gate is a publish gate. The zero value is ready to use. It fills a
// cache line of its own: every waiter re-reads it in a loop, so it must
// not share a line with counters its neighbours bump.
type Gate struct {
	cur atomic.Pointer[chan struct{}]
	_   [56]byte
}

// Open wakes every waiter. Owners call it after each publish.
func (g *Gate) Open() {
	next := make(chan struct{})
	if old := g.cur.Swap(&next); old != nil {
		close(*old)
	}
}

// sample returns the current channel's pointer, installing the first
// channel if no Open or waiter has yet.
func (g *Gate) sample() *chan struct{} {
	if p := g.cur.Load(); p != nil {
		return p
	}
	first := make(chan struct{})
	g.cur.CompareAndSwap(nil, &first)
	return g.cur.Load()
}

// Retry runs body as a transaction of thread th, again after every
// publish for as long as body fails with the error private (matched
// with errors.Is). Any other outcome is returned as is. body must
// report private before it writes anything the owner could see.
//
// The stall outcomes are counted in th's telemetry slot when tm carries
// a board: GateSpinWakes, GateParks, GateTimeouts.
func (g *Gate) Retry(tm core.TM, th int, private error, body func(core.Txn) error) error {
	return g.retry(tm, th, private, body, maxWaits, parkTimeout)
}

func (g *Gate) retry(tm core.TM, th int, private error, body func(core.Txn) error, maxWaits int, parkTimeout time.Duration) error {
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
			return fmt.Errorf("pubgate: still private after %d waits (owner died?): %w", wait, err)
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
		if slot != nil {
			slot.GateParks.Add(1)
		}
		if timer == nil {
			timer = time.NewTimer(parkTimeout)
		} else {
			timer.Reset(parkTimeout)
		}
		select {
		case <-*gate:
		case <-timer.C:
			if slot != nil {
				slot.GateTimeouts.Add(1)
			}
		}
	}
}

// spin re-reads the gate pointer until it differs from the sampled one
// (a publish happened) or the round is used up.
func (g *Gate) spin(gate *chan struct{}) bool {
	for i := 0; i < spinLoads; i++ {
		if g.cur.Load() != gate {
			return true
		}
	}
	return false
}
