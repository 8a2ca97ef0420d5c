package pubgate

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"safepriv/internal/core"
	"safepriv/internal/tl2"
)

var errPrivate = errors.New("test: private")

// guarded is a transaction body over register 0 that reports private
// while the switch is on, the way stmkv's and stmds's guards do.
func guarded(private *atomic.Bool) func(core.Txn) error {
	return func(tx core.Txn) error {
		if _, err := tx.Read(0); err != nil {
			return err
		}
		if private.Load() {
			return errPrivate
		}
		return nil
	}
}

func TestOpenClosesTheSampledChannel(t *testing.T) {
	var g Gate
	sampled := g.sample()
	if g.sample() != sampled {
		t.Fatal("two samples without an Open differ")
	}
	g.Open()
	select {
	case <-*sampled:
	default:
		t.Fatal("Open left the sampled channel open")
	}
	if g.sample() == sampled {
		t.Fatal("Open did not replace the channel")
	}
}

func TestRetryPassesOtherOutcomesThrough(t *testing.T) {
	var g Gate
	tm := tl2.New(1, 2)
	if err := g.Retry(tm, 1, errPrivate, func(core.Txn) error { return nil }); err != nil {
		t.Fatalf("committed body: %v", err)
	}
	other := errors.New("other")
	if err := g.Retry(tm, 1, errPrivate, func(core.Txn) error { return other }); err != other {
		t.Fatalf("got %v, want the body's own error", err)
	}
	if sl := tm.TelemetryBoard().Slot(1); sl.GateSpinWakes.Load()+sl.GateParks.Load() != 0 {
		t.Fatal("an operation that never stalled was counted as a stall")
	}
}

// TestSpinSeesOpen: a publish that lands during the failed attempt —
// after the gate was sampled — ends the wait on the spin's first load:
// one re-attempt, no yield, no park.
func TestSpinSeesOpen(t *testing.T) {
	var g Gate
	tm := tl2.New(1, 2)
	sl := tm.TelemetryBoard().Slot(1)
	attempts := 0
	err := g.Retry(tm, 1, errPrivate, func(core.Txn) error {
		if attempts++; attempts == 1 {
			g.Open()
			return errPrivate
		}
		return nil
	})
	if err != nil || attempts != 2 {
		t.Fatalf("err %v after %d attempts, want nil after 2", err, attempts)
	}
	if wakes, parks := sl.GateSpinWakes.Load(), sl.GateParks.Load(); wakes != 1 || parks != 0 {
		t.Fatalf("spin wakes %d, parks %d; want 1 and 0", wakes, parks)
	}
}

// TestOpenWakesParkedWaiter: a parked waiter leaves through the gate's
// channel when the owner publishes, not through the timeout backstop.
// The backstop here is far longer than any scheduling delay, so on a
// loaded host too a trial that records a timeout means Open did not
// wake the parked waiter.
func TestOpenWakesParkedWaiter(t *testing.T) {
	const (
		trials   = 20
		backstop = 10 * time.Second
	)
	tm := tl2.New(1, 2)
	sl := tm.TelemetryBoard().Slot(1)
	var slowest time.Duration
	for i := 0; i < trials; i++ {
		var g Gate
		var private atomic.Bool
		private.Store(true)
		parked := sl.GateParks.Load()
		timeouts := sl.GateTimeouts.Load()
		done := make(chan error, 1)
		go func() { done <- g.retry(tm, 1, errPrivate, guarded(&private), maxWaits, backstop) }()
		for sl.GateParks.Load() == parked {
			time.Sleep(20 * time.Microsecond)
		}
		private.Store(false)
		opened := time.Now()
		g.Open()
		if err := <-done; err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		d := time.Since(opened)
		slowest = max(slowest, d)
		if n := sl.GateTimeouts.Load() - timeouts; n != 0 {
			t.Fatalf("trial %d: the parked waiter timed out %d times, returning %v after Open, instead of waking through the gate", i, n, d)
		}
	}
	t.Logf("%d parked waiters woke through the gate, slowest %v after Open", trials, slowest)
}

// TestNeverPublishedGateGivesUp: when the owner never publishes, the
// waiter returns the stuck-owner error (wrapping the private error)
// once its wait bound is used up.
func TestNeverPublishedGateGivesUp(t *testing.T) {
	var g Gate
	tm := tl2.New(1, 2)
	sl := tm.TelemetryBoard().Slot(1)
	var private atomic.Bool
	private.Store(true)
	const parks = 3
	err := g.retry(tm, 1, errPrivate, guarded(&private), spinRounds+parks, parkTimeout)
	if err == errPrivate || !errors.Is(err, errPrivate) || !strings.Contains(err.Error(), "owner died") {
		t.Fatalf("got %v, want the stuck-owner error wrapping the private error", err)
	}
	if got := sl.GateParks.Load(); got != parks {
		t.Fatalf("parked %d times, want %d", got, parks)
	}
	if got := sl.GateTimeouts.Load(); got != parks {
		t.Fatalf("%d timeouts, want every one of the %d parks to time out", got, parks)
	}
}
