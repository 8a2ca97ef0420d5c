package core_test

import (
	"errors"
	"testing"
	"time"

	"safepriv/internal/atomictm"
	"safepriv/internal/baseline"
	"safepriv/internal/core"
	"safepriv/internal/core/coretest"
	"safepriv/internal/norec"
	"safepriv/internal/tl2"
	"safepriv/internal/wtstm"
)

// implementations returns every core.TM implementation for contract
// tests.
func implementations(regs, threads int) map[string]core.TM {
	return map[string]core.TM{
		"tl2":      tl2.New(regs, threads),
		"norec":    norec.New(regs, threads, nil),
		"wtstm":    wtstm.New(regs, threads),
		"baseline": baseline.New(regs, threads, nil),
		"atomic":   atomictm.New(regs, threads),
	}
}

func TestAtomicallyCommits(t *testing.T) {
	for name, tm := range implementations(2, 2) {
		t.Run(name, func(t *testing.T) {
			err := core.Atomically(tm, 1, func(tx core.Txn) error {
				return tx.Write(0, 41)
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := tm.Load(1, 0); got != 41 {
				t.Fatalf("Load = %d", got)
			}
		})
	}
}

func TestAtomicallyPropagatesUserError(t *testing.T) {
	boom := errors.New("boom")
	for name, tm := range implementations(2, 2) {
		t.Run(name, func(t *testing.T) {
			err := core.Atomically(tm, 1, func(tx core.Txn) error {
				if err := tx.Write(0, 1); err != nil {
					return err
				}
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v", err)
			}
			if got := tm.Load(1, 0); got != 0 {
				t.Fatalf("write from failed body visible: %d", got)
			}
		})
	}
}

func TestAtomicallyRetriesOnAbort(t *testing.T) {
	// Force one abort via a version bump between Begin and Read, then
	// observe the retry succeed. Only TL2 aborts; the test drives it
	// deterministically.
	tm := tl2.New(2, 3)
	attempts := 0
	err := core.Atomically(tm, 1, func(tx core.Txn) error {
		attempts++
		if attempts == 1 {
			// Concurrent committer bumps the version of register 0,
			// dooming the first attempt's read.
			other := tm.Begin(2)
			other.Write(0, 99)
			if err := other.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Read(0); err != nil {
			return err
		}
		return tx.Write(1, 7)
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts < 2 {
		t.Fatalf("expected a retry, attempts = %d", attempts)
	}
	if got := tm.Load(1, 1); got != 7 {
		t.Fatalf("retried transaction lost its write: %d", got)
	}
}

func TestNumRegs(t *testing.T) {
	for name, tm := range implementations(7, 2) {
		if tm.NumRegs() != 7 {
			t.Errorf("%s: NumRegs = %d", name, tm.NumRegs())
		}
	}
}

// TestAtomicallyRetriesBodyAbort: a body that returns ErrAborted of its
// own accord (stmalloc's chain guards) leaves the transaction live.
// Atomically must end it — rolling its in-place writes back — before
// it begins the retry, or the retry begins inside a transaction (a
// panic; on the global lock, a deadlock).
func TestAtomicallyRetriesBodyAbort(t *testing.T) {
	for name, tm := range implementations(2, 2) {
		t.Run(name, func(t *testing.T) {
			attempts := 0
			err := core.Atomically(tm, 1, func(tx core.Txn) error {
				attempts++
				if _, err := tx.Read(0); err != nil {
					return err
				}
				if attempts == 1 {
					if err := tx.Write(1, 99); err != nil {
						return err
					}
					return core.ErrAborted // still live
				}
				return tx.Write(0, 7)
			})
			if err != nil {
				t.Fatal(err)
			}
			if attempts != 2 {
				t.Fatalf("body ran %d times, want 2", attempts)
			}
			if got := tm.Load(1, 0); got != 7 {
				t.Fatalf("reg 0 = %d, want 7", got)
			}
			if got := tm.Load(1, 1); got != 0 {
				t.Fatalf("the abandoned attempt's write landed: reg 1 = %d", got)
			}
			// The thread is out of its transaction: a fence returns.
			tm.Fence(2)
		})
	}
}

// TestBackoffDelayCap is the backoff policy table test: no delay for
// the first attempts, growth after the threshold, and a hard cap no
// (thread, attempt) pair may exceed.
func TestBackoffDelayCap(t *testing.T) {
	cases := []struct {
		attempt  int
		wantZero bool
	}{
		{0, true}, {1, true}, {2, true}, // immediate retries
		{3, false}, {4, false}, // backoff engages
		{10, false}, {20, false},
		{63, false}, {1000, false}, {core.MaxAttempts - 1, false},
	}
	for _, tc := range cases {
		for thread := 1; thread <= 16; thread++ {
			d := core.BackoffDelay(thread, tc.attempt)
			if tc.wantZero && d != 0 {
				t.Errorf("thread %d attempt %d: delay %v, want 0", thread, tc.attempt, d)
			}
			if !tc.wantZero && d <= 0 {
				t.Errorf("thread %d attempt %d: delay %v, want > 0", thread, tc.attempt, d)
			}
			if d > core.BackoffCap {
				t.Errorf("thread %d attempt %d: delay %v exceeds cap %v",
					thread, tc.attempt, d, core.BackoffCap)
			}
			if d2 := core.BackoffDelay(thread, tc.attempt); d2 != d {
				t.Errorf("thread %d attempt %d: nondeterministic delay %v vs %v",
					thread, tc.attempt, d, d2)
			}
		}
	}
	// Jitter must actually spread threads: at a backoff attempt, not
	// every thread may land on the same delay.
	seen := map[time.Duration]bool{}
	for thread := 1; thread <= 16; thread++ {
		seen[core.BackoffDelay(thread, 6)] = true
	}
	if len(seen) < 2 {
		t.Errorf("no per-thread jitter: all 16 threads got the same delay")
	}
}

// TestBackoffNsCountsElapsed: the telemetry slot's BackoffNs is the time
// the backoff waits took — at least the delays asked for, at most the
// wall time of the whole call.
func TestBackoffNsCountsElapsed(t *testing.T) {
	// Attempts 0..aborts-1 abort and attempt `aborts` commits, so the
	// call waits before attempts 3..aborts: five backoffs.
	const thread, aborts = 1, 7
	var asked time.Duration
	for a := 0; a <= aborts; a++ {
		asked += core.BackoffDelay(thread, a)
	}
	tm := tl2.New(2, 2)
	attempts := 0
	start := time.Now()
	err := core.Atomically(tm, thread, func(tx core.Txn) error {
		if attempts++; attempts <= aborts {
			return core.ErrAborted
		}
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	got := time.Duration(tm.TelemetryBoard().Slot(thread).BackoffNs.Load())
	if got < asked || got > wall {
		t.Fatalf("BackoffNs = %v, want between the %v asked for and the call's %v", got, asked, wall)
	}
}

// TestAtomicallyAllocatesNothing pins the Go-heap cost of a
// transaction on tl2: core.Atomically running a read-only and a
// read-write block allocates nothing.
func TestAtomicallyAllocatesNothing(t *testing.T) {
	if coretest.RaceEnabled {
		t.Skip("-race: allocation budgets do not hold")
	}
	tm := tl2.New(64, 2)
	var sum int64
	for _, row := range []struct {
		name string
		fn   func(tx core.Txn) error
	}{
		{"read-only", func(tx core.Txn) error {
			v, err := tx.Read(3)
			sum += v
			return err
		}},
		{"read-write", func(tx core.Txn) error {
			v, err := tx.Read(3)
			if err != nil {
				return err
			}
			return tx.Write(3, v+1)
		}},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := core.Atomically(tm, 1, row.fn); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s Atomically allocates %v times per call, want 0", row.name, allocs)
		}
	}
}
