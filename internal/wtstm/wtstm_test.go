package wtstm

import (
	"errors"
	"sync"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/workload"
)

func TestBasicCommit(t *testing.T) {
	tm := New(4, 2)
	tx := tm.Begin(1)
	if err := tx.Write(0, 7); err != nil {
		t.Fatal(err)
	}
	if v, err := tx.Read(0); err != nil || v != 7 {
		t.Fatalf("read own in-place write: %d,%v", v, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := tm.Load(1, 0); got != 7 {
		t.Fatalf("Load = %d", got)
	}
}

func TestAbortRollsBackInPlace(t *testing.T) {
	tm := New(4, 2)
	tm.Store(1, 0, 10)
	tx := tm.Begin(1)
	tx.Write(0, 99)
	// The dirty value is visible in place (uninstrumented readers of a
	// racy program would see it — that is the point of this TM).
	if got := tm.Load(1, 0); got != 99 {
		t.Fatalf("in-place write invisible: %d", got)
	}
	tx.Abort()
	if got := tm.Load(1, 0); got != 10 {
		t.Fatalf("rollback failed: %d", got)
	}
}

func TestWriteWriteConflictAborts(t *testing.T) {
	tm := New(4, 3)
	tx1 := tm.Begin(1)
	if err := tx1.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	tx2 := tm.Begin(2)
	if err := tx2.Write(0, 2); !errors.Is(err, core.ErrAborted) {
		t.Fatalf("encounter-time conflict not detected: %v", err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := tm.Load(1, 0); got != 1 {
		t.Fatalf("value = %d", got)
	}
}

func TestReadAbortsOnLockedRegister(t *testing.T) {
	tm := New(4, 3)
	tx1 := tm.Begin(1)
	tx1.Write(0, 5)
	tx2 := tm.Begin(2)
	if _, err := tx2.Read(0); !errors.Is(err, core.ErrAborted) {
		t.Fatalf("read of locked register did not abort: %v", err)
	}
	tx1.Commit()
}

func TestSnapshotValidation(t *testing.T) {
	tm := New(4, 3)
	tx1 := tm.Begin(1)
	if _, err := tx1.Read(0); err != nil {
		t.Fatal(err)
	}
	tx2 := tm.Begin(2)
	tx2.Write(0, 3)
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx1.Write(1, 4)
	if err := tx1.Commit(); !errors.Is(err, core.ErrAborted) {
		t.Fatalf("stale snapshot committed: %v", err)
	}
	if got := tm.Load(1, 1); got != 0 {
		t.Fatalf("aborted in-place write leaked: %d", got)
	}
}

// TestReadOnlyCommit: a transaction holding no lock commits without a
// timestamp — the clock does not move across read-only commits — and
// serializes at rver: it commits although its register was overwritten
// after the read, and aborts at the read if it reads the overwritten
// register afterwards.
func TestReadOnlyCommit(t *testing.T) {
	tm := New(4, 3)
	before := tm.clock.Load()
	for i := 0; i < 100; i++ {
		tx := tm.Begin(1)
		if _, err := tx.Read(0); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := tm.clock.Load(); got != before {
		t.Fatalf("clock moved %d -> %d across read-only commits", before, got)
	}

	overwrite := func() {
		t.Helper()
		w := tm.Begin(2)
		w.Write(0, 3)
		w.Write(1, 3)
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx1 := tm.Begin(1)
	if _, err := tx1.Read(0); err != nil {
		t.Fatal(err)
	}
	overwrite()
	if err := tx1.Commit(); err != nil {
		t.Fatalf("read-only commit after an overwrite: %v", err)
	}
	tx1 = tm.Begin(1)
	if _, err := tx1.Read(0); err != nil {
		t.Fatal(err)
	}
	overwrite()
	if _, err := tx1.Read(1); !errors.Is(err, core.ErrAborted) {
		t.Fatalf("read of a register overwritten since begin: %v, want abort", err)
	}
}

func TestCounterConcurrent(t *testing.T) {
	tm := New(1, 9)
	const threads, per = 8, 200
	var wg sync.WaitGroup
	for th := 1; th <= threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				err := core.Atomically(tm, th, func(tx core.Txn) error {
					v, err := tx.Read(0)
					if err != nil {
						return err
					}
					return tx.Write(0, v+1)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(th)
	}
	wg.Wait()
	if got := tm.Load(1, 0); got != threads*per {
		t.Fatalf("counter = %d, want %d", got, threads*per)
	}
}

func TestBankInvariant(t *testing.T) {
	tm := New(16, 9)
	for x := 0; x < 16; x++ {
		tm.Store(1, x, 100)
	}
	if _, err := workload.Bank(tm, 8, 300, workload.FenceNone, 1); err != nil {
		t.Fatal(err)
	}
	if got := workload.Total(tm); got != 1600 {
		t.Fatalf("total = %d", got)
	}
}

// TestDelayedAbortAnomaly reproduces the paper's §1 remark about
// in-place TMs, deterministically: without a fence, a doomed
// transaction's ROLLBACK overwrites the privatizing thread's
// uninstrumented write; the fence excludes it by waiting until the
// rollback completes.
func TestDelayedAbortAnomaly(t *testing.T) {
	const flag, x = 0, 1

	// Unsafe: fence elided.
	tm := New(2, 3, WithUnsafeFence())
	// T2 starts and writes x in place (value 42 visible, lock held).
	t2 := tm.Begin(2)
	if err := t2.Write(x, 42); err != nil {
		t.Fatal(err)
	}
	// Thread 1 privatizes x via the flag.
	if err := core.Atomically(tm, 1, func(tx core.Txn) error {
		return tx.Write(flag, 1)
	}); err != nil {
		t.Fatal(err)
	}
	tm.Fence(1) // no-op in this configuration
	// ν: the owner's uninstrumented private write.
	tm.Store(1, x, 7)
	// T2 is doomed (its snapshot predates the privatization); it reads
	// the flag, fails validation, and rolls back — clobbering ν.
	if _, err := t2.Read(flag); !errors.Is(err, core.ErrAborted) {
		t.Fatalf("doomed transaction survived: %v", err)
	}
	if got := tm.Load(1, x); got == 7 {
		t.Fatal("anomaly did not manifest (rollback should have clobbered ν)")
	} else if got != 0 {
		t.Fatalf("unexpected value %d", got)
	}

	// Safe: the real fence blocks until T2 has rolled back, so ν lands
	// after the rollback and survives.
	tm = New(2, 3)
	t2 = tm.Begin(2)
	if err := t2.Write(x, 42); err != nil {
		t.Fatal(err)
	}
	if err := core.Atomically(tm, 1, func(tx core.Txn) error {
		return tx.Write(flag, 1)
	}); err != nil {
		t.Fatal(err)
	}
	fenceDone := make(chan struct{})
	go func() {
		tm.Fence(1)
		tm.Store(1, x, 7) // ν runs only after the grace period
		close(fenceDone)
	}()
	select {
	case <-fenceDone:
		t.Fatal("fence did not wait for the active transaction")
	default:
	}
	// T2 aborts (rollback completes, active flag clears) and the fence
	// proceeds.
	if _, err := t2.Read(flag); !errors.Is(err, core.ErrAborted) {
		t.Fatalf("doomed transaction survived: %v", err)
	}
	<-fenceDone
	if got := tm.Load(1, x); got != 7 {
		t.Fatalf("fenced private write lost: x = %d", got)
	}
}

func TestBeginInsideTxnPanics(t *testing.T) {
	tm := New(2, 2)
	tm.Begin(1)
	defer func() {
		if recover() == nil {
			t.Fatal("nested Begin did not panic")
		}
	}()
	tm.Begin(1)
}
