package tl2

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/vclock"
)

// beginTxn is Begin returning the concrete transaction, whose rver and
// wver the timestamp tests read.
func beginTxn(tm *TM, thread int) *txn {
	return tm.Begin(thread).(*txn)
}

func TestReadYourOwnWrite(t *testing.T) {
	tm := New(4, 2)
	tx := tm.Begin(1)
	if err := tx.Write(0, 7); err != nil {
		t.Fatal(err)
	}
	v, err := tx.Read(0)
	if err != nil || v != 7 {
		t.Fatalf("Read = %d,%v want 7", v, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := tm.Load(1, 0); got != 7 {
		t.Fatalf("Load after commit = %d", got)
	}
}

func TestCommittedValueVisibleToLaterTxn(t *testing.T) {
	tm := New(4, 2)
	tx := tm.Begin(1)
	tx.Write(2, 5)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := tm.Begin(2)
	v, err := tx2.Read(2)
	if err != nil || v != 5 {
		t.Fatalf("Read = %d,%v", v, err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestReadAbortsOnNewerVersion(t *testing.T) {
	tm := New(4, 3)
	tx1 := tm.Begin(1) // rver = 0
	tx2 := tm.Begin(2)
	tx2.Write(0, 9)
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	// Register 0 now has version > tx1.rver: tx1's read must abort.
	if _, err := tx1.Read(0); !errors.Is(err, core.ErrAborted) {
		t.Fatalf("expected abort, got %v", err)
	}
}

func TestReadSnapshotConsistency(t *testing.T) {
	// tx1 reads x before a writer bumps it, so tx1 keeps a consistent
	// snapshot: the commit-time revalidation must abort tx1.
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
	// tx1 writes something so commit does full validation.
	tx1.Write(1, 4)
	if err := tx1.Commit(); !errors.Is(err, core.ErrAborted) {
		t.Fatalf("commit revalidation should abort, got %v", err)
	}
	// The aborted transaction's buffered write must not be visible.
	if got := tm.Load(1, 1); got != 0 {
		t.Fatalf("aborted write leaked: %d", got)
	}
}

// TestReadOnlyCommitLeavesClockAlone: a transaction with an empty
// write set commits without a timestamp, so the clock reads the same
// before and after any number of them.
func TestReadOnlyCommitLeavesClockAlone(t *testing.T) {
	for _, opts := range [][]Option{nil, {WithGV4()}} {
		tm := New(4, 3, opts...)
		w := tm.Begin(1)
		w.Write(0, 1)
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		before := tm.clock.Load()
		for i := 0; i < 100; i++ {
			tx := beginTxn(tm, 1+i%2)
			if v, err := tx.Read(0); err != nil || v != 1 {
				t.Fatalf("Read = %d,%v", v, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if tx.wver != 0 {
				t.Fatalf("read-only commit drew wver %d", tx.wver)
			}
		}
		if got := tm.clock.Load(); got != before {
			t.Fatalf("opts %v: clock moved %d -> %d across read-only commits", opts, before, got)
		}
	}
}

// TestReadOnlyCommitSnapshot: a read-only transaction serializes at
// rver. One whose register is overwritten after its read still commits
// (Figure 9 as printed would revalidate and abort it); one that goes on
// to read the overwritten register aborts at that read, so no
// transaction ever returns values from two different snapshots.
func TestReadOnlyCommitSnapshot(t *testing.T) {
	overwrite := func(tm *TM) {
		t.Helper()
		w := tm.Begin(2)
		w.Write(0, 3)
		w.Write(1, 3)
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tm := New(4, 3)
	tx1 := tm.Begin(1)
	if v, err := tx1.Read(0); err != nil || v != 0 {
		t.Fatalf("Read = %d,%v", v, err)
	}
	overwrite(tm)
	if err := tx1.Commit(); err != nil {
		t.Fatalf("read-only commit after an overwrite: %v", err)
	}

	tm = New(4, 3)
	tx1 = tm.Begin(1)
	if _, err := tx1.Read(0); err != nil {
		t.Fatal(err)
	}
	overwrite(tm)
	if _, err := tx1.Read(1); !errors.Is(err, core.ErrAborted) {
		t.Fatalf("read of a register overwritten since begin: %v, want abort", err)
	}
}

// TestWriterCommitRevalidation: a transaction that writes runs Figure
// 9's txcommit, revalidating its read set unless its exclusive tick
// drew rver+1, as two-transaction schedules.
func TestWriterCommitRevalidation(t *testing.T) {
	// No commit since begin: the writer's exclusive tick draws
	// wver == rver+1, so it skips the revalidation and commits.
	tm := New(4, 3)
	tx1 := beginTxn(tm, 1)
	if _, err := tx1.Read(0); err != nil {
		t.Fatal(err)
	}
	tx1.Write(1, 4)
	if err := tx1.Commit(); err != nil {
		t.Fatalf("commit with nothing in between: %v", err)
	}
	if tx1.wver != tx1.rver+1 {
		t.Fatalf("wver = %d, rver = %d, want rver+1", tx1.wver, tx1.rver)
	}
	if got := tm.Load(1, 1); got != 4 {
		t.Fatalf("committed write = %d, want 4", got)
	}

	// A commit in flight has locked a register of the read set but not
	// ticked: it will tick after the writer, so it serializes after it.
	// Nothing ticked since rver, so the writer draws rver+1 and commits
	// without revalidating, although the lock is held.
	tm = New(4, 3)
	tx1 = beginTxn(tm, 1)
	if _, err := tx1.Read(0); err != nil {
		t.Fatal(err)
	}
	old, ok := tm.table.LockFor(0).TryLockVersioned(2)
	if !ok {
		t.Fatal("register 0's lock is taken")
	}
	tx1.Write(1, 4)
	if err := tx1.Commit(); err != nil {
		t.Fatalf("commit beside a lock held without a tick: %v", err)
	}
	tm.table.LockFor(0).AbortUnlock(old)
	if tx1.wver != tx1.rver+1 {
		t.Fatalf("lock held: wver = %d, rver = %d, want rver+1", tx1.wver, tx1.rver)
	}
	if got := tm.Load(1, 1); got != 4 {
		t.Fatalf("lock held: committed write = %d, want 4", got)
	}

	// One commit in between: the writer draws rver+2 and revalidates.
	// It aborts, and its buffered write never lands, if that commit
	// overwrote what it read; it commits if the commit was disjoint.
	for _, tc := range []struct {
		name     string
		other    int // the register the intervening commit writes
		conflict bool
	}{
		{"conflicting", 0, true},
		{"disjoint", 2, false},
	} {
		tm := New(4, 3)
		tx1 := beginTxn(tm, 1)
		if _, err := tx1.Read(0); err != nil {
			t.Fatal(err)
		}
		tx2 := tm.Begin(2)
		tx2.Write(tc.other, 3)
		if err := tx2.Commit(); err != nil {
			t.Fatal(err)
		}
		tx1.Write(1, 4)
		err := tx1.Commit()
		if tx1.wver != tx1.rver+2 {
			t.Fatalf("%s: wver = %d, rver = %d, want rver+2", tc.name, tx1.wver, tx1.rver)
		}
		want := int64(4)
		if tc.conflict {
			want = 0
		}
		if aborted := errors.Is(err, core.ErrAborted); aborted != tc.conflict || (err != nil && !aborted) {
			t.Fatalf("%s commit in between: Commit = %v", tc.name, err)
		}
		if got := tm.Load(1, 1); got != want {
			t.Fatalf("%s: register 1 = %d, want %d", tc.name, got, want)
		}
	}
}

// adoptingClock forces GV4's pass-on-failure branch: between Tick's
// sample and its CAS another committer advances the clock, so the CAS
// fails and the caller adopts the new value.
type adoptingClock struct {
	*vclock.GV4
	between func()
}

func (c *adoptingClock) Tick() (int64, bool) {
	if f := c.between; f != nil {
		c.between = nil
		f()
		return c.GV4.Load(), false
	}
	return c.GV4.Tick()
}

// TestGV4AdoptedTickValidates: a writer that adopts a concurrent
// committer's timestamp holds wver == rver+1 although it was not alone:
// the committer it adopted from overwrote its read set. It must
// revalidate and abort — the schedule that rules out ever skipping the
// revalidation on the strength of the number wver == rver+1.
func TestGV4AdoptedTickValidates(t *testing.T) {
	tm := New(4, 3, WithGV4())
	ck := &adoptingClock{GV4: vclock.NewGV4()}
	tm.clock = ck
	tx1 := beginTxn(tm, 1)
	if _, err := tx1.Read(0); err != nil {
		t.Fatal(err)
	}
	tx1.Write(1, 4)
	ck.between = func() {
		tx2 := tm.Begin(2)
		tx2.Write(0, 3)
		if err := tx2.Commit(); err != nil {
			t.Error(err)
		}
	}
	err := tx1.Commit()
	if tx1.wver != tx1.rver+1 {
		t.Fatalf("schedule broken: wver = %d, rver = %d, want an adopted rver+1", tx1.wver, tx1.rver)
	}
	if !errors.Is(err, core.ErrAborted) {
		t.Fatalf("adopted tick did not revalidate: Commit = %v, want abort", err)
	}
	if got := tm.Load(1, 1); got != 0 {
		t.Fatalf("aborted write leaked: %d", got)
	}
}

func TestAbortRollsBackNothing(t *testing.T) {
	tm := New(4, 2)
	tx := tm.Begin(1)
	tx.Write(0, 42)
	tx.Abort()
	if got := tm.Load(1, 0); got != 0 {
		t.Fatalf("aborted buffered write leaked: %d", got)
	}
}

func TestBeginInsideTxnPanics(t *testing.T) {
	tm := New(4, 2)
	tm.Begin(1)
	defer func() {
		if recover() == nil {
			t.Fatal("nested Begin did not panic")
		}
	}()
	tm.Begin(1)
}

func TestAtomicallyCounter(t *testing.T) {
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

func TestBankTransferInvariant(t *testing.T) {
	const accounts = 16
	const total = int64(accounts * 100)
	for _, opts := range [][]Option{
		nil,
		{WithGV4()},
		{WithEpochFence()},
		{withDebugInvariants()},
	} {
		tm := New(accounts, 9, opts...)
		for i := 0; i < accounts; i++ {
			tm.Store(1, i, 100)
		}
		var wg sync.WaitGroup
		for th := 1; th <= 8; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(th)))
				for i := 0; i < 300; i++ {
					from, to := r.Intn(accounts), r.Intn(accounts)
					if from == to {
						continue
					}
					amt := int64(r.Intn(10))
					err := core.Atomically(tm, th, func(tx core.Txn) error {
						f, err := tx.Read(from)
						if err != nil {
							return err
						}
						g, err := tx.Read(to)
						if err != nil {
							return err
						}
						if f < amt {
							return nil // insufficient funds; commit no-op
						}
						if err := tx.Write(from, f-amt); err != nil {
							return err
						}
						return tx.Write(to, g+amt)
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(th)
		}
		wg.Wait()
		var sum int64
		for i := 0; i < accounts; i++ {
			sum += tm.Load(1, i)
		}
		if sum != total {
			t.Fatalf("opts %v: sum = %d, want %d", opts, sum, total)
		}
	}
}

// TestPrivatizationRuntime is experiment E1's runtime counterpart: the
// Figure 1(a) idiom with a fence, run many times on the real concurrent
// TM; the postcondition must always hold.
func TestPrivatizationRuntime(t *testing.T) {
	const flag, x = 0, 1
	for iter := 0; iter < 300; iter++ {
		tm := New(2, 3)
		var committed atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // privatizer (thread 1)
			defer wg.Done()
			err := core.Atomically(tm, 1, func(tx core.Txn) error {
				return tx.Write(flag, 1)
			})
			if err != nil {
				t.Error(err)
				return
			}
			committed.Store(true)
			tm.Fence(1)
			tm.Store(1, x, 1) // ν
		}()
		go func() { // concurrent transactional writer (thread 2)
			defer wg.Done()
			err := core.Atomically(tm, 2, func(tx core.Txn) error {
				f, err := tx.Read(flag)
				if err != nil {
					return err
				}
				if f == 0 {
					return tx.Write(x, 42)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if committed.Load() {
			if got := tm.Load(1, x); got != 1 {
				t.Fatalf("iteration %d: delayed-commit anomaly: x = %d, want 1", iter, got)
			}
		}
	}
}

// TestPublicationRuntime is Figure 2 at runtime: if the reader's
// transaction sees the cleared flag it must also see the published
// value.
func TestPublicationRuntime(t *testing.T) {
	const flag, x = 0, 1
	for iter := 0; iter < 300; iter++ {
		tm := New(2, 3)
		tm.Store(1, flag, 1) // x_is_private initially true
		var wg sync.WaitGroup
		var sawFlagClear atomic.Bool
		var val atomic.Int64
		wg.Add(2)
		go func() { // publisher (thread 1)
			defer wg.Done()
			tm.Store(1, x, 42) // ν
			err := core.Atomically(tm, 1, func(tx core.Txn) error {
				return tx.Write(flag, 2) // clear x_is_private (2 ≠ 1 means "not private")
			})
			if err != nil {
				t.Error(err)
			}
		}()
		go func() { // reader (thread 2)
			defer wg.Done()
			err := core.Atomically(tm, 2, func(tx core.Txn) error {
				f, err := tx.Read(flag)
				if err != nil {
					return err
				}
				if f == 2 {
					v, err := tx.Read(x)
					if err != nil {
						return err
					}
					sawFlagClear.Store(true)
					val.Store(v)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if sawFlagClear.Load() && val.Load() != 42 {
			t.Fatalf("iteration %d: publication anomaly: read %d, want 42", iter, val.Load())
		}
	}
}

func TestFenceNoOpReturnsWithActiveTxn(t *testing.T) {
	tm := New(2, 3, WithFence(FenceNoOp))
	tm.Begin(1) // leave live
	done := make(chan struct{})
	go func() { tm.Fence(2); close(done) }()
	<-done // must not block
}

func TestFenceWaitBlocks(t *testing.T) {
	tm := New(2, 3)
	tx := tm.Begin(1)
	released := make(chan struct{})
	done := make(chan struct{})
	go func() {
		tm.Fence(2)
		close(done)
	}()
	go func() {
		<-released
		tx.Commit()
	}()
	select {
	case <-done:
		t.Fatal("fence returned with a live transaction")
	default:
	}
	close(released)
	<-done
}

func TestFenceSkipReadOnlyIgnoresReaders(t *testing.T) {
	tm := New(2, 3, WithFence(FenceSkipReadOnly))
	tx := tm.Begin(1)
	if _, err := tx.Read(0); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { tm.Fence(2); close(done) }()
	<-done // the buggy fence must NOT wait for the read-only transaction
	tx.Commit()

	// But it must wait for a writer.
	tx2 := tm.Begin(1)
	tx2.Write(0, 1)
	done2 := make(chan struct{})
	go func() { tm.Fence(2); close(done2) }()
	select {
	case <-done2:
		t.Fatal("buggy fence ignored a writer")
	default:
	}
	tx2.Commit()
	<-done2
}

func TestSortedLocksSemantics(t *testing.T) {
	// Opposite-order write sets under contention: sorted lock order
	// preserves correctness (the bank invariant) and never deadlocks.
	tm := New(8, 9, WithSortedLocks())
	var wg sync.WaitGroup
	for th := 1; th <= 8; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				a, b := th%8, (th+3)%8
				if th%2 == 0 {
					a, b = b, a // opposite insertion order
				}
				err := core.Atomically(tm, th, func(tx core.Txn) error {
					va, err := tx.Read(a)
					if err != nil {
						return err
					}
					vb, err := tx.Read(b)
					if err != nil {
						return err
					}
					if err := tx.Write(a, va+1); err != nil {
						return err
					}
					return tx.Write(b, vb-1)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(th)
	}
	wg.Wait()
	var sum int64
	for x := 0; x < 8; x++ {
		sum += tm.Load(1, x)
	}
	if sum != 0 {
		t.Fatalf("sum = %d, want 0", sum)
	}
}
