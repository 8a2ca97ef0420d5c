package baseline

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safepriv/internal/atomictm"
	"safepriv/internal/core"
	"safepriv/internal/record"
)

func TestBasicReadWrite(t *testing.T) {
	tm := New(4, 2, nil)
	tx := tm.Begin(1)
	tx.Write(0, 5)
	v, err := tx.Read(0)
	if err != nil || v != 5 {
		t.Fatalf("Read = %d,%v", v, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := tm.Load(1, 0); got != 5 {
		t.Fatalf("Load = %d", got)
	}
}

func TestAbortRollsBack(t *testing.T) {
	tm := New(4, 2, nil)
	tm.Store(1, 0, 10)
	tx := tm.Begin(1)
	tx.Write(0, 99)
	tx.Write(1, 98)
	tx.Abort()
	if got := tm.Load(1, 0); got != 10 {
		t.Fatalf("rollback failed: %d", got)
	}
	if got := tm.Load(1, 1); got != 0 {
		t.Fatalf("rollback failed: %d", got)
	}
}

func TestUserErrorAborts(t *testing.T) {
	tm := New(4, 2, nil)
	fail := errors.New("boom")
	err := core.Atomically(tm, 1, func(tx core.Txn) error {
		if err := tx.Write(0, 1); err != nil {
			return err
		}
		return fail
	})
	if !errors.Is(err, fail) {
		t.Fatalf("err = %v", err)
	}
	if got := tm.Load(1, 0); got != 0 {
		t.Fatalf("aborted write visible: %d", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	tm := New(1, 9, nil)
	const threads, per = 8, 300
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

// TestHistoriesAreAtomic: the global-lock TM is a runtime Hatomic —
// every recorded history must be a member of Hatomic directly (no
// serialization needed).
func TestHistoriesAreAtomic(t *testing.T) {
	rec := record.NewRecorder()
	tm := New(4, 5, rec)
	var vals atomic.Int64
	var wg sync.WaitGroup
	for th := 1; th <= 4; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(th)))
			for i := 0; i < 30; i++ {
				if i%7 == 0 {
					tm.Fence(th)
					continue
				}
				if i%5 == 0 {
					if r.Intn(2) == 0 {
						tm.Store(th, r.Intn(4), vals.Add(1))
					} else {
						tm.Load(th, r.Intn(4))
					}
					continue
				}
				core.Atomically(tm, th, func(tx core.Txn) error {
					x := r.Intn(4)
					if _, err := tx.Read(x); err != nil {
						return err
					}
					return tx.Write(x, vals.Add(1))
				})
			}
		}(th)
	}
	wg.Wait()
	if _, err := atomictm.Member(rec.History()); err != nil {
		t.Fatalf("global-lock TM produced a non-atomic history: %v", err)
	}
}

func TestFenceDoesNotDeadlock(t *testing.T) {
	tm := New(1, 3, nil)
	var wg sync.WaitGroup
	for th := 1; th <= 2; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tm.Fence(th)
				core.Atomically(tm, th, func(tx core.Txn) error {
					return tx.Write(0, int64(th*1000+i))
				})
			}
		}(th)
	}
	wg.Wait()
}

// TestFenceWaitsForActiveTransaction: the fence is a grace period, not
// a no-op the global lock makes harmless — it returns only once the
// transaction running at the call has committed or aborted.
func TestFenceWaitsForActiveTransaction(t *testing.T) {
	tm := New(1, 2, nil)
	for _, end := range []func(core.Txn){
		func(tx core.Txn) { tx.Commit() },
		func(tx core.Txn) { tx.Abort() },
	} {
		tx := tm.Begin(2)
		done := make(chan struct{})
		go func() { tm.Fence(1); close(done) }()
		select {
		case <-done:
			t.Fatal("Fence returned while a transaction was active")
		case <-time.After(50 * time.Millisecond):
		}
		end(tx)
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("Fence did not return after the transaction ended")
		}
	}
}
