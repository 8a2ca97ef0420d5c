package vlock

import (
	"sync"
	"testing"
)

func TestZeroValueUnlockedVersionZero(t *testing.T) {
	var l VLock
	v, locked, _ := l.Sample()
	if locked || v != 0 {
		t.Fatalf("zero value: v=%d locked=%v", v, locked)
	}
}

func TestLockUnlockCycle(t *testing.T) {
	var l VLock
	if !l.TryLock(3) {
		t.Fatal("TryLock on unlocked failed")
	}
	if l.TryLock(4) {
		t.Fatal("second TryLock succeeded")
	}
	if l.TryLock(3) {
		t.Fatal("re-entrant TryLock succeeded (TL2 never relocks)")
	}
	_, locked, owner := l.Sample()
	if !locked || owner != 3 {
		t.Fatalf("Sample: locked=%v owner=%d", locked, owner)
	}
	l.Unlock(7)
	v, locked, _ := l.Sample()
	if locked || v != 7 {
		t.Fatalf("after Unlock: v=%d locked=%v", v, locked)
	}
}

func TestTryLockVersionedAbortRestores(t *testing.T) {
	var l VLock
	l.TryLock(1)
	l.Unlock(41)
	old, ok := l.TryLockVersioned(2)
	if !ok || old != 41 {
		t.Fatalf("TryLockVersioned = %d,%v", old, ok)
	}
	l.AbortUnlock(old)
	v, locked, _ := l.Sample()
	if locked || v != 41 {
		t.Fatalf("abort path changed version: v=%d locked=%v", v, locked)
	}
}

func TestRawRevalidation(t *testing.T) {
	var l VLock
	w1 := l.Raw()
	w2 := l.Raw()
	if w1 != w2 {
		t.Fatal("stable lock changed raw word")
	}
	l.TryLock(1)
	if l.Raw() == w1 {
		t.Fatal("locking did not change raw word")
	}
	l.Unlock(1)
	if l.Raw() == w1 {
		t.Fatal("version bump did not change raw word")
	}
	v, locked := RawVersion(l.Raw())
	if locked || v != 1 {
		t.Fatalf("RawVersion = %d,%v", v, locked)
	}
}

func TestUnlockOfUnlockedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock of unlocked lock did not panic")
		}
	}()
	var l VLock
	l.Unlock(1)
}

func TestMutualExclusion(t *testing.T) {
	var l VLock
	var held, acquired int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 1; w <= 8; w++ {
		wg.Add(1)
		go func(owner int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if old, ok := l.TryLockVersioned(owner); ok {
					mu.Lock()
					held++
					if held != 1 {
						t.Error("mutual exclusion violated")
					}
					acquired++
					held--
					mu.Unlock()
					l.AbortUnlock(old)
				}
			}
		}(w)
	}
	wg.Wait()
	if acquired == 0 {
		t.Fatal("no acquisitions")
	}
}

func TestStringDiagnostics(t *testing.T) {
	var l VLock
	if got := l.String(); got != "v0" {
		t.Errorf("String = %q", got)
	}
	l.TryLock(5)
	if got := l.String(); got != "locked(owner=5)" {
		t.Errorf("String = %q", got)
	}
}

// TryLock is TryLockVersioned without the version, for the lock-state
// tests.
func (l *VLock) TryLock(owner int) bool {
	_, ok := l.TryLockVersioned(owner)
	return ok
}
