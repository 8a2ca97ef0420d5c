package stripe

import (
	"sync"
	"testing"
	"unsafe"
)

// TestLockTableIsDense pins the layout the package comment argues for:
// adjacent registers' lock words are adjacent words, so the default
// table is 8 bytes a stripe.
func TestLockTableIsDense(t *testing.T) {
	tb := New(64, 0)
	for x := 0; x+1 < 64; x++ {
		a, b := uintptr(unsafe.Pointer(tb.LockFor(x))), uintptr(unsafe.Pointer(tb.LockFor(x+1)))
		if b-a != 8 {
			t.Fatalf("LockFor(%d) and LockFor(%d) are %d bytes apart, want 8", x, x+1, b-a)
		}
	}
}

func TestDefaultStripeCountInjectiveForSmallTables(t *testing.T) {
	for _, regs := range []int{1, 2, 3, 64, 255, 256, 1000} {
		tb := New(regs, 0)
		if tb.Regs() != regs {
			t.Fatalf("Regs() = %d, want %d", tb.Regs(), regs)
		}
		seen := make(map[int]int, regs)
		for x := 0; x < regs; x++ {
			s := tb.StripeOf(x)
			if prev, dup := seen[s]; dup {
				t.Fatalf("regs=%d: registers %d and %d alias to stripe %d", regs, prev, x, s)
			}
			seen[s] = x
			if tb.LockFor(x) != tb.Lock(s) {
				t.Fatalf("LockFor(%d) != Lock(StripeOf(%d))", x, x)
			}
		}
	}
}

func TestDefaultStripeCountCapped(t *testing.T) {
	tb := New(1<<20, 0)
	if tb.Stripes() != maxDefaultStripes {
		t.Fatalf("Stripes() = %d, want cap %d", tb.Stripes(), maxDefaultStripes)
	}
	// Aliasing wraps around the mask.
	if tb.StripeOf(0) != tb.StripeOf(maxDefaultStripes) {
		t.Fatal("expected register 0 and register maxDefaultStripes to share a stripe")
	}
}

func TestExplicitStripeCount(t *testing.T) {
	tb := New(100, 8)
	if tb.Stripes() != 8 {
		t.Fatalf("Stripes() = %d, want 8", tb.Stripes())
	}
	if tb.StripeOf(1) != tb.StripeOf(9) {
		t.Fatal("registers 1 and 9 must share stripe 1 with 8 stripes")
	}
}

func TestNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with stripes=12 should panic")
		}
	}()
	New(16, 12)
}

func TestValuesIndependentUnderAliasing(t *testing.T) {
	// Registers sharing a stripe still have distinct values.
	tb := New(16, 2)
	for x := 0; x < 16; x++ {
		tb.Store(x, int64(100+x))
	}
	for x := 0; x < 16; x++ {
		if got := tb.Load(x); got != int64(100+x) {
			t.Fatalf("Load(%d) = %d, want %d", x, got, 100+x)
		}
	}
}

func TestConcurrentLockStripes(t *testing.T) {
	tb := New(64, 64)
	var wg sync.WaitGroup
	for th := 1; th <= 8; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := (th*7 + i) % 64
				l := tb.LockFor(x)
				if old, ok := l.TryLockVersioned(th); ok {
					tb.Store(x, int64(th))
					l.Unlock(old + 1)
				}
			}
		}(th)
	}
	wg.Wait()
}

// Stripes returns the lock-table size.
func (t *Table) Stripes() int { return len(t.locks) }
