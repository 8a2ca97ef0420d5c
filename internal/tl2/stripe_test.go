package tl2

import (
	"sync"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/opacity"
	"safepriv/internal/record"
)

// TestStripedLockAliasing drives contended transactions whose write
// sets span registers that share lock stripes (stripes < regs), the
// configuration where commit must deduplicate lock acquisition by
// stripe. The recorded history must still be strongly opaque.
func TestStripedLockAliasing(t *testing.T) {
	for _, cfg := range []struct {
		stripes int
		opts    []Option
	}{
		{1, nil},
		{2, nil},
		{4, nil},
		{2, []Option{WithSortedLocks()}}, // sorted order must be per stripe under aliasing
	} {
		stripes := cfg.stripes
		rec := record.NewRecorder()
		tm := New(8, 5, append([]Option{WithSink(rec), withStripes(stripes), withDebugInvariants()}, cfg.opts...)...)
		var vals uniqueVals
		var wg sync.WaitGroup
		for th := 1; th <= 4; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				for i := 0; i < 30; i++ {
					core.Atomically(tm, th, func(tx core.Txn) error {
						// Registers 0 and stripes alias (x & (stripes-1)),
						// as do 1 and stripes+1.
						for _, x := range []int{0, stripes, 1, stripes + 1} {
							if _, err := tx.Read(x); err != nil {
								return err
							}
							if err := tx.Write(x, vals.next()); err != nil {
								return err
							}
						}
						return nil
					})
				}
			}(th)
		}
		wg.Wait()
		if _, err := opacity.Check(rec.History(), opacity.Options{WVer: rec.WVer}); err != nil {
			t.Fatalf("stripes=%d: aliased-stripe history not strongly opaque: %v", stripes, err)
		}
	}
}

// TestStripedLockAliasingSequential pins the dedup logic with a
// deterministic schedule: one transaction writing two aliased registers
// must lock the shared stripe once, commit, and leave both values
// visible.
func TestStripedLockAliasingSequential(t *testing.T) {
	tm := New(4, 2, withStripes(2), withDebugInvariants())
	if err := core.Atomically(tm, 1, func(tx core.Txn) error {
		if err := tx.Write(0, 10); err != nil {
			return err
		}
		return tx.Write(2, 20) // register 2 aliases register 0's stripe
	}); err != nil {
		t.Fatal(err)
	}
	if got := tm.Load(1, 0); got != 10 {
		t.Fatalf("reg 0 = %d, want 10", got)
	}
	if got := tm.Load(1, 2); got != 20 {
		t.Fatalf("reg 2 = %d, want 20", got)
	}
	// A read-modify-write across the aliased pair still works.
	if err := core.Atomically(tm, 1, func(tx core.Txn) error {
		a, err := tx.Read(0)
		if err != nil {
			return err
		}
		b, err := tx.Read(2)
		if err != nil {
			return err
		}
		return tx.Write(0, a+b)
	}); err != nil {
		t.Fatal(err)
	}
	if got := tm.Load(1, 0); got != 30 {
		t.Fatalf("reg 0 = %d, want 30", got)
	}
}

// TestLargeWriteSetIndexed crosses the smallSet threshold so the
// open-addressing index paths (wsetPut/wsetLookup/sidx) are exercised,
// including commit with aliased stripes.
func TestLargeWriteSetIndexed(t *testing.T) {
	const regs = 200
	tm := New(regs, 3, withStripes(64), withDebugInvariants())
	if err := core.Atomically(tm, 1, func(tx core.Txn) error {
		for x := 0; x < regs; x++ {
			if err := tx.Write(x, int64(x)); err != nil {
				return err
			}
		}
		// Overwrites via the index.
		for x := 0; x < regs; x += 3 {
			if err := tx.Write(x, int64(x)*2); err != nil {
				return err
			}
		}
		// Local reads via the index.
		for x := 0; x < regs; x++ {
			want := int64(x)
			if x%3 == 0 {
				want *= 2
			}
			v, err := tx.Read(x)
			if err != nil {
				return err
			}
			if v != want {
				t.Errorf("local read of %d = %d, want %d", x, v, want)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < regs; x++ {
		want := int64(x)
		if x%3 == 0 {
			want *= 2
		}
		if got := tm.Load(1, x); got != want {
			t.Fatalf("reg %d = %d, want %d", x, got, want)
		}
	}
}

// TestLargeWriteSetSteadyStateAllocs verifies the tentpole perf claim
// at the TM level: after warm-up, a large-write-set transaction's
// commit path performs no allocation for write-set indexing (the seed's
// map[int]int allocated a fresh map every long transaction).
func TestLargeWriteSetSteadyStateAllocs(t *testing.T) {
	tm := New(256, 2)
	run := func() {
		tx := beginTxn(tm, 1)
		for x := 0; x < 128; x++ {
			if err := tx.Write(x, int64(x)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		run() // warm up slice capacities and the index tables
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("steady-state 128-write transaction allocates %v per run, want 0", allocs)
	}
}
