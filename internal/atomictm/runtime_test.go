package atomictm_test

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"safepriv/internal/atomictm"
	"safepriv/internal/core"
	"safepriv/internal/opacity"
	"safepriv/internal/record"
	"safepriv/internal/spec"
)

func TestRuntimeSequentialSmoke(t *testing.T) {
	tm := atomictm.New(4, 2)
	if tm.NumRegs() != 4 {
		t.Fatalf("NumRegs = %d", tm.NumRegs())
	}
	if err := core.Atomically(tm, 1, func(tx core.Txn) error {
		if err := tx.Write(0, 10); err != nil {
			return err
		}
		v, err := tx.Read(0)
		if err != nil {
			return err
		}
		return tx.Write(1, v+1)
	}); err != nil {
		t.Fatal(err)
	}
	if got := tm.Load(1, 0); got != 10 {
		t.Fatalf("reg 0 = %d, want 10", got)
	}
	if got := tm.Load(1, 1); got != 11 {
		t.Fatalf("reg 1 = %d, want 11", got)
	}
	tm.Store(1, 2, 7)
	if got := tm.Load(1, 2); got != 7 {
		t.Fatalf("reg 2 = %d, want 7", got)
	}
	tm.Fence(1)
}

func TestRuntimeAbortRollsBack(t *testing.T) {
	tm := atomictm.New(2, 2)
	tm.Store(1, 0, 5)
	tx := tm.Begin(1)
	if err := tx.Write(0, 99); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if got := tm.Load(1, 0); got != 5 {
		t.Fatalf("reg 0 after abort = %d, want 5", got)
	}
}

func TestRuntimeConflictAborts(t *testing.T) {
	tm := atomictm.New(2, 3)
	tx1 := tm.Begin(1)
	if err := tx1.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	tx2 := tm.Begin(2)
	if _, err := tx2.Read(0); err != core.ErrAborted {
		t.Fatalf("conflicting read: got %v, want ErrAborted", err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeCounter: the canonical atomicity test — concurrent
// increments never lose updates.
func TestRuntimeCounter(t *testing.T) {
	const threads, ops = 6, 300
	tm := atomictm.New(1, threads)
	var wg sync.WaitGroup
	for th := 1; th <= threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if err := core.Atomically(tm, th, func(tx core.Txn) error {
					v, err := tx.Read(0)
					if err != nil {
						return err
					}
					return tx.Write(0, v+1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(th)
	}
	wg.Wait()
	if got := tm.Load(1, 0); got != threads*ops {
		t.Fatalf("counter = %d, want %d", got, threads*ops)
	}
}

// TestRuntimeMixedNonTxn: uninstrumented accesses race transactions on
// aliased stripes; per-stripe mutual exclusion must keep every
// read-modify-write atomic. Register 0 is incremented only
// transactionally; register 2 (aliased to 0 with 2 stripes) only
// non-transactionally-unshared per thread.
func TestRuntimeMixedNonTxn(t *testing.T) {
	const threads, ops = 4, 200
	tm := atomictm.New(2+threads, threads, atomictm.WithStripes(2))
	var wg sync.WaitGroup
	for th := 1; th <= threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if err := core.Atomically(tm, th, func(tx core.Txn) error {
					v, err := tx.Read(0)
					if err != nil {
						return err
					}
					return tx.Write(0, v+1)
				}); err != nil {
					t.Error(err)
					return
				}
				// Thread-private register, non-transactional, aliasing
				// other threads' stripes.
				x := 1 + th
				tm.Store(th, x, tm.Load(th, x)+1)
			}
		}(th)
	}
	wg.Wait()
	if got := tm.Load(1, 0); got != threads*ops {
		t.Fatalf("txn counter = %d, want %d", got, threads*ops)
	}
	for th := 1; th <= threads; th++ {
		if got := tm.Load(1, 1+th); got != ops {
			t.Fatalf("non-txn counter %d = %d, want %d", th, got, ops)
		}
	}
}

// TestRuntimeWriteConflictRecorded: a write that aborts on a stripe
// conflict must close the transaction in the recorded history
// (write … aborted), so the thread's next Begin is well-formed and the
// opacity checker accepts the correct TM.
func TestRuntimeWriteConflictRecorded(t *testing.T) {
	rec := record.NewRecorder()
	tm := atomictm.New(1, 3, atomictm.WithSink(rec))
	tx2 := tm.Begin(2)
	if err := tx2.Write(0, 7); err != nil {
		t.Fatal(err)
	}
	tx1 := tm.Begin(1)
	if err := tx1.Write(0, 8); err != core.ErrAborted {
		t.Fatalf("conflicting write: got %v, want ErrAborted", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	// Thread 1 starts a fresh transaction; the history must stay
	// well-formed (the aborted write closed the previous one).
	if err := core.Atomically(tm, 1, func(tx core.Txn) error {
		return tx.Write(0, 9)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := opacity.Check(rec.History(), opacity.Options{}); err != nil {
		t.Fatalf("history with an aborted write rejected: %v", err)
	}
}

// TestRuntimeStronglyOpaqueHistories: recorded histories of the
// strongly-atomic runtime pass the strong-opacity checker (strong
// atomicity is strictly stronger).
func TestRuntimeStronglyOpaqueHistories(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rec := record.NewRecorder()
		tm := atomictm.New(3, 5, atomictm.WithSink(rec))
		var vals atomic.Int64
		vals.Store(seed * 100000)
		var wg sync.WaitGroup
		for th := 1; th <= 4; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				for i := 0; i < 30; i++ {
					core.Atomically(tm, th, func(tx core.Txn) error {
						if _, err := tx.Read(0); err != nil {
							return err
						}
						if err := tx.Write(1, vals.Add(1)); err != nil {
							return err
						}
						return tx.Write(0, vals.Add(1))
					})
				}
			}(th)
		}
		wg.Wait()
		if _, err := opacity.Check(rec.History(), opacity.Options{}); err != nil {
			t.Fatalf("seed %d: history not strongly opaque: %v", seed, err)
		}
	}
}

// yieldingSink holds thread 1's committed actions back behind a burst
// of scheduler yields, so whatever Commit lets other threads do before
// it records `committed`, they do (the Gosched-biased schedule of
// internal/tl2/faultinject_test.go: on one CPU the window between two
// adjacent statements otherwise never opens).
type yieldingSink struct{ *record.Recorder }

func (s yieldingSink) Committed(t int, wver int64) {
	if t == 1 {
		for i := 0; i < 200; i++ {
			runtime.Gosched()
		}
	}
	s.Recorder.Committed(t, wver)
}

// TestRuntimeCommittedPrecedesVisibility: no response returning a
// transaction's value precedes that transaction's `committed` in the
// recorded history. Commit must record `committed` before it releases
// the stripe locks; recorded after, a concurrent reader's ret(v) lands
// between txcommit and committed and the checker sees a read from a
// transaction that has not committed yet (an opacity-graph cycle on a
// correct TM).
func TestRuntimeCommittedPrecedesVisibility(t *testing.T) {
	for _, reader := range []struct {
		name string
		read func(tm *atomictm.TM)
	}{
		{"Load", func(tm *atomictm.TM) { tm.Load(2, 0) }},
		{"Read", func(tm *atomictm.TM) {
			tx := tm.Begin(2)
			if _, err := tx.Read(0); err == nil {
				tx.Commit()
			}
		}},
	} {
		t.Run(reader.name, func(t *testing.T) {
			rec := record.NewRecorder()
			tm := atomictm.New(1, 2, atomictm.WithSink(yieldingSink{rec}))
			var done atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !done.Load() {
					reader.read(tm)
					runtime.Gosched()
				}
			}()
			for v := int64(1); v <= 20; v++ {
				tx := tm.Begin(1)
				if err := tx.Write(0, v); err == nil {
					tx.Commit()
				}
			}
			done.Store(true)
			wg.Wait()

			var open, committed []spec.Value
			for i, a := range rec.History() {
				switch {
				case a.Thread == 1 && a.Kind == spec.KindWrite:
					open = append(open, a.Value)
				case a.Thread == 1 && a.Kind == spec.KindCommitted:
					committed = append(committed, open...)
					open = nil
				case a.Thread == 1 && a.Kind == spec.KindAborted:
					open = nil
				case a.Thread == 2 && a.Kind == spec.KindRet && a.Value != spec.VInit:
					if !slices.Contains(committed, a.Value) {
						t.Fatalf("action %d: thread 2 read %d before its writer's committed action", i, a.Value)
					}
				}
			}
			if len(committed) == 0 {
				t.Fatal("no transaction committed")
			}
		})
	}
}
