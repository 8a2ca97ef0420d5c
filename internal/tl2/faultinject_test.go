package tl2

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/opacity"
	"safepriv/internal/record"
)

// runContended drives a read-modify-write workload with unique write
// values on a recording TM and returns whether the recorded history
// passes the strong-opacity checker.
//
// The schedule is yield-biased: random Gosched calls between the reads
// and before the writes open the windows the injected bugs need (stale
// snapshot still live when a concurrent commit lands). On a single-CPU
// machine goroutines otherwise run their short transactions to
// completion back-to-back and the buggy TMs produce only serial —
// hence accidentally correct — histories.
func runContended(t *testing.T, seed int64, opts ...Option) error {
	t.Helper()
	rec := record.NewRecorder()
	tm := New(2, 5, append([]Option{WithSink(rec)}, opts...)...)
	var vals uniqueVals
	vals.n.Store(seed * 100000)
	var wg sync.WaitGroup
	for th := 1; th <= 4; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed*31 + int64(th)))
			for i := 0; i < 20; i++ {
				err := core.Atomically(tm, th, func(tx core.Txn) error {
					if _, err := tx.Read(0); err != nil {
						return err
					}
					for k := r.Intn(3); k > 0; k-- {
						spinYield()
					}
					if _, err := tx.Read(1); err != nil {
						return err
					}
					for k := r.Intn(3); k > 0; k-- {
						spinYield()
					}
					if err := tx.Write(0, vals.next()); err != nil {
						return err
					}
					return tx.Write(1, vals.next())
				})
				if err != nil && !errors.Is(err, core.ErrAborted) {
					t.Error(err)
					return
				}
				if r.Intn(2) == 0 {
					spinYield()
				}
			}
		}(th)
	}
	wg.Wait()
	_, err := opacity.Check(rec.History(), opacity.Options{WVer: rec.WVer})
	return err
}

// TestFaultInjectionCheckerCatchesBugs is the negative test of the
// strong-opacity checker: each injected TL2 bug must produce recorded
// histories the checker rejects — runs/2 of them, drawing seeds until
// it has them, within 4×runs contended runs — while the correct TM
// passes every one of runs seeds. How often a seed's schedule opens
// the bug's window depends on the processor count, so the test counts
// rejections rather than fixing the seeds. A checker that cannot
// distinguish the TMs tells us nothing about §7's claim.
func TestFaultInjectionCheckerCatchesBugs(t *testing.T) {
	bugs := map[string]Bug{
		"skip-read-validation":   bugSkipReadValidation,
		"skip-commit-validation": BugSkipCommitValidation,
		"no-commit-locks":        BugNoCommitLocks,
	}
	runs := 20
	if testing.Short() {
		runs = 8 // the race-detector CI lap runs -short; keep it quick
	}
	want, limit := runs/2, int64(4*runs)
	for name, bug := range bugs {
		t.Run(name, func(t *testing.T) {
			caught, seed := 0, int64(0)
			for ; caught < want && seed < limit; seed++ {
				if err := runContended(t, seed, WithBug(bug)); err != nil {
					caught++
				}
			}
			if caught < want {
				t.Fatalf("checker rejected only %d/%d histories of the %s TM; want %d rejections within %d runs",
					caught, seed, name, want, limit)
			}
			t.Logf("%s: checker rejected %d/%d runs", name, caught, seed)
		})
	}
	// Control: the correct TM passes every run.
	for seed := int64(0); seed < int64(runs); seed++ {
		if err := runContended(t, seed); err != nil {
			t.Fatalf("correct TM rejected at seed %d: %v", seed, err)
		}
	}
}

// TestBugSemanticsSmoke pins down what each bug does at the semantic
// level with a deterministic two-transaction schedule.
func TestBugSemanticsSmoke(t *testing.T) {
	// skip-commit-validation: a doomed read-modify-write commits.
	tm := New(1, 3, WithBug(BugSkipCommitValidation))
	tx1 := tm.Begin(1)
	if _, err := tx1.Read(0); err != nil {
		t.Fatal(err)
	}
	tx2 := tm.Begin(2)
	tx2.Write(0, 100)
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx1.Write(0, 200)
	if err := tx1.Commit(); err != nil {
		t.Fatal("doomed transaction should commit under the injected bug:", err)
	}

	// Correct TM aborts the same schedule.
	tm = New(1, 3)
	tx1 = tm.Begin(1)
	if _, err := tx1.Read(0); err != nil {
		t.Fatal(err)
	}
	tx2 = tm.Begin(2)
	tx2.Write(0, 100)
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx1.Write(0, 200)
	if err := tx1.Commit(); !errors.Is(err, core.ErrAborted) {
		t.Fatalf("correct TM must abort, got %v", err)
	}

	// skip-read-validation: a read inside a snapshot-broken transaction
	// succeeds instead of aborting.
	tm = New(2, 3, WithBug(bugSkipReadValidation))
	tx1 = tm.Begin(1)
	tx2 = tm.Begin(2)
	tx2.Write(0, 7)
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, err := tx1.Read(0); err != nil || v != 7 {
		t.Fatalf("buggy read should return the too-new value, got %d, %v", v, err)
	}
}
