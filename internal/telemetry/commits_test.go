package telemetry_test

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/engine"
	"safepriv/internal/region"
	"safepriv/internal/telemetry"
)

// slotFields reads every counter of a Slot.
func slotFields(sl *telemetry.Slot) []int64 {
	v := reflect.ValueOf(sl).Elem()
	out := make([]int64, v.NumField())
	for i := range out {
		out[i] = v.Field(i).Addr().Interface().(*atomic.Int64).Load()
	}
	return out
}

// TestCommitsCountedOffTheFence: on every TM, Snapshot().Commits is
// exactly the transactions that committed, however they ran —
// first-attempt Atomically commits, commits after retried aborts,
// ErrPrivate refusals (which commit nothing), direct Begin/Commit and
// Begin/Abort, and a conflict the TM itself aborts — and a
// first-attempt Atomically commit changes no field of the caller's
// Slot.
func TestCommitsCountedOffTheFence(t *testing.T) {
	for _, name := range engine.TMs() {
		t.Run(name, func(t *testing.T) {
			tm, err := engine.NewSpec(name, 4, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			board := tm.(telemetry.Provider).TelemetryBoard()
			v := int64(0)
			write := func(tx core.Txn) error { v++; return tx.Write(0, v) }
			before := board.Snapshot()
			commits := int64(0)

			slot := slotFields(board.Slot(1))
			for i := 0; i < 3; i++ {
				if err := core.Atomically(tm, 1, write); err != nil {
					t.Fatal(err)
				}
				commits++
			}
			if got := slotFields(board.Slot(1)); !reflect.DeepEqual(got, slot) {
				t.Fatalf("first-attempt commits changed the slot: %v, was %v", got, slot)
			}

			attempts := 0
			err = core.Atomically(tm, 1, func(tx core.Txn) error {
				if attempts++; attempts <= 2 {
					return core.ErrAborted
				}
				return write(tx)
			})
			if err != nil {
				t.Fatal(err)
			}
			commits++

			for i := 0; i < 2; i++ {
				if err := core.Atomically(tm, 1, func(core.Txn) error { return region.ErrPrivate }); !errors.Is(err, region.ErrPrivate) {
					t.Fatalf("refusal returned %v", err)
				}
			}

			tx := tm.Begin(1)
			if err := write(tx); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			commits++
			tx = tm.Begin(1)
			if err := write(tx); err != nil {
				t.Fatal(err)
			}
			tx.Abort()

			aborts := int64(0)
			if name != "baseline" { // its global lock admits one transaction at a time
				// tx1 reads register 0 and tx2 writes it: every TM but
				// baseline commits one of the two and aborts the other
				// (a lock conflict on atomic, validation elsewhere).
				tx1 := tm.Begin(1)
				if _, err := tx1.Read(0); err != nil {
					t.Fatal(err)
				}
				for _, end := range []func() error{
					func() error {
						tx2 := tm.Begin(2)
						if err := write(tx2); err != nil {
							return err
						}
						return tx2.Commit()
					},
					func() error {
						if err := tx1.Write(1, 7); err != nil {
							return err
						}
						return tx1.Commit()
					},
				} {
					if err := end(); err == nil {
						commits++
					} else {
						aborts++
					}
				}
				if aborts != 1 {
					t.Fatalf("the conflict aborted %d transactions, want 1", aborts)
				}
			}

			d := board.Snapshot().Delta(before)
			if d.Commits != commits {
				t.Fatalf("Commits = %d, want %d", d.Commits, commits)
			}
			if d.Aborts != 2 {
				t.Fatalf("Aborts = %d, want the 2 retried attempts", d.Aborts)
			}
			var uncommitted int64
			for th := 0; th <= board.Threads(); th++ {
				uncommitted += board.Slot(th).Uncommitted.Load()
			}
			// 2 retried attempts, 2 refusals, 1 voluntary abort, and
			// the conflict's loser.
			if want := 5 + aborts; uncommitted != want {
				t.Fatalf("Uncommitted = %d, want %d", uncommitted, want)
			}
		})
	}
}
