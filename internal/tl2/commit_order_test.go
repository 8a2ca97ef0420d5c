package tl2

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"safepriv/internal/record"
	"safepriv/internal/spec"
)

// yieldingSink holds thread 1's committed actions back behind a burst
// of scheduler yields, so whatever Commit lets other threads do before
// it records `committed`, they do (the Gosched-biased schedule of
// faultinject_test.go: on one CPU the window between two adjacent
// statements otherwise never opens).
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
// recorded history. Commit must record `committed` before its
// write-back becomes visible — to an uninstrumented Load, which ignores
// the stripe locks, as much as to a transactional Read after the
// unlock; recorded later, a concurrent reader's ret(v) lands between
// txcommit and committed and the checker sees a read from a transaction
// that has not committed yet (an opacity-graph cycle on a correct TM).
func TestRuntimeCommittedPrecedesVisibility(t *testing.T) {
	for _, reader := range []struct {
		name string
		read func(tm *TM)
	}{
		{"Load", func(tm *TM) { tm.Load(2, 0) }},
		{"Read", func(tm *TM) {
			tx := tm.Begin(2)
			if _, err := tx.Read(0); err == nil {
				tx.Commit()
			}
		}},
	} {
		t.Run(reader.name, func(t *testing.T) {
			rec := record.NewRecorder()
			tm := New(1, 2, WithSink(yieldingSink{rec}))
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
			checkCommittedPrecedesReads(t, rec.History())
		})
	}
}

// checkCommittedPrecedesReads fails if thread 2 returns a value thread
// 1 wrote before thread 1's committed action for it.
func checkCommittedPrecedesReads(t *testing.T, h spec.History) {
	t.Helper()
	var open, committed []spec.Value
	for i, a := range h {
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
}
