package telemetry

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestSlotPadding pins the false-sharing contract: slots are a
// multiple of 64 bytes (whole cache lines) so adjacent threads'
// counters never share a line.
func TestSlotPadding(t *testing.T) {
	if sz := unsafe.Sizeof(Slot{}); sz%64 != 0 {
		t.Fatalf("Slot size %d is not a multiple of 64", sz)
	}
	b := NewBoard(4)
	a := uintptr(unsafe.Pointer(b.Slot(1)))
	c := uintptr(unsafe.Pointer(b.Slot(2)))
	if c-a < 64 {
		t.Fatalf("adjacent slots %d bytes apart (< one cache line)", c-a)
	}
}

// TestSnapshotAggregates: concurrent per-thread recording sums exactly,
// and Commits is each thread's ended transactions (the CountEnded
// source) minus its Uncommitted ones.
func TestSnapshotAggregates(t *testing.T) {
	const threads, per = 4, 1000
	b := NewBoard(threads)
	ended := make([]atomic.Int64, threads+1)
	b.CountEnded(func(th int) int64 { return ended[th].Load() })
	var wg sync.WaitGroup
	for th := 1; th <= threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			s := b.Slot(th)
			for i := 0; i < per; i++ {
				if i%4 == 0 {
					s.Uncommitted.Add(1)
					s.Aborts.Add(1)
				}
				ended[th].Add(1)
				if i%10 == 0 {
					s.MagHits.Add(1)
				} else if i%10 == 1 {
					s.MagMisses.Add(1)
				}
			}
		}(th)
	}
	wg.Wait()
	s := b.Snapshot()
	if want := int64(threads * per * 3 / 4); s.Commits != want {
		t.Fatalf("Commits = %d, want %d", s.Commits, want)
	}
	if s.Aborts != threads*per/4 {
		t.Fatalf("Aborts = %d, want %d", s.Aborts, threads*per/4)
	}
	if s.MagHits != s.MagMisses {
		t.Fatalf("MagHits %d != MagMisses %d", s.MagHits, s.MagMisses)
	}
}

// TestCommitsNeverCountAnAbort: a thread that only aborts, counting
// each abort before it ends (rcu.Fence.ExitAborted's order), never
// shows a commit in a snapshot taken while it runs; and a board whose
// ended source was never wired reports no commits.
func TestCommitsNeverCountAnAbort(t *testing.T) {
	b := NewBoard(1)
	b.Slot(1).Uncommitted.Add(3)
	if c := b.Snapshot().Commits; c != 0 {
		t.Fatalf("unwired board: Commits = %d, want 0", c)
	}
	var ended atomic.Int64
	ended.Store(3)
	b.CountEnded(func(th int) int64 {
		if th == 1 {
			return ended.Load()
		}
		return 0
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			b.Slot(1).Uncommitted.Add(1)
			ended.Add(1)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if c := b.Snapshot().Commits; c > 0 {
			t.Fatalf("aborts only, yet a snapshot read %d commits", c)
		}
	}
	if c := b.Snapshot().Commits; c != 0 {
		t.Fatalf("Commits = %d after the aborts, want 0", c)
	}
}

// TestOutOfRangeSharesOverflowSlot: unknown ids record into slot 0
// rather than panicking, and a nil board is inert.
func TestOutOfRangeSharesOverflowSlot(t *testing.T) {
	b := NewBoard(2)
	b.Slot(99).Aborts.Add(3)
	b.Slot(-1).Aborts.Add(2)
	if got := b.Slot(0).Aborts.Load(); got != 5 {
		t.Fatalf("overflow slot = %d, want 5", got)
	}
	var nb *Board
	if nb.Slot(1) != nil {
		t.Fatal("nil board should return nil slot")
	}
	if s := nb.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("nil board snapshot = %+v", s)
	}
}

// TestRates pins the derived-rate arithmetic and the zero guards.
func TestRates(t *testing.T) {
	s := Snapshot{Commits: 75, Aborts: 25, Fences: 150, MagHits: 9, MagMisses: 1}
	if r := s.AbortRate(); r != 0.25 {
		t.Fatalf("AbortRate = %v, want 0.25", r)
	}
	if r := s.PrivRate(); r != 2.0 {
		t.Fatalf("PrivRate = %v, want 2.0", r)
	}
	if r := s.MagHitRate(); r != 0.9 {
		t.Fatalf("MagHitRate = %v, want 0.9", r)
	}
	var zero Snapshot
	if zero.AbortRate() != 0 || zero.PrivRate() != 0 || zero.MagHitRate() != 0 {
		t.Fatal("zero snapshot rates must be 0")
	}
}

// TestDelta: windowed differences subtract counter-wise.
func TestDelta(t *testing.T) {
	a := Snapshot{Commits: 10, Aborts: 2, MagHits: 5}
	b := Snapshot{Commits: 25, Aborts: 3, MagHits: 11}
	d := b.Delta(a)
	if d.Commits != 15 || d.Aborts != 1 || d.MagHits != 6 {
		t.Fatalf("delta = %+v", d)
	}
}
