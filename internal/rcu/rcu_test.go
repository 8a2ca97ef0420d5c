package rcu

import (
	"sync"
	"testing"
	"time"

	"safepriv/internal/telemetry"
)

// kinds are New's two waits: the paper's flags and the epoch ablation.
var kinds = []struct {
	name   string
	epochs bool
}{{"flags", false}, {"epochs", true}}

// waits are the fence's two entry points: the paper's fence, and the
// filtered fence with a predicate that keeps every thread, which must
// wait for exactly the same transactions. Only Wait is counted on the
// board.
var waits = []struct {
	name    string
	wait    func(*Fence)
	counted bool
}{
	{"wait", (*Fence).Wait, true},
	{"filtered", func(f *Fence) { f.WaitFiltered(func(int) bool { return true }) }, false},
}

// eachKind runs body once per wait kind on a fresh fence for threads
// 1..n.
func eachKind(t *testing.T, n int, body func(t *testing.T, f *Fence)) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) { body(t, New(n, k.epochs, nil)) })
	}
}

// eachWait runs body once per wait kind and entry point.
func eachWait(t *testing.T, n int, body func(t *testing.T, f *Fence, wait func(*Fence))) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			for _, w := range waits {
				t.Run(w.name, func(t *testing.T) { body(t, New(n, k.epochs, nil), w.wait) })
			}
		})
	}
}

// active reads thread t's activity off its counter.
func active(f *Fence, t int) bool { return f.slots[t].seq.Load()%2 == 1 }

// snap takes a fresh snapshot of every thread.
func snap(f *Fence) []uint64 {
	g := make([]uint64, len(f.slots))
	f.snapshot(g, nil)
	return g
}

func TestEnterExitActive(t *testing.T) {
	eachKind(t, 4, func(t *testing.T, f *Fence) {
		if active(f, 1) {
			t.Fatal("initially active")
		}
		f.Enter(1)
		if !active(f, 1) {
			t.Fatal("not active after Enter")
		}
		if active(f, 2) {
			t.Fatal("wrong thread active")
		}
		f.Exit(1)
		if active(f, 1) {
			t.Fatal("active after Exit")
		}
	})
}

func TestWaitNoActive(t *testing.T) {
	eachWait(t, 4, func(t *testing.T, f *Fence, wait func(*Fence)) {
		done := make(chan struct{})
		go func() { wait(f); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("fence blocked with no active transactions")
		}
	})
}

func TestWaitBlocksUntilExit(t *testing.T) {
	eachWait(t, 4, func(t *testing.T, f *Fence, wait func(*Fence)) {
		f.Enter(2)
		done := make(chan struct{})
		go func() { wait(f); close(done) }()
		select {
		case <-done:
			t.Fatal("fence returned while a transaction was active")
		case <-time.After(50 * time.Millisecond):
		}
		f.Exit(2)
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("fence did not return after Exit")
		}
	})
}

func TestWaitIgnoresLaterTransactions(t *testing.T) {
	// A transaction beginning after the fence's snapshot must not be
	// waited for. Start the fence with t2 active; release t2, then
	// immediately start a new t3 transaction that never exits; the fence
	// must return. (For flags this holds for *other* threads; the same
	// thread could be re-awaited, which is permitted behaviour.)
	eachWait(t, 4, func(t *testing.T, f *Fence, wait func(*Fence)) {
		f.Enter(2)
		done := make(chan struct{})
		go func() { wait(f); close(done) }()
		time.Sleep(20 * time.Millisecond)
		f.Enter(3) // began after the fence: not in the snapshot
		f.Exit(2)
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("fence waited for a transaction that began after it")
		}
		f.Exit(3)
	})
}

func TestEpochsExactGrace(t *testing.T) {
	// Epochs distinguish successive transactions of the same thread:
	// the fence must not wait for a second transaction of a thread
	// whose first transaction it observed.
	for _, w := range waits {
		t.Run(w.name, func(t *testing.T) {
			f := New(4, true, nil)
			f.Enter(2)
			started := make(chan struct{})
			done := make(chan struct{})
			go func() { close(started); w.wait(f); close(done) }()
			<-started
			time.Sleep(20 * time.Millisecond)
			f.Exit(2)
			f.Enter(2) // same thread, new transaction, stays active
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("epoch fence waited for a later transaction of the same thread")
			}
			f.Exit(2)
		})
	}
}

// TestSnapshotQuiesced exercises one grace period step by step: a
// snapshot taken with a transaction in flight stays un-quiesced until
// that transaction exits, and entries are sticky-cleared so a thread
// that finishes and restarts between polls is not re-awaited.
func TestSnapshotQuiesced(t *testing.T) {
	eachKind(t, 4, func(t *testing.T, f *Fence) {
		if !f.quiesced(snap(f)) {
			t.Fatal("idle snapshot not immediately quiesced")
		}
		f.Enter(2)
		g := snap(f)
		if f.quiesced(g) {
			t.Fatal("quiesced with thread 2 active")
		}
		f.Exit(2)
		if !f.quiesced(g) { // poll observes the idle window: entry cleared
			t.Fatal("not quiesced after thread 2 exited")
		}
		f.Enter(2) // new transaction, after the observed one exited
		if !f.quiesced(g) {
			t.Fatal("re-awaited a transaction that began after the poll observed thread 2 idle")
		}
		f.Exit(2)
	})
}

// TestWaitBound: a grace period that observed a thread inside one
// transaction is done once that transaction ends, on epochs even while
// the thread's next one runs: at most one transaction per observed
// thread. The flag wait is still held up by the next one (no bound).
func TestWaitBound(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			f := New(4, k.epochs, nil)
			f.Enter(1)
			g := snap(f)
			f.Exit(1)
			f.Enter(1) // begins at once, before any poll
			if got := f.quiesced(g); got != k.epochs {
				t.Fatalf("quiesced during the thread's next transaction = %v, want %v", got, k.epochs)
			}
			f.Exit(1)
		})
	}
}

// TestBoardCountsCommits: a board handed to New counts every
// transaction that ended through Exit as a commit, and none that ended
// through ExitAborted.
func TestBoardCountsCommits(t *testing.T) {
	b := telemetry.NewBoard(2)
	f := New(2, true, b)
	for _, aborted := range []bool{false, true, false, true, true} {
		f.Enter(2)
		if aborted {
			f.ExitAborted(2)
		} else {
			f.Exit(2)
		}
	}
	f.Enter(1) // still running: not counted
	if s := b.Snapshot(); s.Commits != 2 {
		t.Fatalf("Commits = %d, want 2", s.Commits)
	}
	if u := b.Slot(2).Uncommitted.Load(); u != 3 {
		t.Fatalf("Uncommitted = %d, want 3", u)
	}
	f.Exit(1)
}

// TestSnapshotDrop: a thread the filter drops is excluded from the
// grace period (the mechanism behind the skip-read-only fence bug
// reproduction).
func TestSnapshotDrop(t *testing.T) {
	eachKind(t, 4, func(t *testing.T, f *Fence) {
		f.Enter(1)
		f.Enter(3)
		g := make([]uint64, len(f.slots))
		f.snapshot(g, func(th int) bool { return th != 3 })
		if f.quiesced(g) {
			t.Fatal("quiesced with thread 1 still active")
		}
		f.Exit(1)
		if !f.quiesced(g) {
			t.Fatal("dropped thread 3 was still waited for")
		}
		f.Exit(3)
	})
}

// TestWaitFiltered: a thread excluded by the predicate is not waited
// for; an included one is.
func TestWaitFiltered(t *testing.T) {
	eachKind(t, 4, func(t *testing.T, f *Fence) {
		skip3 := func(th int) bool { return th != 3 }
		f.Enter(3)
		done := make(chan struct{})
		go func() { f.WaitFiltered(skip3); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("filtered fence waited for the excluded thread")
		}
		f.Enter(2)
		done2 := make(chan struct{})
		go func() { f.WaitFiltered(skip3); close(done2) }()
		select {
		case <-done2:
			t.Fatal("filtered fence ignored an included active thread")
		case <-time.After(50 * time.Millisecond):
		}
		f.Exit(2)
		<-done2
		f.Exit(3)
	})
}

// TestSnapshotIntoReuses: one buffer serves repeated grace periods
// without allocating.
func TestSnapshotIntoReuses(t *testing.T) {
	eachKind(t, 4, func(t *testing.T, f *Fence) {
		g := snap(f)
		allocs := testing.AllocsPerRun(100, func() {
			f.snapshot(g, nil)
			f.quiesced(g)
		})
		if allocs != 0 {
			t.Fatalf("snapshot reuse allocated %.1f/op", allocs)
		}
	})
}

// TestWaitDoesNotAllocate: the pooled snapshot buffer makes the
// steady-state fence allocation-free.
func TestWaitDoesNotAllocate(t *testing.T) {
	eachWait(t, 8, func(t *testing.T, f *Fence, wait func(*Fence)) {
		wait(f) // warm the pool
		if allocs := testing.AllocsPerRun(100, func() { wait(f) }); allocs != 0 {
			t.Fatalf("fence allocated %.1f/op", allocs)
		}
	})
}

// TestConcurrentFenceStress races concurrent fences against short
// transactions under the race detector: every fence returns, only the
// paper's fences are counted on the board, and the pooled snapshot
// buffers are never shared.
func TestConcurrentFenceStress(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			for _, w := range waits {
				t.Run(w.name, func(t *testing.T) {
					const threads, fencers, fences = 4, 4, 50
					board := telemetry.NewBoard(threads)
					f := New(threads, k.epochs, board)
					stop := make(chan struct{})
					var wg sync.WaitGroup
					for th := 1; th <= threads; th++ {
						wg.Add(1)
						go func(th int) {
							defer wg.Done()
							for {
								select {
								case <-stop:
									return
								default:
								}
								f.Enter(th)
								f.Exit(th)
							}
						}(th)
					}
					var fw sync.WaitGroup
					for i := 0; i < fencers; i++ {
						fw.Add(1)
						go func() {
							defer fw.Done()
							for j := 0; j < fences; j++ {
								w.wait(f)
							}
						}()
					}
					fw.Wait()
					close(stop)
					wg.Wait()
					want := int64(0)
					if w.counted {
						want = fencers * fences
					}
					if got := board.Snapshot().Fences; got != want {
						t.Fatalf("board counted %d fences, want %d", got, want)
					}
				})
			}
		})
	}
}

// TestWaitQuiescedParksUntilExit: the parked wait blocks while the
// observed transaction runs and returns promptly once Exit signals it —
// no polling deadline involved.
func TestWaitQuiescedParksUntilExit(t *testing.T) {
	eachKind(t, 4, func(t *testing.T, f *Fence) {
		f.Enter(2)
		g := snap(f)
		done := make(chan struct{})
		go func() {
			f.await(g)
			close(done)
		}()
		select {
		case <-done:
			t.Fatal("await returned while the observed transaction was active")
		case <-time.After(20 * time.Millisecond):
		}
		f.Exit(2)
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("await did not wake on Exit")
		}
	})
}

// TestWaitQuiescedConcurrentWaiters: several parked fencers with
// independent snapshots all wake from one Exit broadcast.
func TestWaitQuiescedConcurrentWaiters(t *testing.T) {
	eachKind(t, 4, func(t *testing.T, f *Fence) {
		f.Enter(1)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.await(snap(f))
			}()
		}
		time.Sleep(10 * time.Millisecond)
		f.Exit(1)
		waited := make(chan struct{})
		go func() { wg.Wait(); close(waited) }()
		select {
		case <-waited:
		case <-time.After(2 * time.Second):
			t.Fatal("parked fencers did not all wake")
		}
	})
}
