package quiesce

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safepriv/internal/rcu"
)

const reclaimID = 9 // reserved callback thread id used throughout

func newSvc(mode Mode) *Service {
	return New(rcu.NewEpochs(reclaimID), mode, reclaimID)
}

func TestModeStringParse(t *testing.T) {
	for _, m := range []Mode{Wait, Combine, Defer} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if m, err := ParseMode(""); err != nil || m != Wait {
		t.Fatalf("empty mode = %v, %v; want Wait", m, err)
	}
	if _, err := ParseMode("sometimes"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// fenceBlocks asserts that a synchronous Fence in any mode still has
// the paper's semantics: it does not return while a transaction that
// was active at the call is still running, and returns once it exits.
func TestFenceBlocksUntilExitAllModes(t *testing.T) {
	for _, mode := range []Mode{Wait, Combine, Defer} {
		t.Run(mode.String(), func(t *testing.T) {
			s := newSvc(mode)
			s.Enter(2)
			done := make(chan struct{})
			go func() { s.Fence(); close(done) }()
			select {
			case <-done:
				t.Fatal("Fence returned while a transaction was active")
			case <-time.After(50 * time.Millisecond):
			}
			s.Exit(2)
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("Fence did not return after Exit")
			}
		})
	}
}

// TestCombineCoalesces: K fences queued behind one active transaction
// complete with O(1) grace periods, not K.
func TestCombineCoalesces(t *testing.T) {
	s := newSvc(Combine)
	s.Enter(1)
	const K = 8
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.Fence() }()
	}
	// Let the fences queue up behind thread 1.
	time.Sleep(50 * time.Millisecond)
	s.Exit(1)
	wg.Wait()
	st := s.Stats()
	if st.Fences != K {
		t.Fatalf("Fences = %d, want %d", st.Fences, K)
	}
	// The leader's grace period plus at most one follow-up for late
	// arrivals: far fewer than one per caller.
	if st.GracePeriods > 3 {
		t.Fatalf("%d fences ran %d grace periods; combining failed", K, st.GracePeriods)
	}
}

// TestDeferRunsAfterGracePeriod: a deferred callback must not run while
// a transaction active at registration is still live, must run after it
// exits, and runs with the reserved reclaim thread id.
func TestDeferRunsAfterGracePeriod(t *testing.T) {
	s := newSvc(Defer)
	s.Enter(3)
	var ran atomic.Bool
	var gotThread atomic.Int64
	s.Defer(1, func(th int) {
		gotThread.Store(int64(th))
		ran.Store(true)
	})
	time.Sleep(50 * time.Millisecond)
	if ran.Load() {
		t.Fatal("callback ran while the observed transaction was active")
	}
	s.Exit(3)
	s.Barrier()
	if !ran.Load() {
		t.Fatal("Barrier returned before the callback ran")
	}
	if gotThread.Load() != reclaimID {
		t.Fatalf("callback thread = %d, want reserved id %d", gotThread.Load(), reclaimID)
	}
}

// TestDeferBatches: callbacks registered while a grace period is held
// open all ride one reclaimer batch.
func TestDeferBatches(t *testing.T) {
	s := newSvc(Defer)
	s.Enter(1)
	const K = 16
	var ran atomic.Int64
	for i := 0; i < K; i++ {
		s.Defer(2, func(int) { ran.Add(1) })
	}
	time.Sleep(20 * time.Millisecond) // reclaimer is now waiting on thread 1
	s.Exit(1)
	s.Barrier()
	if ran.Load() != K {
		t.Fatalf("ran %d callbacks, want %d", ran.Load(), K)
	}
	st := s.Stats()
	if st.Deferred != K {
		t.Fatalf("Deferred = %d, want %d", st.Deferred, K)
	}
	if st.Batches > 2 {
		t.Fatalf("%d callbacks took %d batches; batching failed", K, st.Batches)
	}
}

// TestDeferInlineFallback: outside Defer mode, Defer fences and runs
// the callback synchronously with the caller's thread id, and Barrier
// is a no-op.
func TestDeferInlineFallback(t *testing.T) {
	for _, mode := range []Mode{Wait, Combine} {
		t.Run(mode.String(), func(t *testing.T) {
			s := newSvc(mode)
			ran, thread := false, 0
			s.Defer(4, func(th int) { ran, thread = true, th })
			if !ran {
				t.Fatal("callback did not run inline")
			}
			if thread != 4 {
				t.Fatalf("inline callback thread = %d, want caller's 4", thread)
			}
			s.Barrier() // must not block
		})
	}
}

// TestCallbackOrder: deferred callbacks run serially in registration
// order.
func TestCallbackOrder(t *testing.T) {
	s := newSvc(Defer)
	s.Enter(1)
	var mu sync.Mutex
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Defer(2, func(int) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	s.Exit(1)
	s.Barrier()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
	if len(order) != 10 {
		t.Fatalf("ran %d callbacks", len(order))
	}
}

// TestFenceFiltered: a thread excluded by the predicate is not waited
// for; an included one is.
func TestFenceFiltered(t *testing.T) {
	s := newSvc(Wait)
	s.Enter(3)
	done := make(chan struct{})
	go func() { s.FenceFiltered(func(th int) bool { return th != 3 }); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("filtered fence waited for the excluded thread")
	}
	s.Enter(2)
	done2 := make(chan struct{})
	go func() { s.FenceFiltered(func(th int) bool { return th != 3 }); close(done2) }()
	select {
	case <-done2:
		t.Fatal("filtered fence ignored an included active thread")
	case <-time.After(50 * time.Millisecond):
	}
	s.Exit(2)
	<-done2
	s.Exit(3)
}

// TestReclaimerExitsWhenIdle: the reclaimer goroutine is transient —
// after Barrier with nothing pending, the goroutine count returns to
// its baseline.
func TestReclaimerExitsWhenIdle(t *testing.T) {
	s := newSvc(Defer)
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		s.Defer(1, func(int) {})
	}
	s.Barrier()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > baseline %d after drain", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNewFunc: a closure-backed service (the baseline TM's shape)
// serves all three modes.
func TestNewFunc(t *testing.T) {
	for _, mode := range []Mode{Wait, Combine, Defer} {
		t.Run(mode.String(), func(t *testing.T) {
			var waits atomic.Int64
			s := NewFunc(func() { waits.Add(1) }, mode, reclaimID)
			s.Fence()
			var ran atomic.Bool
			s.Defer(1, func(int) { ran.Store(true) })
			s.Barrier()
			if !ran.Load() {
				t.Fatal("callback did not run")
			}
			if waits.Load() == 0 {
				t.Fatal("underlying wait never invoked")
			}
			if got := s.Stats().GracePeriods; got != uint64(waits.Load()) {
				t.Fatalf("GracePeriods = %d, wait calls = %d", got, waits.Load())
			}
		})
	}
}

// TestWaitFenceDoesNotAllocate: the pooled snapshot buffer makes the
// steady-state wait-mode fence allocation-free.
func TestWaitFenceDoesNotAllocate(t *testing.T) {
	s := newSvc(Wait)
	s.Fence() // warm the pool
	if allocs := testing.AllocsPerRun(100, s.Fence); allocs != 0 {
		t.Fatalf("wait-mode Fence allocated %.1f/op", allocs)
	}
}

// TestStressAllModes races fences, deferred callbacks and transactions
// under the race detector.
func TestStressAllModes(t *testing.T) {
	for _, mode := range []Mode{Wait, Combine, Defer} {
		t.Run(mode.String(), func(t *testing.T) {
			s := newSvc(mode)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for th := 1; th <= 4; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						s.Enter(th)
						s.Exit(th)
					}
				}(th)
			}
			var ran atomic.Int64
			var fw sync.WaitGroup
			for i := 0; i < 4; i++ {
				fw.Add(1)
				go func(i int) {
					defer fw.Done()
					for j := 0; j < 50; j++ {
						if j%2 == 0 {
							s.Fence()
						} else {
							s.Defer(5+i%2, func(int) { ran.Add(1) })
						}
					}
				}(i)
			}
			fw.Wait()
			s.Barrier()
			close(stop)
			wg.Wait()
			if ran.Load() != 4*25 {
				t.Fatalf("ran %d callbacks, want %d", ran.Load(), 4*25)
			}
		})
	}
}

// TestDeferBatchSharesGracePeriod: in Wait mode N separate Defer calls
// pay N grace periods, while one DeferBatch of N callbacks pays one —
// the amortization the magazine allocator's batch retire rides.
func TestDeferBatchSharesGracePeriod(t *testing.T) {
	const n = 6
	s := newSvc(Wait)
	var ran atomic.Int32
	before := s.Stats().GracePeriods
	for i := 0; i < n; i++ {
		s.Defer(1, func(th int) { ran.Add(1) })
	}
	perCall := s.Stats().GracePeriods - before
	if perCall != n {
		t.Fatalf("%d Defer calls ran %d grace periods, want %d", n, perCall, n)
	}

	fns := make([]func(int), n)
	for i := range fns {
		fns[i] = func(th int) { ran.Add(1) }
	}
	before = s.Stats().GracePeriods
	s.DeferBatch(1, fns)
	if got := s.Stats().GracePeriods - before; got != 1 {
		t.Fatalf("DeferBatch of %d callbacks ran %d grace periods, want 1", n, got)
	}
	if ran.Load() != 2*n {
		t.Fatalf("%d callbacks ran, want %d", ran.Load(), 2*n)
	}
}

// TestDeferBatchDeferMode: in Defer mode the batch joins the reclaimer
// queue in one step, runs after a grace period that starts after
// registration, in order, and settles under Barrier.
func TestDeferBatchDeferMode(t *testing.T) {
	s := newSvc(Defer)
	s.Enter(2) // an active transaction the batch must wait out
	var order []int
	var mu sync.Mutex
	fns := make([]func(int), 5)
	for i := range fns {
		i := i
		fns[i] = func(th int) {
			if th != reclaimID {
				t.Errorf("callback %d ran on thread %d, want %d", i, th, reclaimID)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}
	}
	s.DeferBatch(1, fns)
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	ranEarly := len(order)
	mu.Unlock()
	if ranEarly != 0 {
		t.Fatalf("%d callbacks ran before the observed transaction exited", ranEarly)
	}
	s.Exit(2)
	s.Barrier()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 5 {
		t.Fatalf("%d callbacks ran, want 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("callbacks ran out of order: %v", order)
		}
	}
}

// TestBatchHandle: the accumulate-then-flush handle registers
// everything under one grace period and resets for reuse; flushing an
// empty batch is a no-op.
func TestBatchHandle(t *testing.T) {
	s := newSvc(Combine)
	b := s.NewBatch()
	b.Flush(1) // empty: no grace period
	if got := s.Stats().GracePeriods; got != 0 {
		t.Fatalf("empty flush ran %d grace periods", got)
	}
	var ran atomic.Int32
	for i := 0; i < 4; i++ {
		b.Defer(func(th int) { ran.Add(1) })
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	b.Flush(1)
	if b.Len() != 0 {
		t.Fatalf("batch not reset after Flush: Len = %d", b.Len())
	}
	if ran.Load() != 4 {
		t.Fatalf("%d callbacks ran, want 4", ran.Load())
	}
	if got := s.Stats().GracePeriods; got != 1 {
		t.Fatalf("flush of 4 callbacks ran %d grace periods, want 1", got)
	}
}
