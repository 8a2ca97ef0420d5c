package adapt

import (
	"testing"
	"time"

	"safepriv/internal/core"
	"safepriv/internal/quiesce"
	"safepriv/internal/stmalloc"
	"safepriv/internal/tl2"
)

// TestDesiredModePolicy pins the decision table: the controller's
// behaviour is this function plus hysteresis, so the table is the
// policy spec.
func TestDesiredModePolicy(t *testing.T) {
	cases := []struct {
		abort, priv float64
		want        quiesce.Mode
	}{
		{0, 0, quiesce.Wait},
		{0.9, 0, quiesce.Wait},                    // contention alone never leaves wait
		{0, PrivCombine, quiesce.Combine},         // moderate privatization
		{0.2, PrivDefer / 2, quiesce.Combine},     // moderate priv, cool aborts
		{AbortHot, PrivCombine, quiesce.Defer},    // moderate priv, hot aborts
		{0, PrivDefer, quiesce.Defer},             // heavy privatization
		{0.99, PrivDefer * 10, quiesce.Defer},     // heavy everything
		{0, PrivCombine / 2, quiesce.Wait},        // below the combine water line
		{AbortHot, PrivCombine / 2, quiesce.Wait}, // hot aborts without privatization
	}
	for _, c := range cases {
		if got := DesiredMode(c.abort, c.priv); got != c.want {
			t.Errorf("DesiredMode(abort=%v, priv=%v) = %v, want %v", c.abort, c.priv, got, c.want)
		}
	}
}

// TestControllerFlipsOnPrivatization drives the telemetry board by
// hand (no workload needed): sustained privatization traffic must flip
// the fence mode, and its disappearance must flip it back to wait.
func TestControllerFlipsOnPrivatization(t *testing.T) {
	tm := tl2.New(64, 2)
	c := New(tm, WithInterval(time.Millisecond))
	board := tm.TelemetryBoard()
	if got := tm.FenceMode(); got != quiesce.Wait {
		t.Fatalf("start mode = %v, want wait", got)
	}
	c.Start()
	defer c.Stop()

	// Phase 1: heavy privatization — every commit fences.
	deadline := time.Now().Add(2 * time.Second)
	for tm.FenceMode() != quiesce.Defer {
		sl := board.Slot(1)
		sl.Commits.Add(100)
		sl.Fences.Add(100)
		if time.Now().After(deadline) {
			t.Fatalf("controller never left wait under heavy privatization (mode %v)", tm.FenceMode())
		}
		time.Sleep(time.Millisecond)
	}

	// Phase 2: privatization stops — commits without fences must bring
	// the mode back to wait (and SetMode's drain makes that safe).
	deadline = time.Now().Add(2 * time.Second)
	for tm.FenceMode() != quiesce.Wait {
		board.Slot(1).Commits.Add(100)
		if time.Now().After(deadline) {
			t.Fatalf("controller never returned to wait after privatization stopped (mode %v)", tm.FenceMode())
		}
		time.Sleep(time.Millisecond)
	}

	r := c.Stop()
	if r.Flips < 2 {
		t.Fatalf("report.Flips = %d, want >= 2", r.Flips)
	}
	if r.Mode != quiesce.Wait {
		t.Fatalf("report.Mode = %v, want wait", r.Mode)
	}
}

// TestControllerGrowsMagazines feeds sustained magazine misses and
// checks the attached heap's capacity doubles (and never exceeds
// MaxMagCap).
func TestControllerGrowsMagazines(t *testing.T) {
	tm := tl2.New(1<<12, 4)
	heap, err := stmalloc.New(tm, 8, tm.NumRegs(),
		stmalloc.WithShards(1), stmalloc.WithMagazines(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	c := New(tm, WithInterval(time.Millisecond))
	c.AttachHeap(heap, 4) // resize transactions on the spare id
	c.Start()
	defer c.Stop()

	board := tm.TelemetryBoard()
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, capNow := heap.Magazines()
		if capNow >= 8 {
			break
		}
		sl := board.Slot(2)
		sl.Commits.Add(64)
		sl.MagMisses.Add(64) // 0% hit rate, real traffic
		if time.Now().After(deadline) {
			t.Fatalf("magazine capacity never grew (still %d)", capNow)
		}
		time.Sleep(time.Millisecond)
	}

	// Growth must stop at the bound.
	deadline = time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		sl := board.Slot(2)
		sl.Commits.Add(64)
		sl.MagMisses.Add(64)
		time.Sleep(time.Millisecond)
	}
	if _, capNow := heap.Magazines(); capNow > MaxMagCap {
		t.Fatalf("capacity %d exceeded MaxMagCap %d", capNow, MaxMagCap)
	}
	r := c.Stop()
	if r.Resizes < 1 {
		t.Fatalf("report.Resizes = %d, want >= 1", r.Resizes)
	}
	if r.MagCap < 8 {
		t.Fatalf("report.MagCap = %d, want >= 8", r.MagCap)
	}
}

// TestControllerLiveUnderWorkload is the integration smoke: a real
// workload (allocate/free churn with periodic privatizing fences) runs
// while the controller samples and flips; the heap's accounting must
// balance at the end. Run with -race in CI.
func TestControllerLiveUnderWorkload(t *testing.T) {
	const threads = 3
	tm := tl2.New(1<<13, threads+2)
	heap, err := stmalloc.New(tm, 8, tm.NumRegs(),
		stmalloc.WithShards(2), stmalloc.WithMagazines(threads, 4))
	if err != nil {
		t.Fatal(err)
	}
	c := New(tm, WithInterval(500*time.Microsecond))
	c.AttachHeap(heap, threads+2)
	c.Start()

	done := make(chan error, threads)
	for th := 1; th <= threads; th++ {
		go func(th int) {
			var ptrs []int64
			for i := 0; i < 400; i++ {
				var p int64
				err := core.Atomically(tm, th, func(tx core.Txn) (err error) {
					p, err = heap.New(tx, th, 2)
					return err
				})
				if err != nil {
					done <- err
					return
				}
				// Record the block only once its allocation committed: an
				// aborted attempt's pointer was never allocated, and
				// freeing it corrupts the magazine chain.
				ptrs = append(ptrs, p)
				if len(ptrs) >= 8 {
					for _, p := range ptrs {
						heap.Free(th, p, 2)
					}
					ptrs = ptrs[:0]
				}
				if i%50 == 0 {
					tm.Fence(th)
				}
			}
			for _, p := range ptrs {
				heap.Free(th, p, 2)
			}
			done <- nil
		}(th)
	}
	for i := 0; i < threads; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	c.Stop()
	for th := 1; th <= threads; th++ {
		heap.FlushThread(th)
	}
	if err := heap.Drain(1); err != nil {
		t.Fatal(err)
	}
	st := heap.Stats()
	if st.Live != 0 || st.MagAlloc != 0 || st.MagFree != 0 {
		t.Fatalf("leak after drain: live=%d magAlloc=%d magFree=%d", st.Live, st.MagAlloc, st.MagFree)
	}
}
