package quiesce

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safepriv/internal/rcu"
	"safepriv/internal/telemetry"
)

const maxThread = 9 // highest thread id the test services track

func newSvc() *Service { return New(rcu.NewEpochs(maxThread)) }

// fenceModes are the service's two ways to fence: the paper's fence,
// and the filtered fence with a predicate that keeps every thread, which
// must wait for exactly the same transactions. Only the paper's fence
// is counted on the board.
var fenceModes = []struct {
	name    string
	fence   func(*Service)
	counted bool
}{
	{"wait", (*Service).Fence, true},
	{"filtered", func(s *Service) { s.FenceFiltered(func(int) bool { return true }) }, false},
}

// boardFences is how many of n fences in mode the board should count.
func boardFences(counted bool, n int64) int64 {
	if counted {
		return n
	}
	return 0
}

// TestNoOpFenceDoesNotWait: over rcu.NoOp the service runs the split
// grace period like any other quiescer, and its fences return at once
// although a transaction is active.
func TestNoOpFenceDoesNotWait(t *testing.T) {
	s := New(rcu.NewNoOp(maxThread))
	if s.snap == nil {
		t.Fatal("rcu.NoOp is not a Parker")
	}
	s.Enter(2)
	for _, mode := range fenceModes {
		done := make(chan struct{})
		go func() { mode.fence(s); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s fence over NoOp waited for an active transaction", mode.name)
		}
	}
	s.Exit(2)
}

// TestFenceBlocksUntilExitAllModes: both fences have the paper's
// semantics — they do not return while a transaction that was active at
// the call is still running, and return once it exits.
func TestFenceBlocksUntilExitAllModes(t *testing.T) {
	for _, mode := range fenceModes {
		t.Run(mode.name, func(t *testing.T) {
			s := newSvc()
			s.Enter(2)
			done := make(chan struct{})
			go func() { mode.fence(s); close(done) }()
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

// TestFenceFiltered: a thread excluded by the predicate is not waited
// for; an included one is.
func TestFenceFiltered(t *testing.T) {
	s := newSvc()
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

// TestNewFunc: a closure-backed service (the baseline TM's shape) runs
// the supplied wait once per fence, whichever way it fences, and records
// each of the paper's fences on its board.
func TestNewFunc(t *testing.T) {
	for _, mode := range fenceModes {
		t.Run(mode.name, func(t *testing.T) {
			var waits atomic.Int64
			s := NewFunc(func() { waits.Add(1) })
			board := telemetry.NewBoard(1)
			s.SetBoard(board)
			mode.fence(s)
			mode.fence(s)
			if waits.Load() != 2 {
				t.Fatalf("2 fences invoked the wait %d times", waits.Load())
			}
			if got, want := board.Snapshot().Fences, boardFences(mode.counted, 2); got != want {
				t.Fatalf("board counted %d fences, want %d", got, want)
			}
		})
	}
}

// TestWaitFenceDoesNotAllocate: the pooled snapshot buffer makes the
// steady-state fence allocation-free.
func TestWaitFenceDoesNotAllocate(t *testing.T) {
	s := newSvc()
	s.Fence() // warm the pool
	if allocs := testing.AllocsPerRun(100, s.Fence); allocs != 0 {
		t.Fatalf("Fence allocated %.1f/op", allocs)
	}
}

// TestStressAllModes races concurrent fences against transactions
// under the race detector: every fence returns, the paper's fences are
// counted, and the pooled snapshot buffers are never shared.
func TestStressAllModes(t *testing.T) {
	for _, mode := range fenceModes {
		t.Run(mode.name, func(t *testing.T) {
			s := newSvc()
			board := telemetry.NewBoard(maxThread)
			s.SetBoard(board)
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
			var fw sync.WaitGroup
			for i := 0; i < 4; i++ {
				fw.Add(1)
				go func() {
					defer fw.Done()
					for j := 0; j < 50; j++ {
						mode.fence(s)
					}
				}()
			}
			fw.Wait()
			close(stop)
			wg.Wait()
			if got, want := board.Snapshot().Fences, boardFences(mode.counted, 4*50); got != want {
				t.Fatalf("board counted %d fences, want %d", got, want)
			}
		})
	}
}
