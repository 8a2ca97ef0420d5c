package vclock

import (
	"sort"
	"sync"
	"testing"
)

func TestFAISequential(t *testing.T) {
	c := NewFAI()
	if c.Load() != 0 {
		t.Fatal("clock must start at 0")
	}
	for i := int64(1); i <= 10; i++ {
		if got, excl := c.Tick(); got != i || !excl {
			t.Fatalf("Tick %d returned (%d, %v), want (%d, true)", i, got, excl, i)
		}
	}
	if c.Load() != 10 {
		t.Fatalf("Load = %d, want 10", c.Load())
	}
}

func TestFAIConcurrentUnique(t *testing.T) {
	c := NewFAI()
	const workers, per = 8, 1000
	out := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals := make([]int64, per)
			for i := range vals {
				var excl bool
				if vals[i], excl = c.Tick(); !excl {
					t.Error("FAI tick not exclusive")
					return
				}
			}
			out[w] = vals
		}(w)
	}
	wg.Wait()
	var all []int64
	for _, vs := range out {
		all = append(all, vs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i+1) {
			t.Fatalf("timestamps not unique/dense at %d: %d", i, v)
		}
	}
}

func TestGV4Monotonic(t *testing.T) {
	c := NewGV4()
	prev := int64(0)
	for i := 0; i < 100; i++ {
		v, excl := c.Tick()
		if v <= prev {
			t.Fatalf("GV4 not monotonic: %d after %d", v, prev)
		}
		if !excl {
			// Nothing else ticks, so every CAS wins.
			t.Fatalf("GV4 tick %d not exclusive on one goroutine", v)
		}
		prev = v
	}
}

func TestGV4ConcurrentExceedsLoads(t *testing.T) {
	// Every Tick must return a value strictly greater than any Load
	// observed before it in the same goroutine, and no value may be
	// returned as exclusive twice: an adopted value is shared with the
	// committer whose CAS produced it.
	c := NewGV4()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	excl := make([][]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				before := c.Load()
				v, ok := c.Tick()
				if v <= before {
					errs <- "Tick did not exceed prior Load"
					return
				}
				if ok {
					excl[w] = append(excl[w], v)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	seen := make(map[int64]bool)
	for _, vs := range excl {
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("value %d returned as exclusive twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("no tick was exclusive")
	}
}

func TestClockInterface(t *testing.T) {
	var _ Clock = NewFAI()
	var _ Clock = NewGV4()
}
