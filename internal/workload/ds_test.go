package workload_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/engine"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
	"safepriv/internal/telemetry"
)

// The churn tests below run dynamic data-structure traffic — the
// shapes the paper's privatization idiom makes sustainable — over
// every TM crossed with the heap shapes below, end to end: spec string
// → TM → stmds structure → stmalloc heap → settled allocator counters.
// The drivers are test-local; the package's timed workloads are the
// five paper drivers in workload.go.

// heapShape is a test-local heap choice. A heap's shape is chosen where
// the heap is built (stmalloc options), never by the engine spec. A row
// is named by the TM spec plus the shape's label — the names the rows
// carried while the shape was a spec modifier.
type heapShape struct {
	label     string
	magazines bool // stmalloc.WithMagazines
}

var (
	perFree  = heapShape{"quiesce", false}
	magazine = heapShape{"quiesce+batch", true}
)

func (h heapShape) row(spec string) string { return spec + "+" + h.label }

// Register layout of the churn drivers: the structure's head block at
// the front, the heap's arena after it. Register 0 stays unused.
const (
	dsSetHead  = 1  // hash-set head
	dsArena    = 8  // first arena register for set churn
	dsMapHead  = 8  // skiplist / hash-map head block
	dsMapArena = 32 // first arena register for map churn and the storm
)

// churnStats is what one churn run settles to.
type churnStats struct {
	commits       int64
	heapRegs      int64 // allocator footprint: bump high-water
	allocs, frees int64
	batches       int64 // magazine retires
	rehashWindows int64 // from the TM's telemetry board
}

// churnTM builds the TM named by spec with regs registers and thread
// ids for `threads` workers plus two spare ids.
func churnTM(t *testing.T, spec string, regs, threads int) core.TM {
	t.Helper()
	tm, err := engine.NewSpec(spec, regs, threads+2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// churnHeap builds the heap of shape h over tm's registers
// [arena, NumRegs): sharded per worker, magazines for the workers on a
// magazine shape.
func churnHeap(tm core.TM, h heapShape, threads, arena int) (*stmalloc.Heap, error) {
	opts := []stmalloc.Option{stmalloc.WithShards(min(max(threads, 1), 8))}
	if h.magazines {
		opts = append(opts, stmalloc.WithMagazines(threads, 0))
	}
	return stmalloc.New(tm, arena, tm.NumRegs(), opts...)
}

// settle drains the heap and reads the run's allocator and telemetry
// tallies; the drain's error wins over the workers'.
func settle(tm core.TM, heap *stmalloc.Heap, commits int64, werr error) (churnStats, error) {
	st := churnStats{commits: commits}
	if p, ok := tm.(telemetry.Provider); ok {
		st.rehashWindows = p.TelemetryBoard().Snapshot().RehashWindows
	}
	if err := heap.Drain(1); err != nil {
		return st, err
	}
	hs := heap.Stats()
	st.heapRegs, st.allocs, st.frees, st.batches = hs.BumpRegs, hs.Allocs, hs.Frees, hs.Batches
	return st, werr
}

// workers runs work on one goroutine per thread id in [first, last]
// and returns the first error any of them returned.
func workers(first, last int, work func(th int) error) error {
	var wg sync.WaitGroup
	errs := make(chan error, last-first+1)
	for th := first; th <= last; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			if err := work(th); err != nil {
				errs <- err
			}
		}(th)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// setChurn: `threads` workers each insert or remove (equal odds) `ops`
// keys drawn from twice the target live set on one hash set.
func setChurn(tm core.TM, h heapShape, threads, ops, live int, seed int64) (churnStats, error) {
	heap, err := churnHeap(tm, h, threads, dsArena)
	if err != nil {
		return churnStats{}, err
	}
	set := stmds.NewHashSet(tm, dsSetHead, heap)
	var commits atomic.Int64
	werr := workers(1, threads, func(th int) error {
		r := rand.New(rand.NewSource(seed + int64(th)*1777))
		for i := 0; i < ops; i++ {
			k := 1 + r.Int63n(int64(2*live))
			var err error
			if r.Intn(2) == 0 {
				_, err = set.Insert(th, k)
			} else {
				_, err = set.Remove(th, k)
			}
			if err != nil {
				return fmt.Errorf("set churn worker %d op %d: %w", th, i, err)
			}
			commits.Add(1)
		}
		return nil
	})
	return settle(tm, heap, commits.Load(), werr)
}

// mapRegs sizes map churn and the rehash storm: the demand of `keys`
// resident pairs in either map implementation, floored at 1<<17.
func mapRegs(threads, keys int) int {
	demand := append(stmds.SkipMapDemand(keys), stmds.HashMapDemand(keys)...)
	return max(dsMapArena+stmalloc.RegsForDemand(8, threads, 0, demand), 1<<17)
}

// mapChurn: `threads` workers each run `ops` get/put/delete (60/20/20)
// on one ordered map ("skip" or "hash") prefilled to the target live
// set, keys from twice that window, values k↦k.
func mapChurn(tm core.TM, h heapShape, ds string, threads, ops, live int, seed int64) (churnStats, error) {
	heap, err := churnHeap(tm, h, threads, dsMapArena)
	if err != nil {
		return churnStats{}, err
	}
	var m stmds.OrderedMap = stmds.NewSkipMap(tm, dsMapHead, threads, heap)
	if ds == "hash" {
		m = stmds.NewHashMap(tm, dsMapHead, heap)
	}
	keyspace := int64(2 * live)
	for k := int64(2); k <= keyspace; k += 2 {
		if _, err := m.Put(1, k, k); err != nil {
			return churnStats{}, fmt.Errorf("map churn prefill key %d: %w", k, err)
		}
	}
	var commits atomic.Int64
	werr := workers(1, threads, func(th int) error {
		r := rand.New(rand.NewSource(seed + int64(th)*2399))
		for i := 0; i < ops; i++ {
			key := 1 + r.Int63n(keyspace)
			var err error
			switch kind := r.Intn(100); {
			case kind < 60:
				_, _, err = m.Get(th, key)
			case kind < 80:
				_, err = m.Put(th, key, key)
			default:
				_, err = m.Delete(th, key)
			}
			if err != nil {
				return fmt.Errorf("map churn worker %d op %d: %w", th, i, err)
			}
			commits.Add(1)
		}
		return nil
	})
	return settle(tm, heap, commits.Load(), werr)
}

// rehashStorm: `threads` workers each insert `ops` distinct keys
// (thread-partitioned, nothing deleted) into one hash map that starts
// at its initial 16 buckets, so the table doubles many times, each
// doubling one privatized cycle racing the other writers.
func rehashStorm(tm core.TM, h heapShape, threads, ops int) (churnStats, error) {
	heap, err := churnHeap(tm, h, threads, dsMapArena)
	if err != nil {
		return churnStats{}, err
	}
	hm := stmds.NewHashMap(tm, dsMapHead, heap)
	var commits atomic.Int64
	werr := workers(1, threads, func(th int) error {
		base := int64(th) << 32
		for i := 0; i < ops; i++ {
			k := base + int64(i)
			added, err := hm.Put(th, k, k)
			if err != nil {
				return fmt.Errorf("rehash storm worker %d op %d: %w", th, i, err)
			}
			if !added {
				return fmt.Errorf("rehash storm worker %d op %d: fresh key %d already present", th, i, k)
			}
			commits.Add(1)
		}
		return nil
	})
	return settle(tm, heap, commits.Load(), werr)
}

// TestSetChurnAllTMs runs hash-set churn on every TM × heap shape:
// every run must complete, and the heap must reclaim in a footprint
// that does not grow with the op count.
func TestSetChurnAllTMs(t *testing.T) {
	ops := 400
	if testing.Short() {
		ops = 150
	}
	for _, tmName := range engine.TMs() {
		for _, shape := range []heapShape{perFree, magazine} {
			t.Run(shape.row(tmName), func(t *testing.T) {
				tm := churnTM(t, tmName, 1<<16, 4)
				st, err := setChurn(tm, shape, 4, ops, 64, 3)
				if err != nil {
					t.Fatal(err)
				}
				if st.commits != int64(4*ops) {
					t.Fatalf("commits %d, want %d", st.commits, 4*ops)
				}
				if st.heapRegs <= 0 {
					t.Fatalf("no footprint reported: %+v", st)
				}
				if st.frees == 0 {
					t.Fatalf("reclaiming run reclaimed nothing: %+v", st)
				}
				// Without reuse this traffic would take a 3-reg node
				// per insert; the heap stays under one reg per op.
				if st.heapRegs > int64(4*ops) {
					t.Fatalf("reclaiming footprint %d regs not bounded (%d ops)", st.heapRegs, 4*ops)
				}
				if shape.magazines {
					if st.batches == 0 || st.batches >= st.frees {
						t.Fatalf("magazine run shows no amortization: %d batches for %d frees",
							st.batches, st.frees)
					}
				}
			})
		}
	}
}

// TestMapChurnAllTMs runs map churn on the skiplist SkipMap and the
// chained HashMap over the reclaiming allocator: every TM × ds × heap shape must complete with full commit
// counts and real reclamation — for the skiplist that means whole
// towers (multi-size-class blocks) cycling through the heap, for the
// hash map growth from its 16 initial buckets through privatized
// doublings.
func TestMapChurnAllTMs(t *testing.T) {
	// Enough ops that the 20% delete share still fills at least one
	// thread's parked-free list on the magazine heap.
	ops := 400
	if testing.Short() {
		ops = 200
	}
	for _, tmName := range engine.TMs() {
		for _, shape := range []heapShape{perFree, magazine} {
			for _, ds := range []string{"skip", "hash"} {
				t.Run(shape.row(tmName)+"/ds="+ds, func(t *testing.T) {
					tm := churnTM(t, tmName, mapRegs(4, 4096), 4)
					st, err := mapChurn(tm, shape, ds, 4, ops, 64, 7)
					if err != nil {
						t.Fatal(err)
					}
					if st.commits != int64(4*ops) {
						t.Fatalf("commits %d, want %d", st.commits, 4*ops)
					}
					if st.frees == 0 {
						t.Fatalf("reclaiming run reclaimed nothing: %+v", st)
					}
					if ds == "hash" && st.rehashWindows == 0 {
						t.Fatalf("hash churn from 16 buckets recorded no rehash windows: %+v", st)
					}
					if st.allocs <= st.frees-1 {
						t.Fatalf("counters inverted: allocs %d, frees %d", st.allocs, st.frees)
					}
					if shape.magazines && st.batches == 0 {
						t.Fatalf("magazine run retired no magazines: %+v", st)
					}
				})
			}
		}
	}
}

// TestRehashStorm runs the table-growth stress on both reclaiming heap
// shapes: the storm must actually rehash (telemetry windows recorded)
// and settle to exact accounting — every inserted pair live, plus one
// bucket array, with all the intermediate array generations freed.
func TestRehashStorm(t *testing.T) {
	ops := 500
	if testing.Short() {
		ops = 150
	}
	const threads = 4
	for _, r := range []struct {
		spec  string
		shape heapShape
	}{{"tl2", perFree}, {"norec", perFree}, {"tl2", magazine}} {
		t.Run(r.shape.row(r.spec), func(t *testing.T) {
			tm := churnTM(t, r.spec, mapRegs(threads, 1<<13), threads)
			st, err := rehashStorm(tm, r.shape, threads, ops)
			if err != nil {
				t.Fatal(err)
			}
			if st.commits != int64(threads*ops) {
				t.Fatalf("commits %d, want %d", st.commits, threads*ops)
			}
			if st.rehashWindows == 0 {
				t.Fatalf("%d inserts from 16 buckets recorded no rehash windows: %+v", threads*ops, st)
			}
			if st.frees == 0 {
				t.Fatalf("no freed array generations: %+v", st)
			}
			// Exact: live blocks = the inserted pairs + ONE bucket array.
			if live := st.allocs - st.frees; live != int64(threads*ops)+1 {
				t.Fatalf("allocs-frees = %d, want %d pairs + 1 array", live, threads*ops)
			}
		})
	}
}

// TestChurnBoundedSpace is the end-to-end payoff: on a small TM, churn
// whose allocations add up to several times the arena completes in a
// bounded register footprint — only reuse can serve it, and the
// paper's privatization idiom is what makes reuse safe, so long-running
// dynamic workloads are possible at all.
func TestChurnBoundedSpace(t *testing.T) {
	const regs = 2048
	const threads, ops = 4, 2000 // ~2k successful inserts × 3 regs ≫ 2048 registers
	st, err := setChurn(churnTM(t, "tl2", regs, threads), perFree, threads, ops, 64, 9)
	if err != nil {
		t.Fatalf("reclaiming churn failed where it must reclaim: %v", err)
	}
	// Every allocation is at least a hash node (key, value, next): a
	// 3-register block.
	if allocated := st.allocs * int64(stmalloc.BlockRegs(3)); allocated <= regs-dsArena {
		t.Fatalf("churn allocated %d regs, not past the %d-reg arena: the run proves no reuse", allocated, regs-dsArena)
	}
	if st.heapRegs >= regs/2 {
		t.Fatalf("reclaiming footprint %d regs is not bounded well below the %d-reg arena", st.heapRegs, regs)
	}
	if st.frees == 0 {
		t.Fatal("reclaiming churn reclaimed nothing")
	}
	t.Logf("per-free heap: %d ops in %d regs (allocs %d, frees %d)",
		threads*ops, st.heapRegs, st.allocs, st.frees)
}
