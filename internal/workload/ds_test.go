package workload_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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
// → TM → stmds structure → stmalloc heap (or the bump allocator) →
// settled allocator counters. The drivers are test-local; the
// package's timed workloads are the five paper drivers in workload.go.

// heapShape is a test-local heap choice. A heap's shape is chosen where
// the heap is built (stmalloc options, or the stmds bump allocator),
// never by the engine spec. A row is named by the TM spec plus the
// shape's label — the names the rows carried while the shape was a
// spec modifier.
type heapShape struct {
	label     string
	reclaims  bool // a stmalloc heap; false selects the bump allocator
	magazines bool // stmalloc.WithMagazines
}

var (
	bump     = heapShape{"bump", false, false}
	perFree  = heapShape{"quiesce", true, false}
	magazine = heapShape{"quiesce+batch", true, true}
)

func (h heapShape) row(spec string) string { return spec + "+" + h.label }

// churnHeap is the heap a churn run builds: its shape, and whether the
// TM's fence is unsafe to ride, so that Free must be fully
// transactional.
type churnHeap struct {
	heapShape
	txnFree bool
}

// Register layout of the churn drivers: a few pointer registers at the
// front, the allocator arena after them. Register 0 stays unused.
const (
	dsRegHead  = 1  // set/map head
	dsRegQHead = 2  // queue head
	dsRegQTail = 3  // queue tail
	dsRegBump  = 4  // bump allocator counter
	dsArena    = 8  // first arena register (set and queue churn)
	dsMapHead  = 8  // skiplist / hash-map head block
	dsMapArena = 32 // first arena register for map churn and the storm
)

// churnStats is what one churn run settles to.
type churnStats struct {
	commits       int64
	heapRegs      int64 // allocator footprint: bump high-water
	allocs, frees int64 // reclaiming heap only
	batches       int64 // magazine retires
	rehashWindows int64 // from the TM's telemetry board
}

// churnTM builds the TM named by spec with regs registers and thread
// ids for `threads` workers plus two spare ids, and plans a heap of the
// given shape over it.
func churnTM(t *testing.T, spec string, shape heapShape, regs, threads int) (core.TM, churnHeap) {
	t.Helper()
	cfg, err := engine.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Regs, cfg.Threads = regs, threads+2
	tm, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tm, churnHeap{shape, cfg.UnsafeFence()}
}

// churnAlloc builds the planned allocator over tm's registers
// [arena, NumRegs): the stmds bump allocator, or the stmalloc heap
// (sharded per worker, magazines for the workers on a magazine shape,
// fully transactional reclamation on an unsafe fence).
func churnAlloc(tm core.TM, h churnHeap, threads, arena int) (stmds.Allocator, *stmalloc.Heap, error) {
	if !h.reclaims {
		return stmds.NewAlloc(tm, dsRegBump, arena, tm.NumRegs()), nil, nil
	}
	opts := []stmalloc.Option{stmalloc.WithShards(min(max(threads, 1), 8))}
	if h.magazines {
		opts = append(opts, stmalloc.WithMagazines(threads, 0))
	}
	if h.txnFree {
		opts = append(opts, stmalloc.WithTransactionalFree())
	}
	heap, err := stmalloc.New(tm, arena, tm.NumRegs(), opts...)
	return heap, heap, err
}

// settle drains the heap and reads the run's allocator and telemetry
// tallies; the drain's error wins over the workers'.
func settle(tm core.TM, heap *stmalloc.Heap, arena int, commits int64, werr error) (churnStats, error) {
	st := churnStats{commits: commits}
	if p, ok := tm.(telemetry.Provider); ok {
		st.rehashWindows = p.TelemetryBoard().Snapshot().RehashWindows
	}
	if heap == nil {
		st.heapRegs = tm.Load(1, dsRegBump) - int64(arena)
		return st, werr
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
// keys drawn from twice the target live set on one sorted-list set.
func setChurn(tm core.TM, h churnHeap, threads, ops, live int, seed int64) (churnStats, error) {
	alloc, heap, err := churnAlloc(tm, h, threads, dsArena)
	if err != nil {
		return churnStats{}, err
	}
	set := stmds.NewSet(tm, dsRegHead, alloc)
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
	return settle(tm, heap, dsArena, commits.Load(), werr)
}

// queuePipe: half the threads enqueue `ops` values each, the other
// half dequeue until all have passed; the depth stays under `depth`.
func queuePipe(tm core.TM, h churnHeap, threads, ops int, depth, seed int64) (churnStats, error) {
	alloc, heap, err := churnAlloc(tm, h, threads, dsArena)
	if err != nil {
		return churnStats{}, err
	}
	q := stmds.NewQueue(tm, dsRegQHead, dsRegQTail, alloc)
	producers := (threads + 1) / 2
	target := int64(producers) * int64(ops)
	var outstanding, consumed, commits atomic.Int64
	var failed atomic.Bool
	werr := workers(1, threads, func(th int) error {
		if th <= producers {
			r := rand.New(rand.NewSource(seed + int64(th)*911))
			for i := 0; i < ops; i++ {
				for outstanding.Load() >= depth && !failed.Load() {
					runtime.Gosched()
				}
				if failed.Load() {
					return nil
				}
				if err := q.Enqueue(th, r.Int63()); err != nil {
					failed.Store(true)
					return fmt.Errorf("queue producer %d op %d: %w", th, i, err)
				}
				outstanding.Add(1)
				commits.Add(1)
			}
			return nil
		}
		for consumed.Load() < target && !failed.Load() {
			_, ok, err := q.Dequeue(th)
			if err != nil {
				failed.Store(true)
				return fmt.Errorf("queue consumer %d: %w", th, err)
			}
			if !ok {
				runtime.Gosched()
				continue
			}
			outstanding.Add(-1)
			consumed.Add(1)
			commits.Add(1)
		}
		return nil
	})
	return settle(tm, heap, dsArena, commits.Load(), werr)
}

// mapRegs sizes map churn and the rehash storm: the demand of `keys`
// resident pairs in any map implementation, floored at 1<<17.
func mapRegs(threads, keys int) int {
	demand := append(stmds.MapDemand(keys), stmds.SkipMapDemand(keys)...)
	demand = append(demand, stmds.HashMapDemand(keys)...)
	return max(dsMapArena+stmalloc.RegsForDemand(8, threads, 0, demand), 1<<17)
}

// mapChurn: `threads` workers each run `ops` get/put/delete (60/20/20)
// on one ordered map ("map", "skip" or "hash") prefilled to the target
// live set, keys from twice that window, values k↦k.
func mapChurn(tm core.TM, h churnHeap, ds string, threads, ops, live int, seed int64) (churnStats, error) {
	alloc, heap, err := churnAlloc(tm, h, threads, dsMapArena)
	if err != nil {
		return churnStats{}, err
	}
	var m stmds.OrderedMap
	switch ds {
	case "skip":
		m = stmds.NewSkipMap(tm, dsMapHead, threads, alloc)
	case "map":
		m = stmds.NewMap(tm, dsRegHead, alloc)
	case "hash":
		m = stmds.NewHashMap(tm, dsMapHead, alloc)
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
	return settle(tm, heap, dsMapArena, commits.Load(), werr)
}

// rehashStorm: `threads` workers each insert `ops` distinct keys
// (thread-partitioned, nothing deleted) into one hash map that starts
// at its initial 16 buckets, so the table doubles many times, each
// doubling one privatized cycle racing the other writers.
func rehashStorm(tm core.TM, h churnHeap, threads, ops int) (churnStats, error) {
	alloc, heap, err := churnAlloc(tm, h, threads, dsMapArena)
	if err != nil {
		return churnStats{}, err
	}
	hm := stmds.NewHashMap(tm, dsMapHead, alloc)
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
	return settle(tm, heap, dsMapArena, commits.Load(), werr)
}

// TestSetChurnAllTMs runs set churn on every TM × heap shape: every run
// must complete, and a reclaiming heap must reclaim in a footprint that
// does not grow with the op count.
func TestSetChurnAllTMs(t *testing.T) {
	ops := 400
	if testing.Short() {
		ops = 150
	}
	for _, tmName := range engine.TMs() {
		for _, shape := range []heapShape{bump, perFree, magazine} {
			t.Run(shape.row(tmName), func(t *testing.T) {
				tm, h := churnTM(t, tmName, shape, 1<<16, 4)
				st, err := setChurn(tm, h, 4, ops, 64, 3)
				if err != nil {
					t.Fatal(err)
				}
				if st.commits != int64(4*ops) {
					t.Fatalf("commits %d, want %d", st.commits, 4*ops)
				}
				if st.heapRegs <= 0 {
					t.Fatalf("no footprint reported: %+v", st)
				}
				if shape.reclaims {
					if st.frees == 0 {
						t.Fatalf("reclaiming run reclaimed nothing: %+v", st)
					}
					// The bump footprint of this traffic is ~2 regs per
					// insert; a reclaiming run stays under one per op.
					if st.heapRegs > int64(4*ops) {
						t.Fatalf("reclaiming footprint %d regs not bounded (%d ops)", st.heapRegs, 4*ops)
					}
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

// TestMapChurnAllTMs runs map churn on the sorted-list Map, the
// skiplist SkipMap and the chained HashMap over the reclaiming
// allocator: every TM × ds × heap shape must complete with full commit
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
			for _, ds := range []string{"map", "skip", "hash"} {
				t.Run(shape.row(tmName)+"/ds="+ds, func(t *testing.T) {
					tm, h := churnTM(t, tmName, shape, mapRegs(4, 4096), 4)
					st, err := mapChurn(tm, h, ds, 4, ops, 64, 7)
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
	// The bump contrast completes at this size (and leaks by design).
	tm, h := churnTM(t, "tl2", bump, mapRegs(2, 4096), 2)
	st, err := mapChurn(tm, h, "skip", 2, 100, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st.frees != 0 || st.heapRegs == 0 {
		t.Fatalf("bump run should leak into a growing footprint: %+v", st)
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
			tm, h := churnTM(t, r.spec, r.shape, mapRegs(threads, 1<<13), threads)
			st, err := rehashStorm(tm, h, threads, ops)
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

// TestQueuePipeAllTMs streams values through a queue over a per-free
// heap on every TM: all values pass, and the drained queue holds no
// live blocks.
func TestQueuePipeAllTMs(t *testing.T) {
	ops := 300
	if testing.Short() {
		ops = 100
	}
	for _, tmName := range engine.TMs() {
		t.Run(perFree.row(tmName), func(t *testing.T) {
			tm, h := churnTM(t, tmName, perFree, 1<<16, 4)
			st, err := queuePipe(tm, h, 4, ops, 32, 5)
			if err != nil {
				t.Fatal(err)
			}
			// 2 producers × ops enqueues + as many dequeues.
			if want := int64(2 * 2 * ops); st.commits != want {
				t.Fatalf("commits %d, want %d", st.commits, want)
			}
			if st.allocs != st.frees {
				t.Fatalf("drained pipe leaks: allocs %d, frees %d", st.allocs, st.frees)
			}
		})
	}
}

// TestChurnBoundedSpace is the end-to-end contrast: on the same small
// TM, the same churn traffic exhausts the bump allocator with the
// typed ErrOutOfSpace, while the reclaiming heap completes it in a
// bounded register footprint — the paper's privatization idiom is what
// makes long-running dynamic workloads possible at all.
func TestChurnBoundedSpace(t *testing.T) {
	const regs = 2048
	const threads, ops = 4, 2000 // ~4k inserts × 2 regs ≫ 2048 registers
	run := func(shape heapShape) (churnStats, error) {
		tm, h := churnTM(t, "tl2", shape, regs, threads)
		return setChurn(tm, h, threads, ops, 64, 9)
	}
	if _, err := run(bump); !errors.Is(err, stmds.ErrOutOfSpace) {
		t.Fatalf("bump churn past the arena returned %v, want ErrOutOfSpace", err)
	}
	st, err := run(perFree)
	if err != nil {
		t.Fatalf("reclaiming churn failed where it must reclaim: %v", err)
	}
	if st.heapRegs >= regs/2 {
		t.Fatalf("reclaiming footprint %d regs is not bounded well below the %d-reg arena", st.heapRegs, regs)
	}
	if st.frees == 0 {
		t.Fatal("reclaiming churn reclaimed nothing")
	}
	t.Logf("bump: ErrOutOfSpace; per-free heap: %d ops in %d regs (allocs %d, frees %d)",
		threads*ops, st.heapRegs, st.allocs, st.frees)
}

// TestSetChurnUnsafeFenceFallback: on the nofence spec the per-free
// heap reclaims through its fully transactional fallback (no grace
// period to ride); the run must still complete and reclaim.
func TestSetChurnUnsafeFenceFallback(t *testing.T) {
	tm, h := churnTM(t, "tl2+nofence", perFree, 1<<16, 4)
	if !h.txnFree {
		t.Fatal("tl2+nofence did not select the transactional free")
	}
	st, err := setChurn(tm, h, 4, 200, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.frees == 0 {
		t.Fatalf("transactional-fallback run reclaimed nothing: %+v", st)
	}
}
