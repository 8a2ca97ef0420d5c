package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"safepriv/internal/core"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
)

// Register layout of the data-structure workloads: a few pointer
// registers at the front, the allocator arena after them. Register 0
// stays unused (nil).
const (
	dsRegHead  = 1 // set/map head
	dsRegQHead = 2 // queue head
	dsRegQTail = 3 // queue tail
	dsRegBump  = 4 // bump allocator counter
	dsArena    = 8 // first arena register (set-churn, queue-pipe)
	// map-churn layout: the skiplist head block needs SkipHeadRegs
	// consecutive registers, so its arena starts after them (rounded to
	// a cache line of registers). The hash map's 8-register head shares
	// the region (one run builds one structure).
	dsSkipHead = 8  // skiplist head block: [8, 8+stmds.SkipHeadRegs)
	dsHashHead = 8  // hash-map head block: [8, 8+stmds.HashHeadRegs)
	dsMapArena = 32 // first arena register for map-churn
)

// Named rejections for the Params.DS / Params.Scan vocabularies. The
// workloads validate both axes up front — before any allocator is
// built — so an unknown string is a usage error callers can errors.Is
// against, never a silent fall-through to a default implementation.
var (
	// ErrUnknownDS rejects a Params.DS value outside the workload's
	// vocabulary (map-churn: skip, map, hash; scan-churn: skip, map, kv).
	ErrUnknownDS = errors.New("workload: unknown data-structure implementation")
	// ErrUnknownScan rejects a Params.Scan value outside scan-churn's
	// vocabulary (snapshot, window).
	ErrUnknownScan = errors.New("workload: unknown scan mode")
)

// dsAllocator builds the allocator selected by Params.Alloc over tm's
// registers [arena, NumRegs): the stmds bump allocator ("", "bump"),
// or the stmalloc reclaiming heap ("quiesce"). On quiesce the returned
// heap is non-nil; reclaim latency lands in hist. Params.Reclaim =
// "batch" adds the per-thread magazine layer (thread-local caches,
// whole magazines retired under one shared grace period) for the
// worker thread ids. Params.UnsafeFence switches the heap to fully
// transactional reclamation (the fallback for nofence/skipro TMs,
// whose FenceAsync gives no grace period) and disables magazines —
// there is no grace period for a batch to amortize.
func dsAllocator(tm core.TM, p Params, hist *Hist, arena int) (stmds.Allocator, *stmalloc.Heap, error) {
	switch p.Alloc {
	case "", "bump":
		return stmds.NewAlloc(tm, dsRegBump, arena, tm.NumRegs()), nil, nil
	case "quiesce":
		shards := p.Threads
		if shards > 8 {
			shards = 8
		}
		if shards < 1 {
			shards = 1
		}
		opts := []stmalloc.Option{
			stmalloc.WithShards(shards),
			stmalloc.WithLatencyRecorder(hist),
		}
		switch p.Reclaim {
		case "", "free":
		case "batch":
			if !p.UnsafeFence {
				opts = append(opts, stmalloc.WithMagazines(p.Threads, 0))
			}
		default:
			return nil, nil, fmt.Errorf("workload: unknown reclaim granularity %q (want free or batch)", p.Reclaim)
		}
		if p.UnsafeFence {
			opts = append(opts, stmalloc.WithTransactionalFree())
		}
		heap, err := stmalloc.New(tm, arena, tm.NumRegs(), opts...)
		if err != nil {
			return nil, nil, err
		}
		return heap, heap, nil
	}
	return nil, nil, fmt.Errorf("workload: unknown allocator %q (want bump or quiesce)", p.Alloc)
}

// dsFinish settles the allocator and fills the allocator-side Stats:
// reclaim latency, steady-state register footprint, and the exact
// alloc/free counters (transactional, so aborted attempts don't
// count).
func dsFinish(st *Stats, heap *stmalloc.Heap, alloc stmds.Allocator, hist *Hist) error {
	if heap != nil {
		if err := heap.Drain(1); err != nil {
			return err
		}
		hs := heap.Stats()
		st.HeapRegs = hs.BumpRegs
		st.Allocs, st.Frees = hs.Allocs, hs.Frees
		st.MagCached = hs.MagAlloc + hs.MagFree
		st.ReclaimBatches = hs.Batches
		st.ReclaimLatency = hist
		return nil
	}
	if b, ok := alloc.(*stmds.Alloc); ok {
		st.HeapRegs = b.Footprint()
	}
	return nil
}

// SetChurn runs the dynamic-set churn workload: p.Threads workers each
// perform p.Ops operations on one sorted-list set, drawing keys from a
// window of twice the target live-set size (p.LiveSet) and choosing
// insert or remove with equal probability — so the set hovers around
// the target while nodes are allocated and unlinked continuously. On a
// reclaiming allocator (p.Alloc = "quiesce") every successful remove
// rides the privatization idiom through stmalloc and the register
// footprint stays bounded for any op count; on the bump allocator the
// footprint grows with every insert until the arena is exhausted
// (stmds.ErrOutOfSpace).
func SetChurn(tm core.TM, p Params) (Stats, error) {
	threads, ops := p.Threads, p.Ops
	hist := new(Hist)
	alloc, heap, err := dsAllocator(tm, p, hist, dsArena)
	if err != nil {
		return Stats{}, err
	}
	set := stmds.NewSet(tm, dsRegHead, alloc)
	live := p.LiveSet
	if live <= 0 {
		live = 128
	}
	keyspace := int64(2 * live)
	c := newCounter(threads)
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for th := 1; th <= threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(p.Seed + int64(th)*1777))
			for i := 0; i < ops; i++ {
				k := 1 + r.Int63n(keyspace)
				var err error
				if r.Intn(2) == 0 {
					_, err = set.Insert(th, k)
				} else {
					_, err = set.Remove(th, k)
				}
				if err != nil {
					errs <- fmt.Errorf("set-churn worker %d op %d: %w", th, i, err)
					return
				}
				c.slots[th].commits++
			}
		}(th)
	}
	wg.Wait()
	close(errs)
	st := c.runStats(tm)
	if err := dsFinish(&st, heap, alloc, hist); err != nil {
		return st, err
	}
	for err := range errs {
		return st, err
	}
	return st, nil
}

// QueuePipe runs the producer/consumer pipeline workload: half of
// p.Threads enqueue p.Ops values each onto one transactional FIFO
// queue, the other half dequeue until everything has passed through.
// The queue depth is throttled to the live-set knob (p.LiveSet), so on
// a reclaiming allocator the workload streams any number of values
// through a bounded register footprint — every dequeue frees its node
// after the dequeuing transaction commits.
func QueuePipe(tm core.TM, p Params) (Stats, error) {
	threads, ops := p.Threads, p.Ops
	if threads < 2 {
		return Stats{}, fmt.Errorf("workload: queue-pipe needs ≥2 threads (half produce, half consume)")
	}
	hist := new(Hist)
	alloc, heap, err := dsAllocator(tm, p, hist, dsArena)
	if err != nil {
		return Stats{}, err
	}
	q := stmds.NewQueue(tm, dsRegQHead, dsRegQTail, alloc)
	depth := int64(p.LiveSet)
	if depth <= 0 {
		depth = 64
	}
	producers := (threads + 1) / 2
	consumers := threads - producers
	target := int64(producers) * int64(ops)
	var outstanding, consumed atomic.Int64
	var failed atomic.Bool
	c := newCounter(threads)
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for pr := 1; pr <= producers; pr++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(p.Seed + int64(th)*911))
			for i := 0; i < ops; i++ {
				for outstanding.Load() >= depth && !failed.Load() {
					runtime.Gosched()
				}
				if failed.Load() {
					return
				}
				if err := q.Enqueue(th, r.Int63()); err != nil {
					failed.Store(true)
					errs <- fmt.Errorf("queue-pipe producer %d op %d: %w", th, i, err)
					return
				}
				outstanding.Add(1)
				c.slots[th].commits++
			}
		}(pr)
	}
	for co := 1; co <= consumers; co++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for consumed.Load() < target && !failed.Load() {
				_, ok, err := q.Dequeue(th)
				if err != nil {
					failed.Store(true)
					errs <- fmt.Errorf("queue-pipe consumer %d: %w", th, err)
					return
				}
				if !ok {
					runtime.Gosched()
					continue
				}
				outstanding.Add(-1)
				consumed.Add(1)
				c.slots[th].commits++
			}
		}(producers + co)
	}
	wg.Wait()
	close(errs)
	st := c.runStats(tm)
	if err := dsFinish(&st, heap, alloc, hist); err != nil {
		return st, err
	}
	for err := range errs {
		return st, err
	}
	return st, nil
}

// MapChurn runs the ordered-map churn workload: p.Threads workers each
// perform p.Ops get/put/delete operations (60/20/20 — the read-mostly
// point-op mix of a lookup-serving front-end, with equal put and
// delete shares so the live set stays at its target) against ONE
// ordered map — the sorted-list Map, the skiplist SkipMap, or the
// chained HashMap (O(1) point ops with incremental privatized rehash),
// selected by Params.DS — drawing keys from a window of twice the
// target live size (p.LiveSet). Values follow the k↦k convention so
// concurrent readers can assert consistency. The map is prefilled to
// the target size (even keys) on thread 1 before the workers start. On
// a reclaiming allocator every delete retires a whole node — for
// SkipMap a whole tower, 4 to 32 registers under one grace period or
// magazine slot.
func MapChurn(tm core.TM, p Params) (Stats, error) {
	threads, ops := p.Threads, p.Ops
	switch p.DS {
	case "", "skip", "map", "hash":
	default:
		return Stats{}, fmt.Errorf("%w: map-churn %q (want skip, map, or hash)", ErrUnknownDS, p.DS)
	}
	hist := new(Hist)
	alloc, heap, err := dsAllocator(tm, p, hist, dsMapArena)
	if err != nil {
		return Stats{}, err
	}
	var m stmds.OrderedMap
	switch p.DS {
	case "", "skip":
		m = stmds.NewSkipMap(tm, dsSkipHead, threads, alloc)
	case "map":
		m = stmds.NewMap(tm, dsRegHead, alloc)
	case "hash":
		m = stmds.NewHashMap(tm, dsHashHead, alloc)
	}
	live := p.LiveSet
	if live <= 0 {
		live = 256
	}
	keyspace := int64(2 * live)
	for k := int64(2); k <= keyspace; k += 2 {
		if _, err := m.Put(1, k, k); err != nil {
			return Stats{}, fmt.Errorf("map-churn prefill key %d: %w", k, err)
		}
	}
	if hm, ok := m.(*stmds.HashMap); ok {
		// Finish the prefill's growth before the workers start, so the
		// churn opens on a settled table rather than on the tail of the
		// prefill's rehash (stripe fences and slow-path routing). Growth
		// triggered BY the churn still runs beside it.
		if err := hm.DrainRehash(1); err != nil {
			return Stats{}, fmt.Errorf("map-churn prefill rehash drain: %w", err)
		}
	}
	c := newCounter(threads)
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for th := 1; th <= threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(p.Seed + int64(th)*2399))
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
					errs <- fmt.Errorf("map-churn worker %d op %d: %w", th, i, err)
					return
				}
				c.slots[th].commits++
			}
		}(th)
	}
	wg.Wait()
	close(errs)
	st := c.runStats(tm)
	if hm, ok := m.(*stmds.HashMap); ok {
		// Settle any in-progress incremental rehash before the allocator
		// stats: mid-rehash both bucket arrays are live, so the footprint
		// and alloc/free counters would describe a transient.
		if err := hm.DrainRehash(1); err != nil {
			return st, err
		}
	}
	if err := dsFinish(&st, heap, alloc, hist); err != nil {
		return st, err
	}
	for err := range errs {
		return st, err
	}
	return st, nil
}

// RehashStorm runs the table-growth stress: p.Threads workers insert
// p.Ops DISTINCT keys each (thread-partitioned key ranges, so every
// put adds a pair and nothing is ever deleted) into one stmds.HashMap
// that starts at its initial 16 buckets. The table must double
// ~log2(threads×ops/8) times during the run, every doubling migrated
// stripe-by-stripe through the cooperative incremental rehash, so no
// insert ever waits out a stop-the-world copy.
// Stats.Telemetry.RehashWindows counts the migration windows.
func RehashStorm(tm core.TM, p Params) (Stats, error) {
	threads, ops := p.Threads, p.Ops
	if p.DS != "" && p.DS != "hash" {
		return Stats{}, fmt.Errorf("%w: rehash-storm %q (the storm is hash-map growth; want hash)", ErrUnknownDS, p.DS)
	}
	hist := new(Hist)
	alloc, heap, err := dsAllocator(tm, p, hist, dsMapArena)
	if err != nil {
		return Stats{}, err
	}
	hm := stmds.NewHashMap(tm, dsHashHead, alloc)
	c := newCounter(threads)
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for th := 1; th <= threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			base := int64(th) << 32
			for i := 0; i < ops; i++ {
				k := base + int64(i)
				added, err := hm.Put(th, k, k)
				if err != nil {
					errs <- fmt.Errorf("rehash-storm worker %d op %d: %w", th, i, err)
					return
				}
				if !added {
					errs <- fmt.Errorf("rehash-storm worker %d op %d: fresh key %d already present", th, i, k)
					return
				}
				c.slots[th].commits++
			}
		}(th)
	}
	wg.Wait()
	close(errs)
	st := c.runStats(tm)
	if err := hm.DrainRehash(1); err != nil {
		return st, err
	}
	if err := dsFinish(&st, heap, alloc, hist); err != nil {
		return st, err
	}
	for err := range errs {
		return st, err
	}
	return st, nil
}
