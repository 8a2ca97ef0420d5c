package stmalloc_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/core/coretest"
	"safepriv/internal/engine"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
	"safepriv/internal/telemetry"
)

// alloc runs one allocating transaction on thread th.
func alloc(t *testing.T, tm core.TM, h *stmalloc.Heap, th, n int) int64 {
	t.Helper()
	var ptr int64
	err := core.Atomically(tm, th, func(tx core.Txn) error {
		var err error
		ptr, err = h.New(tx, th, n)
		return err
	})
	if err != nil {
		t.Fatalf("alloc(%d): %v", n, err)
	}
	return ptr
}

func TestAllocFreeReuse(t *testing.T) {
	tm := engine.MustNewSpec("tl2", 1<<10, 3, nil)
	h, err := stmalloc.New(tm, 8, tm.NumRegs(), stmalloc.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	// Allocate, free, drain, and re-allocate the same class many times:
	// the footprint must stay at one block per class per live holder,
	// not grow with the iteration count.
	var last int64 = -1
	for i := 0; i < 200; i++ {
		p := alloc(t, tm, h, 1, 2)
		tm.Store(1, int(p), int64(i))
		tm.Store(1, int(p)+1, int64(i))
		h.Free(1, p, 2)
		if err := h.Drain(1); err != nil {
			t.Fatal(err)
		}
		last = p
	}
	_ = last
	st := h.Stats()
	if st.Allocs != 200 || st.Frees != 200 || st.Live != 0 {
		t.Fatalf("stats %+v after 200 alloc/free cycles", st)
	}
	if st.BumpRegs > 8 {
		t.Fatalf("footprint %d regs after 200 serial alloc/free cycles of one 2-reg block", st.BumpRegs)
	}
}

func TestFreeWipesBlock(t *testing.T) {
	tm := engine.MustNewSpec("tl2", 1<<10, 3, nil)
	h, err := stmalloc.New(tm, 8, tm.NumRegs(), stmalloc.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	p := alloc(t, tm, h, 1, 4)
	for i := 0; i < 4; i++ {
		tm.Store(1, int(p)+i, 0x5a)
	}
	h.Free(1, p, 4)
	if err := h.Drain(1); err != nil {
		t.Fatal(err)
	}
	q := alloc(t, tm, h, 1, 4)
	if q != p {
		t.Fatalf("free list did not recycle: got %d, freed %d", q, p)
	}
	// The wipe zeroes everything but the link register (block+0).
	for i := 1; i < 4; i++ {
		if v := tm.Load(1, int(q)+i); v != 0 {
			t.Fatalf("reg %d of recycled block = %d, want 0", i, v)
		}
	}
}

func TestOutOfSpace(t *testing.T) {
	tm := engine.MustNewSpec("tl2", 64, 2, nil)
	h, err := stmalloc.New(tm, 8, 40, stmalloc.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	var got error
	for i := 0; i < 100; i++ {
		err := core.Atomically(tm, 1, func(tx core.Txn) error {
			_, err := h.New(tx, 1, 2)
			return err
		})
		if err != nil {
			got = err
			break
		}
	}
	if !errors.Is(got, stmalloc.ErrOutOfSpace) {
		t.Fatalf("exhaustion error = %v, want ErrOutOfSpace", got)
	}
	// Oversized requests are typed the same way.
	err = core.Atomically(tm, 1, func(tx core.Txn) error {
		_, err := h.New(tx, 1, stmalloc.MaxBlockRegs*2)
		return err
	})
	if !errors.Is(err, stmalloc.ErrOutOfSpace) {
		t.Fatalf("oversized request error = %v, want ErrOutOfSpace", err)
	}
}

func TestAbortedAllocationRollsBack(t *testing.T) {
	tm := engine.MustNewSpec("tl2", 1<<10, 2, nil)
	h, err := stmalloc.New(tm, 8, tm.NumRegs())
	if err != nil {
		t.Fatal(err)
	}
	tx := tm.Begin(1)
	if _, err := h.New(tx, 1, 8); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if st := h.Stats(); st.Allocs != 0 || st.BumpRegs != 0 {
		t.Fatalf("aborted allocation leaked: %+v", st)
	}
}

// reclaimSpecs is every TM (tl2 and norec under -short): the leak
// accounting invariant must hold on all of them.
func reclaimSpecs(short bool) []string {
	if short {
		return []string{"tl2", "norec"}
	}
	return engine.TMs()
}

// retiredSpecs crosses reclaimSpecs with the modifiers of the
// coalescing and deferred fence modes, which the engine no longer has:
// the paper has one safe fence. The suites that ran on every TM × fence
// mode keep a row per retired spec, pinning that a heap can no longer be
// configured for one.
func retiredSpecs(short bool) []string {
	var out []string
	for _, tm := range reclaimSpecs(short) {
		out = append(out, tm+"+combine", tm+"+defer")
	}
	return out
}

// requireRefused fails unless the engine refuses spec for naming an
// unknown modifier.
func requireRefused(t *testing.T, spec string) {
	t.Helper()
	if _, err := engine.NewSpec(spec, 1<<10, 2, nil); err == nil || !strings.Contains(err.Error(), "unknown modifier") {
		t.Fatalf("NewSpec(%q) = %v, want an unknown-modifier error", spec, err)
	}
}

// TestLeakAccountingChurn is the allocator's core invariant, on every
// reclaiming spec: after N concurrent insert/remove churn rounds on a
// set built over the heap, plus a Drain, allocated-minus-freed blocks
// equal the live set size exactly — nothing leaked, nothing
// double-freed. Run under -race in CI.
func TestLeakAccountingChurn(t *testing.T) {
	const threads = 4
	rounds := 300
	if testing.Short() {
		rounds = 100
	}
	for _, spec := range reclaimSpecs(testing.Short()) {
		t.Run(spec, func(t *testing.T) {
			tm := engine.MustNewSpec(spec, 1<<13, threads, nil)
			h, err := stmalloc.New(tm, 8, tm.NumRegs(), stmalloc.WithShards(threads))
			if err != nil {
				t.Fatal(err)
			}
			set := stmds.NewSet(tm, 1, h)
			var wg sync.WaitGroup
			errs := make(chan error, threads)
			for th := 1; th <= threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(th) * 99))
					for i := 0; i < rounds; i++ {
						k := int64(r.Intn(120) + 1)
						var err error
						if r.Intn(2) == 0 {
							_, err = set.Insert(th, k)
						} else {
							_, err = set.Remove(th, k)
						}
						if err != nil {
							errs <- fmt.Errorf("thread %d round %d: %w", th, i, err)
							return
						}
					}
				}(th)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := h.Drain(1); err != nil {
				t.Fatal(err)
			}
			snap, err := set.Snapshot(1)
			if err != nil {
				t.Fatal(err)
			}
			st := h.Stats()
			if st.Live != int64(len(snap)) {
				t.Fatalf("allocs-frees = %d, live set size %d (stats %+v)", st.Live, len(snap), st)
			}
			if st.PendingFrees != 0 {
				t.Fatalf("pending frees %d after Drain", st.PendingFrees)
			}
		})
	}
	for _, spec := range retiredSpecs(testing.Short()) {
		t.Run(spec, func(t *testing.T) { requireRefused(t, spec) })
	}
}

// TestTransactionalFreeFallback exercises the nofence escape hatch:
// with WithTransactionalFree, reclamation never rides the fence, so it
// stays safe on a TM whose fence is a no-op. The leak invariant and
// the set contents must still hold.
func TestTransactionalFreeFallback(t *testing.T) {
	for _, spec := range []string{"tl2+nofence", "wtstm+nofence", "tl2"} {
		t.Run(spec, func(t *testing.T) {
			const threads = 4
			tm := engine.MustNewSpec(spec, 1<<13, threads+1, nil)
			h, err := stmalloc.New(tm, 8, tm.NumRegs(),
				stmalloc.WithShards(2), stmalloc.WithTransactionalFree())
			if err != nil {
				t.Fatal(err)
			}
			set := stmds.NewSet(tm, 1, h)
			var wg sync.WaitGroup
			errs := make(chan error, threads)
			for th := 1; th <= threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(th) * 7))
					for i := 0; i < 200; i++ {
						k := int64(r.Intn(64) + 1)
						var err error
						if r.Intn(2) == 0 {
							_, err = set.Insert(th, k)
						} else {
							_, err = set.Remove(th, k)
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}(th)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := h.Drain(1); err != nil {
				t.Fatal(err)
			}
			snap, err := set.Snapshot(1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(snap); i++ {
				if snap[i] <= snap[i-1] {
					t.Fatalf("set unsorted after churn: %v", snap)
				}
			}
			if st := h.Stats(); st.Live != int64(len(snap)) {
				t.Fatalf("allocs-frees = %d, live %d", st.Live, len(snap))
			}
		})
	}
}

// TestBoundedFootprintUnderChurn pins the reclamation payoff at the
// allocator level: serial churn far past the arena's bump capacity
// succeeds with a bounded footprint, while the same traffic over the
// same arena on the stmds bump allocator runs out of space.
func TestBoundedFootprintUnderChurn(t *testing.T) {
	// ~4000 inserts = 8000 registers of traffic through a <1024-reg
	// arena.
	churn := func(tm core.TM, alloc stmds.Allocator) error {
		set := stmds.NewSet(tm, 1, alloc)
		r := rand.New(rand.NewSource(5))
		for i := 0; i < 8000; i++ {
			k := int64(r.Intn(40) + 1)
			var err error
			if r.Intn(2) == 0 {
				_, err = set.Insert(1, k)
			} else {
				_, err = set.Remove(1, k)
			}
			if err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
		return nil
	}
	bumpTM := engine.MustNewSpec("tl2", 1<<10, 2, nil)
	if err := churn(bumpTM, stmds.NewAlloc(bumpTM, 2, 8, bumpTM.NumRegs())); !errors.Is(err, stmds.ErrOutOfSpace) {
		t.Fatalf("bump churn past the arena returned %v, want ErrOutOfSpace", err)
	}
	tm := engine.MustNewSpec("tl2", 1<<10, 2, nil)
	h, err := stmalloc.New(tm, 8, tm.NumRegs(), stmalloc.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := churn(tm, h); err != nil {
		t.Fatalf("reclaiming churn failed where it must reuse: %v", err)
	}
	if err := h.Drain(1); err != nil {
		t.Fatal(err)
	}
	if fp := h.Footprint(); fp > 256 {
		t.Fatalf("footprint %d regs after 8k churn ops over ≤40 live keys", fp)
	}
}

// --- Magazine layer ---

// TestMagazineChurnLeakAccounting is TestLeakAccountingChurn on the
// batch path: concurrent set churn over a magazine heap on every TM,
// with a concurrent Drain/FreeQuiesced interferer — the
// interleaving that would expose a double count between the per-Free
// push, the batch retire, and a flush taking the same chain. After the
// final Drain, Allocs-Frees must equal the live set exactly and the
// amortization must be real (fewer batches than frees). Run under
// -race in CI.
func TestMagazineChurnLeakAccounting(t *testing.T) {
	const threads = 4
	rounds := 300
	if testing.Short() {
		rounds = 100
	}
	for _, spec := range reclaimSpecs(testing.Short()) {
		t.Run(spec, func(t *testing.T) {
			// threads workers + 1 interferer, all with magazines.
			tm := engine.MustNewSpec(spec, 1<<13, threads+1, nil)
			h, err := stmalloc.New(tm, 8, tm.NumRegs(),
				stmalloc.WithShards(threads), stmalloc.WithMagazines(threads+1, 4))
			if err != nil {
				t.Fatal(err)
			}
			set := stmds.NewSet(tm, 1, h)
			var wg sync.WaitGroup
			errs := make(chan error, threads+1)
			for th := 1; th <= threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(th) * 99))
					for i := 0; i < rounds; i++ {
						k := int64(r.Intn(120) + 1)
						var err error
						if r.Intn(2) == 0 {
							_, err = set.Insert(th, k)
						} else {
							_, err = set.Remove(th, k)
						}
						if err != nil {
							errs <- fmt.Errorf("thread %d round %d: %w", th, i, err)
							return
						}
					}
				}(th)
			}
			// Interferer: FreeQuiesced traffic racing mid-churn Drains
			// and FlushThreads on the same magazines the workers fill.
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := threads + 1
				for i := 0; i < rounds/10; i++ {
					var ptr int64
					err := core.Atomically(tm, th, func(tx core.Txn) error {
						var err error
						ptr, err = h.New(tx, th, 2)
						return err
					})
					if err != nil {
						errs <- fmt.Errorf("interferer alloc %d: %w", i, err)
						return
					}
					h.FreeQuiesced(th, ptr, 2)
					switch i % 3 {
					case 0:
						if err := h.Drain(th); err != nil {
							errs <- fmt.Errorf("mid-churn drain %d: %w", i, err)
							return
						}
					case 1:
						h.FlushThread(th)
					}
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := h.Drain(1); err != nil {
				t.Fatal(err)
			}
			snap, err := set.Snapshot(1)
			if err != nil {
				t.Fatal(err)
			}
			st := h.Stats()
			if st.Live != int64(len(snap)) {
				t.Fatalf("allocs-frees = %d, live set size %d (stats %+v)", st.Live, len(snap), st)
			}
			if st.PendingFrees != 0 {
				t.Fatalf("pending frees %d after Drain", st.PendingFrees)
			}
			if st.MagFree != 0 {
				t.Fatalf("%d frees still parked after Drain", st.MagFree)
			}
			if st.Frees > 0 && st.Batches >= st.Frees {
				t.Fatalf("%d batches for %d frees: retires are not amortizing", st.Batches, st.Frees)
			}
		})
	}
	for _, spec := range retiredSpecs(testing.Short()) {
		t.Run(spec, func(t *testing.T) { requireRefused(t, spec) })
	}
}

// TestMagazineBoundedFootprint pins the batch path's space story: churn
// far past the arena's bump capacity stays bounded by live set +
// magazine capacity.
func TestMagazineBoundedFootprint(t *testing.T) {
	tm := engine.MustNewSpec("tl2", 1<<10, 3, nil)
	h, err := stmalloc.New(tm, 8, tm.NumRegs(),
		stmalloc.WithShards(1), stmalloc.WithMagazines(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	set := stmds.NewSet(tm, 1, h)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 8000; i++ {
		k := int64(r.Intn(40) + 1)
		var err error
		if r.Intn(2) == 0 {
			_, err = set.Insert(1, k)
		} else {
			_, err = set.Remove(1, k)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := h.Drain(1); err != nil {
		t.Fatal(err)
	}
	// ≤40 live 2-reg nodes + one magazine (8 alloc-side + 8 parked, 2
	// regs each) + retire slack.
	if fp := h.Footprint(); fp > 256 {
		t.Fatalf("footprint %d regs after 8k churn ops over ≤40 live keys", fp)
	}
}

// TestFlushThreadPartialMagazine is the thread-exit edge case: a worker
// leaves partially full magazines behind; FlushThread retires its
// parked frees (one batch) and returns its cache to the shard lists, so
// another thread reuses the registers instead of bumping fresh ones.
func TestFlushThreadPartialMagazine(t *testing.T) {
	tm := engine.MustNewSpec("tl2", 1<<10, 4, nil)
	h, err := stmalloc.New(tm, 8, tm.NumRegs(),
		stmalloc.WithShards(1), stmalloc.WithMagazines(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Thread 1: allocate 6 blocks, free 3 (parked — fewer than the
	// capacity 8, so no retire happens), keep 3 live, then exit.
	var live, freed []int64
	for i := 0; i < 6; i++ {
		p := alloc(t, tm, h, 1, 2)
		if i%2 == 0 {
			live = append(live, p)
		} else {
			freed = append(freed, p)
		}
	}
	for _, p := range freed {
		h.Free(1, p, 2)
	}
	st := h.Stats()
	if st.MagFree != int64(len(freed)) {
		t.Fatalf("expected %d parked frees, stats %+v", len(freed), st)
	}
	h.FlushThread(1)
	if err := h.Drain(2); err != nil {
		t.Fatal(err)
	}
	st = h.Stats()
	if st.MagFree != 0 || st.MagAlloc != 0 {
		t.Fatalf("magazines not empty after FlushThread+Drain: %+v", st)
	}
	if st.Live != int64(len(live)) {
		t.Fatalf("allocs-frees = %d, want %d live", st.Live, len(live))
	}
	// Thread 2 must reuse the flushed registers: footprint stays flat.
	before := h.Footprint()
	for i := 0; i < len(freed); i++ {
		alloc(t, tm, h, 2, 2)
	}
	if after := h.Footprint(); after != before {
		t.Fatalf("flushed blocks not reused: footprint %d -> %d", before, after)
	}
}

// TestOutOfSpaceWithParkedFrees is the exhaustion edge case: when the
// last blocks of the arena sit parked on a free-side magazine, New
// reports ErrOutOfSpace (parked frees have not quiesced and are never
// stolen) — and a FlushThread+Drain recovers them.
func TestOutOfSpaceWithParkedFrees(t *testing.T) {
	tm := engine.MustNewSpec("tl2", 512, 3, nil)
	h, err := stmalloc.New(tm, 8, tm.NumRegs(),
		stmalloc.WithShards(1), stmalloc.WithMagazines(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust the arena with 4-register blocks.
	var ptrs []int64
	for {
		var p int64
		err := core.Atomically(tm, 1, func(tx core.Txn) error {
			var err error
			p, err = h.New(tx, 1, 4)
			return err
		})
		if errors.Is(err, stmalloc.ErrOutOfSpace) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	if len(ptrs) < 3 {
		t.Fatalf("arena too small for the scenario: %d blocks", len(ptrs))
	}
	// Park two frees (below capacity: no retire).
	h.Free(1, ptrs[0], 4)
	h.Free(1, ptrs[1], 4)
	err = core.Atomically(tm, 1, func(tx core.Txn) error {
		_, err := h.New(tx, 1, 4)
		return err
	})
	if !errors.Is(err, stmalloc.ErrOutOfSpace) {
		t.Fatalf("allocation served while the only free blocks were parked: %v", err)
	}
	h.FlushThread(1)
	if err := h.Drain(1); err != nil {
		t.Fatal(err)
	}
	alloc(t, tm, h, 1, 4) // the flushed blocks are allocatable again
}

// TestMagazineSteal: when the shard lists and bump regions are empty
// but another thread's alloc-side cache holds quiesced blocks, New
// steals one instead of failing.
func TestMagazineSteal(t *testing.T) {
	tm := engine.MustNewSpec("tl2", 512, 3, nil)
	h, err := stmalloc.New(tm, 8, tm.NumRegs(),
		stmalloc.WithShards(1), stmalloc.WithMagazines(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Thread 1 drains the arena, then FreeQuiesced recycles two blocks
	// straight into its alloc-side cache.
	var ptrs []int64
	for {
		var p int64
		err := core.Atomically(tm, 1, func(tx core.Txn) error {
			var err error
			p, err = h.New(tx, 1, 4)
			return err
		})
		if errors.Is(err, stmalloc.ErrOutOfSpace) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	h.FreeQuiesced(1, ptrs[0], 4)
	h.FreeQuiesced(1, ptrs[1], 4)
	if st := h.Stats(); st.MagAlloc != 2 {
		t.Fatalf("FreeQuiesced did not cache: %+v", st)
	}
	// Thread 2 has nothing local and nothing shared — it must steal.
	p := alloc(t, tm, h, 2, 4)
	if p != ptrs[0] && p != ptrs[1] {
		t.Fatalf("allocated %d, want one of the cached blocks %v", p, ptrs[:2])
	}
	if st := h.Stats(); st.MagAlloc != 1 {
		t.Fatalf("steal did not come from the cache: %+v", st)
	}
}

// TestMagazinesRejectTransactionalFree: the two reclamation escapes are
// mutually exclusive — batching exists to amortize the fence the
// transactional fallback never takes.
func TestMagazinesRejectTransactionalFree(t *testing.T) {
	tm := engine.MustNewSpec("tl2", 1<<10, 3, nil)
	if _, err := stmalloc.New(tm, 8, tm.NumRegs(),
		stmalloc.WithMagazines(2, 4), stmalloc.WithTransactionalFree()); err == nil {
		t.Fatal("magazines + transactional free accepted")
	}
}

func TestBadArena(t *testing.T) {
	tm := engine.MustNewSpec("baseline", 64, 2, nil)
	if _, err := stmalloc.New(tm, 0, 64); err == nil {
		t.Fatal("arena containing register 0 accepted")
	}
	if _, err := stmalloc.New(tm, 8, 65); err == nil {
		t.Fatal("arena past NumRegs accepted")
	}
	if _, err := stmalloc.New(tm, 8, 8); err == nil {
		t.Fatal("empty arena accepted")
	}
}

// TestStealTakesHalf: exhaustion steals half the victim's cache in one
// conflict, not one block — the remainder lands in the thief's own
// cache so the next allocations pop locally.
func TestStealTakesHalf(t *testing.T) {
	tm := engine.MustNewSpec("tl2", 1024, 3, nil)
	h, err := stmalloc.New(tm, 8, tm.NumRegs(),
		stmalloc.WithShards(1), stmalloc.WithMagazines(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Thread 1 drains the arena, then recycles 6 quiesced blocks into
	// its alloc-side cache.
	var ptrs []int64
	for {
		var p int64
		err := core.Atomically(tm, 1, func(tx core.Txn) error {
			var err error
			p, err = h.New(tx, 1, 4)
			return err
		})
		if errors.Is(err, stmalloc.ErrOutOfSpace) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	if len(ptrs) < 6 {
		t.Fatalf("arena too small: %d blocks", len(ptrs))
	}
	for _, p := range ptrs[:6] {
		h.FreeQuiesced(1, p, 4)
	}
	if st := h.Stats(); st.MagAlloc != 6 {
		t.Fatalf("cache = %d, want 6", st.MagAlloc)
	}
	// Thread 2's first allocation must move half (3) out of thread 1's
	// cache: one serves the allocation, two seed thread 2's cache.
	_ = alloc(t, tm, h, 2, 4)
	if st := h.Stats(); st.MagAlloc != 5 {
		t.Fatalf("after steal, cached = %d, want 5 (3 left + 2 seeded)", st.MagAlloc)
	}
	// The next two thread-2 allocations hit its own cache: the victim's
	// remaining 3 cached blocks must not move.
	_ = alloc(t, tm, h, 2, 4)
	_ = alloc(t, tm, h, 2, 4)
	if st := h.Stats(); st.MagAlloc != 3 {
		t.Fatalf("after local pops, cached = %d, want 3", st.MagAlloc)
	}
	if st := h.Stats(); st.Allocs-st.Frees != int64(len(ptrs)-6+3) {
		t.Fatalf("leak accounting off: %+v", st)
	}
}

// TestHeapDrainSurfacesAsyncErrorOnce mirrors the stmkv regression: an
// async reclamation failure is returned by exactly one Drain and then
// cleared, so periodic drains in a long-lived process report recovery.
func TestHeapDrainSurfacesAsyncErrorOnce(t *testing.T) {
	tm := engine.MustNewSpec("tl2", 1+stmalloc.HeaderRegs(1)+256, 3, nil)
	h, err := stmalloc.New(tm, 1, tm.NumRegs(), stmalloc.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected reclamation failure")
	h.InjectAsyncErr(injected)
	if err := h.Drain(1); !errors.Is(err, injected) {
		t.Fatalf("first Drain = %v, want the injected error", err)
	}
	if err := h.Drain(1); err != nil {
		t.Fatalf("second Drain after recovery = %v, want nil (stale error resurfaced)", err)
	}
	h.InjectAsyncErr(injected)
	if err := h.Drain(1); !errors.Is(err, injected) {
		t.Fatalf("Drain after re-injection = %v, want the injected error", err)
	}
	if err := h.Drain(1); err != nil {
		t.Fatalf("final Drain = %v, want nil", err)
	}
}

// TestRegsForDemand pins the multi-size-class sizing arithmetic and
// its error convention, then proves the estimate is sufficient: a heap
// given exactly the returned budget must hold every demanded block
// live at once — with magazines parking their full stock — without
// ErrOutOfSpace.
func TestRegsForDemand(t *testing.T) {
	// Arithmetic, no magazines: blocks at their class roundup plus one
	// max-class slack block per shard, plus the shard headers.
	demand := []stmalloc.ClassDemand{{Regs: 3, Count: 10}, {Regs: 7, Count: 4}}
	got := stmalloc.RegsForDemand(2, 0, 0, demand)
	want := stmalloc.HeaderRegs(2) + 10*4 + 4*8 + 2*8
	if got != want {
		t.Fatalf("RegsForDemand = %d, want %d", got, want)
	}
	// Magazines add 2×cap blocks per demanded class per thread, plus
	// the magazine headers.
	got = stmalloc.RegsForDemand(2, 3, 2, demand)
	want += stmalloc.MagazineRegs(3) + 3*(2*2*4+2*2*8)
	if got != want {
		t.Fatalf("with magazines: RegsForDemand = %d, want %d", got, want)
	}
	// Unallocatable entries return 0, the BlockRegs convention.
	for name, bad := range map[string][]stmalloc.ClassDemand{
		"zero regs":      {{Regs: 0, Count: 1}},
		"oversize":       {{Regs: stmalloc.MaxBlockRegs + 1, Count: 1}},
		"negative count": {{Regs: 4, Count: -1}},
	} {
		if n := stmalloc.RegsForDemand(1, 0, 0, bad); n != 0 {
			t.Fatalf("%s: RegsForDemand = %d, want 0", name, n)
		}
	}
	// Sufficiency: a SkipMap-shaped demand profile, magazines on, heap
	// sized to the estimate exactly. Every demanded block must
	// allocate; frees then park in magazines without starving a
	// subsequent refill.
	const threads, magCap = 2, 2
	profile := []stmalloc.ClassDemand{
		{Regs: 4, Count: 12}, {Regs: 8, Count: 12}, {Regs: 16, Count: 6}, {Regs: 32, Count: 3},
	}
	budget := stmalloc.RegsForDemand(2, threads, magCap, profile)
	tm := engine.MustNewSpec("tl2", 1+budget, threads+2, nil)
	h, err := stmalloc.New(tm, 1, tm.NumRegs(),
		stmalloc.WithShards(2), stmalloc.WithMagazines(threads, magCap))
	if err != nil {
		t.Fatal(err)
	}
	var live []struct {
		ptr int64
		n   int
	}
	for _, d := range profile {
		for i := 0; i < d.Count; i++ {
			th := 1 + i%threads
			live = append(live, struct {
				ptr int64
				n   int
			}{alloc(t, tm, h, th, d.Regs), d.Regs})
		}
	}
	for i, b := range live {
		h.Free(1+i%threads, b.ptr, b.n)
	}
	if err := h.Drain(1); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Live != 0 {
		t.Fatalf("live = %d after freeing the whole profile: %+v", st.Live, st)
	}
}

// --- Parked frees: the magazine free path ---

// magHeap builds a one-shard magazine heap (capacity 8) for magazine
// threads 1..threads over a fresh TM of the given spec.
func magHeap(t *testing.T, spec string, threads int) (core.TM, *stmalloc.Heap) {
	t.Helper()
	tm := engine.MustNewSpec(spec, 1<<12, threads, nil)
	h, err := stmalloc.New(tm, 8, tm.NumRegs(),
		stmalloc.WithShards(1), stmalloc.WithMagazines(threads, 8))
	if err != nil {
		t.Fatal(err)
	}
	return tm, h
}

// TestMagazineParkedBlocksUntouched pins the parked-free contract: Free
// on a magazine thread writes nothing — every register of a parked
// block reads (uninstrumented) exactly what the caller left there until
// the Free that retires its batch — and once its grace period has run
// (here: after Drain) registers 1.. are wiped.
func TestMagazineParkedBlocksUntouched(t *testing.T) {
	for _, spec := range []string{"tl2"} {
		t.Run(spec, func(t *testing.T) {
			tm, h := magHeap(t, spec, 1)
			const n = 4
			var ptrs []int64
			for i := 0; i < 12; i++ {
				p := alloc(t, tm, h, 1, n)
				for r := 0; r < n; r++ {
					tm.Store(1, int(p)+r, 1000*int64(i)+int64(r)+1)
				}
				ptrs = append(ptrs, p)
			}
			untouched := func(blocks []int64) {
				t.Helper()
				for _, p := range blocks {
					i := slices.Index(ptrs, p)
					for r := 0; r < n; r++ {
						if v, want := tm.Load(1, int(p)+r), 1000*int64(i)+int64(r)+1; v != want {
							t.Fatalf("parked block %d reg %d = %d, want %d", p, r, v, want)
						}
					}
				}
			}
			wiped := func(blocks []int64) {
				t.Helper()
				for _, p := range blocks {
					for r := 1; r < n; r++ {
						if v := tm.Load(1, int(p)+r); v != 0 {
							t.Fatalf("reclaimed block %d reg %d = %d, want 0", p, r, v)
						}
					}
				}
			}
			// Capacity 8: the first eight frees park, the ninth retires.
			for i := 0; i < 8; i++ {
				h.Free(1, ptrs[i], n)
				untouched(ptrs[:i+1])
			}
			h.Free(1, ptrs[8], n)
			for i := 9; i < 12; i++ {
				h.Free(1, ptrs[i], n)
				untouched(ptrs[9 : i+1])
			}
			if err := h.Drain(1); err != nil {
				t.Fatal(err)
			}
			wiped(ptrs)
			if st := h.Stats(); st.Live != 0 || st.PendingFrees != 0 || st.MagFree != 0 {
				t.Fatalf("stats after Drain: %+v", st)
			}
		})
	}
}

// TestMagazineRecyclesToOwner: a retired batch lands on the freeing
// thread's own alloc-side cache. After one full retire on thread 1, its
// next capacity allocations are blocks of that batch, served without a
// magazine miss, and thread 2's cache is neither fed nor drained.
func TestMagazineRecyclesToOwner(t *testing.T) {
	tm, h := magHeap(t, "tl2", 2)
	// Thread 2 caches three blocks of its own.
	var own2 []int64
	for i := 0; i < 3; i++ {
		own2 = append(own2, alloc(t, tm, h, 2, 4))
	}
	for _, p := range own2 {
		h.FreeQuiesced(2, p, 4)
	}
	// Thread 1 frees a whole batch: eight park, the ninth retires it.
	var batch []int64
	for i := 0; i < 9; i++ {
		batch = append(batch, alloc(t, tm, h, 1, 4))
	}
	for _, p := range batch {
		h.Free(1, p, 4)
	}
	if st := h.Stats(); st.MagAlloc != 3+9 || st.MagFree != 0 || st.PendingFrees != 0 {
		t.Fatalf("after one retire: %+v, want MagAlloc=12 MagFree=0 PendingFrees=0", st)
	}
	slot := tm.(telemetry.Provider).TelemetryBoard().Slot(1)
	misses := slot.MagMisses.Load()
	for i := 0; i < 8; i++ {
		if p := alloc(t, tm, h, 1, 4); !slices.Contains(batch, p) {
			t.Fatalf("allocation %d on thread 1 = %d, not a block of its retired batch %v", i, p, batch)
		}
	}
	if got := slot.MagMisses.Load(); got != misses {
		t.Fatalf("thread 1 took %d magazine misses popping its recycled blocks", got-misses)
	}
	for i := 0; i < 3; i++ {
		if p := alloc(t, tm, h, 2, 4); !slices.Contains(own2, p) {
			t.Fatalf("thread 2 allocated %d, not one of its cached blocks %v", p, own2)
		}
	}
	if st := h.Stats(); st.MagAlloc != 1 {
		t.Fatalf("MagAlloc = %d, want the batch's one unpopped block", st.MagAlloc)
	}
}

// TestMagazineFlushThreadAfterRetire: a retired batch recycles into the
// freeing thread's alloc-side cache, and FlushThread must leave that
// cache empty: the recycled blocks and the thread's parked frees both go
// to the shard lists.
func TestMagazineFlushThreadAfterRetire(t *testing.T) {
	tm, h := magHeap(t, "tl2", 1)
	var ptrs []int64
	for i := 0; i < 12; i++ {
		ptrs = append(ptrs, alloc(t, tm, h, 1, 4))
	}
	for _, p := range ptrs { // one full batch retired, three parked
		h.Free(1, p, 4)
	}
	if st := h.Stats(); st.MagAlloc != 9 || st.MagFree != 3 {
		t.Fatalf("before FlushThread: %+v, want MagAlloc=9 MagFree=3", st)
	}
	h.FlushThread(1)
	if err := h.Drain(1); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.MagAlloc != 0 || st.MagFree != 0 || st.Live != 0 || st.PendingFrees != 0 {
		t.Fatalf("after FlushThread+Drain: %+v, want MagAlloc=0 MagFree=0 Live=0 PendingFrees=0", st)
	}
}

// TestMagazineDrainOneGracePeriod: Drain retires every thread's partial
// parked list under ONE fence.
func TestMagazineDrainOneGracePeriod(t *testing.T) {
	tm, h := magHeap(t, "tl2", 2)
	for th, n := range map[int]int{1: 3, 2: 5} {
		var ptrs []int64
		for i := 0; i < n; i++ {
			ptrs = append(ptrs, alloc(t, tm, h, th, 4))
		}
		for _, p := range ptrs {
			h.Free(th, p, 4)
		}
	}
	before := h.Stats()
	if before.MagFree != 8 || before.Batches != 0 {
		t.Fatalf("before Drain: %+v, want MagFree=8 Batches=0", before)
	}
	if err := h.Drain(1); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Batches != before.Batches+1 {
		t.Fatalf("Drain over two threads' parked lists took %d batches, want 1", st.Batches-before.Batches)
	}
	if st.MagFree != 0 || st.Live != 0 || st.PendingFrees != 0 || st.MagAlloc != 8 {
		t.Fatalf("after Drain: %+v, want MagFree=0 Live=0 PendingFrees=0 MagAlloc=8", st)
	}
}

// TestMagazineAllocationsPerBatch is the Go-heap budget of the magazine
// pair: in steady state neither a New+Free pair nor a batch retire
// allocates (the retire fences and publishes inline, and the parked list
// reuses the slice of its last published batch). 90 000 pairs — 10 000
// batches at capacity 8 — must stay under 0.01 allocations per batch,
// leaving room for a stray runtime allocation or two.
func TestMagazineAllocationsPerBatch(t *testing.T) {
	if coretest.RaceEnabled {
		t.Skip("allocation budgets do not hold under -race")
	}
	tm, h := magHeap(t, "tl2", 1)
	var ptr int64
	newBlock := func(tx core.Txn) (err error) {
		ptr, err = h.New(tx, 1, 3)
		return err
	}
	pair := func() {
		if err := core.Atomically(tm, 1, newBlock); err != nil {
			t.Fatal(err)
		}
		h.Free(1, ptr, 3)
	}
	for i := 0; i < 1000; i++ {
		pair()
	}
	const pairs = 90000
	b0 := h.Stats().Batches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	batches := h.Stats().Batches - b0
	mallocs := int64(after.Mallocs - before.Mallocs)
	if batches < pairs/9 {
		t.Fatalf("%d batches for %d frees at capacity 8", batches, pairs)
	}
	if float64(mallocs) >= 0.01*float64(batches) {
		t.Fatalf("%d allocations over %d pairs (%d batches): %.4f per batch, budget < 0.01",
			mallocs, pairs, batches, float64(mallocs)/float64(batches))
	}
	t.Logf("%d allocations over %d batches (%.3f per batch)", mallocs, batches, float64(mallocs)/float64(batches))
}

// TestPerFreePairAllocatesNothing is the Go-heap budget of the per-free
// path: on a heap without magazines, a New+Free pair — allocating
// transaction, fence, wipe, publishing transaction — allocates nothing
// in steady state.
func TestPerFreePairAllocatesNothing(t *testing.T) {
	if coretest.RaceEnabled {
		t.Skip("allocation budgets do not hold under -race")
	}
	tm := engine.MustNewSpec("tl2", 1<<12, 1, nil)
	h, err := stmalloc.New(tm, 8, tm.NumRegs(), stmalloc.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	var ptr int64
	newBlock := func(tx core.Txn) (err error) {
		ptr, err = h.New(tx, 1, 3)
		return err
	}
	pair := func() {
		if err := core.Atomically(tm, 1, newBlock); err != nil {
			t.Fatal(err)
		}
		h.Free(1, ptr, 3)
	}
	for i := 0; i < 100; i++ {
		pair()
	}
	if allocs := testing.AllocsPerRun(1000, pair); allocs != 0 {
		t.Fatalf("a per-free New+Free pair allocated %.3f/op, want 0", allocs)
	}
}
