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

// TestClassListsServeOnlyTheirClass pins the size-class contract: a
// free list serves only its own class. Each row bumps its hold blocks
// in order from a one-shard heap whose chunk is exactly 32 registers,
// optionally frees them all and drains, then probes: each probe is
// either ErrOutOfSpace or served from a free list at the given chunk
// offset, with the bump high-water unmoved. Both rows leave four free
// 8-register blocks and no bump space, so a 16-register request fails
// — no pair of free blocks is merged to serve it — while an 8-register
// one reuses the last block freed.
func TestClassListsServeOnlyTheirClass(t *testing.T) {
	const first, chunk, outOfSpace = 8, 32, -1
	type probe struct {
		n  int   // registers requested
		at int64 // chunk offset of the block served, or outOfSpace
	}
	tests := []struct {
		name   string
		mag    int   // magazine threads; 0 builds a per-free heap
		hold   []int // block sizes bumped in order
		free   bool  // free every held block and Drain before probing
		probes []probe
		live   int64 // Stats().Live after the probes
	}{
		{"per-free", 0, []int{8, 8, 8, 8}, true, []probe{{16, outOfSpace}, {8, 24}}, 1},
		{"magazine", 1, []int{8, 8, 8, 8}, true, []probe{{16, outOfSpace}, {8, 24}}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			regs := first + stmalloc.HeaderRegs(1) + stmalloc.MagazineRegs(tt.mag) + chunk
			tm := engine.MustNewSpec("tl2", regs, 2, nil)
			opts := []stmalloc.Option{stmalloc.WithShards(1)}
			if tt.mag > 0 {
				opts = append(opts, stmalloc.WithMagazines(tt.mag, 8))
			}
			h, err := stmalloc.New(tm, first, regs, opts...)
			if err != nil {
				t.Fatal(err)
			}
			base := int64(regs - chunk)
			var held []int64
			for _, n := range tt.hold {
				held = append(held, alloc(t, tm, h, 1, n))
			}
			if tt.free {
				for i, p := range held {
					h.Free(1, p, tt.hold[i])
				}
				if err := h.Drain(1); err != nil {
					t.Fatal(err)
				}
			}
			if st := h.Stats(); st.BumpRegs != chunk {
				t.Fatalf("setup bumped %d registers, want the whole %d-register chunk", st.BumpRegs, chunk)
			}
			for _, pr := range tt.probes {
				var ptr int64
				err := core.Atomically(tm, 1, func(tx core.Txn) error {
					var err error
					ptr, err = h.New(tx, 1, pr.n)
					return err
				})
				if pr.at == outOfSpace {
					if !errors.Is(err, stmalloc.ErrOutOfSpace) {
						t.Fatalf("New(%d) = offset %d, %v; want ErrOutOfSpace", pr.n, ptr-base, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("New(%d): %v", pr.n, err)
				}
				if ptr-base != pr.at {
					t.Fatalf("New(%d) served chunk offset %d, want %d", pr.n, ptr-base, pr.at)
				}
			}
			st := h.Stats()
			if st.BumpRegs != chunk || st.Live != tt.live || st.PendingFrees != 0 {
				t.Fatalf("after the probes: %+v, want BumpRegs=%d Live=%d PendingFrees=0", st, chunk, tt.live)
			}
		})
	}
}

// TestBlockFootprint pins the size-class ladder: a request for n
// registers occupies exactly n for n = 1..8 and the next power of two
// from there up to MaxBlockRegs, and a one-shard heap's bump frontier
// advances by exactly that when it serves one block of each size.
func TestBlockFootprint(t *testing.T) {
	want := func(n int) int {
		if n <= 8 {
			return n
		}
		b := 16
		for b < n {
			b *= 2
		}
		return b
	}
	for n := 1; n <= stmalloc.MaxBlockRegs; n++ {
		if got := stmalloc.BlockRegs(n); got != want(n) {
			t.Fatalf("BlockRegs(%d) = %d, want %d", n, got, want(n))
		}
	}
	var sizes []int
	for n := 1; n <= 8; n++ {
		sizes = append(sizes, n)
	}
	for n := 9; n <= stmalloc.MaxBlockRegs; n = 2*n - 1 {
		sizes = append(sizes, n) // 9, 17, 33, ...: just past a power of two
	}
	arena := 0
	for _, n := range sizes {
		arena += want(n)
	}
	const first = 8
	regs := first + stmalloc.HeaderRegs(1) + arena
	tm := engine.MustNewSpec("tl2", regs, 2, nil)
	h, err := stmalloc.New(tm, first, regs, stmalloc.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range sizes {
		before := h.Stats().BumpRegs
		alloc(t, tm, h, 1, n)
		if d := h.Stats().BumpRegs - before; d != int64(want(n)) {
			t.Fatalf("a %d-register request bumped %d registers, want %d", n, d, want(n))
		}
	}
	if st := h.Stats(); st.BumpRegs != int64(arena) {
		t.Fatalf("footprint %d registers, want the %d the sizes add up to", st.BumpRegs, arena)
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
// hash set built over the heap, plus a Drain, allocated-minus-freed
// blocks equal the live set size plus the set's one bucket array
// exactly — nothing leaked, nothing double-freed. Run under -race in
// CI.
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
			set := stmds.NewHashSet(tm, 1, h)
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
			if st.Live != int64(len(snap)+1) {
				t.Fatalf("allocs-frees = %d, live set size %d + 1 bucket array (stats %+v)", st.Live, len(snap), st)
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

// TestBoundedFootprintUnderChurn pins the reclamation payoff at the
// allocator level: serial churn whose allocations add up to more
// registers than the whole arena holds succeeds, with a bounded
// footprint — only reuse can serve it.
func TestBoundedFootprintUnderChurn(t *testing.T) {
	// ~2000 inserts of 3-register nodes = 6000 registers of traffic
	// through a <1024-reg arena.
	tm := engine.MustNewSpec("tl2", 1<<10, 2, nil)
	const first = 8
	h, err := stmalloc.New(tm, first, tm.NumRegs(), stmalloc.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	set := stmds.NewHashSet(tm, 1, h)
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
			t.Fatalf("reclaiming churn failed where it must reuse: op %d: %v", i, err)
		}
	}
	if err := h.Drain(1); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	// Every allocation is at least a hash node (key, value, next): a
	// 3-register block.
	if allocated, arena := st.Allocs*int64(stmalloc.BlockRegs(3)), int64(tm.NumRegs()-first); allocated <= arena {
		t.Fatalf("churn allocated %d regs, not past the %d-reg arena: the run proves no reuse", allocated, arena)
	}
	if st.BumpRegs > 256 {
		t.Fatalf("footprint %d regs after 8k churn ops over ≤40 live keys", st.BumpRegs)
	}
}

// TestFreedBlockReusedBeforeBump pins reuse before growth on the
// per-free path: a block freed into another thread's shard serves the
// next allocation of its class from any thread, before a bump region
// grows. Without it every shard's footprint grows to its own peak.
func TestFreedBlockReusedBeforeBump(t *testing.T) {
	tm := engine.MustNewSpec("tl2", 1<<10, 3, nil)
	h, err := stmalloc.New(tm, 8, tm.NumRegs(), stmalloc.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	ptr := alloc(t, tm, h, 1, 4) // thread 1's home shard
	h.Free(2, ptr, 4)            // thread 2's home is the other shard
	if got := alloc(t, tm, h, 2, 4); got != ptr {
		t.Fatalf("thread 2 allocated %d, not the free block %d", got, ptr)
	}
	if st := h.Stats(); st.BumpRegs != 4 {
		t.Fatalf("bump regions hold %d regs for one live block, want 4", st.BumpRegs)
	}
}

// --- Magazine layer ---

// TestMagazineChurnLeakAccounting is TestLeakAccountingChurn on the
// batch path: concurrent hash-set churn over a magazine heap on every TM,
// with a concurrent Drain/FreeQuiesced interferer — the
// interleaving that would expose a double count between the per-Free
// push, the batch retire, and a Drain taking the same list. After the
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
			set := stmds.NewHashSet(tm, 1, h)
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
			// of the same magazines the workers fill.
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
					if i%3 == 0 {
						if err := h.Drain(th); err != nil {
							errs <- fmt.Errorf("mid-churn drain %d: %w", i, err)
							return
						}
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
			if st.Live != int64(len(snap)+1) {
				t.Fatalf("allocs-frees = %d, live set size %d + 1 bucket array (stats %+v)", st.Live, len(snap), st)
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
	set := stmds.NewHashSet(tm, 1, h)
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
	// ≤40 live 3-reg nodes + one bucket array + one magazine (8
	// alloc-side + 8 parked, 3 regs each) + retire slack.
	if fp := h.Stats().BumpRegs; fp > 256 {
		t.Fatalf("footprint %d regs after 8k churn ops over ≤40 live keys", fp)
	}
}

// TestOutOfSpaceWithParkedFrees is the exhaustion edge case: when the
// last blocks of the arena sit parked on a free-side magazine, New
// reports ErrOutOfSpace (parked frees have not quiesced and are never
// stolen) — and a Drain recovers them.
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
	if err := h.Drain(1); err != nil {
		t.Fatal(err)
	}
	alloc(t, tm, h, 1, 4) // the drained blocks are allocatable again
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
	// Thread 1 drains the arena, then frees a full batch: eight park,
	// the ninth retires all nine into its alloc-side cache.
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
	for _, p := range ptrs[:9] {
		h.Free(1, p, 4)
	}
	if st := h.Stats(); st.MagAlloc != 9 {
		t.Fatalf("batch retire did not cache: %+v", st)
	}
	// Thread 2 has nothing local and nothing shared — it must steal.
	p := alloc(t, tm, h, 2, 4)
	if !slices.Contains(ptrs[:9], p) {
		t.Fatalf("allocated %d, want one of the cached blocks %v", p, ptrs[:9])
	}
	if st := h.Stats(); st.MagAlloc != 8 {
		t.Fatalf("steal did not come from the cache: %+v", st)
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
	// Thread 1 drains the arena, then frees a full batch: eight park,
	// the ninth retires all nine into its alloc-side cache.
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
	if len(ptrs) < 9 {
		t.Fatalf("arena too small: %d blocks", len(ptrs))
	}
	for _, p := range ptrs[:9] {
		h.Free(1, p, 4)
	}
	if st := h.Stats(); st.MagAlloc != 9 {
		t.Fatalf("cache = %d, want 9", st.MagAlloc)
	}
	// Thread 2's first allocation must move half (5) out of thread 1's
	// cache: one serves the allocation, four seed thread 2's cache.
	_ = alloc(t, tm, h, 2, 4)
	if st := h.Stats(); st.MagAlloc != 8 {
		t.Fatalf("after steal, cached = %d, want 8 (4 left + 4 seeded)", st.MagAlloc)
	}
	// The next four thread-2 allocations hit its own cache: the
	// victim's remaining 4 cached blocks must not move.
	for i := 0; i < 4; i++ {
		_ = alloc(t, tm, h, 2, 4)
	}
	if st := h.Stats(); st.MagAlloc != 4 {
		t.Fatalf("after local pops, cached = %d, want 4", st.MagAlloc)
	}
	if st := h.Stats(); st.Allocs-st.Frees != int64(len(ptrs)-9+5) {
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
	want := stmalloc.HeaderRegs(2) + 10*3 + 4*7 + 2*7
	if got != want {
		t.Fatalf("RegsForDemand = %d, want %d", got, want)
	}
	// Magazines add 2×cap blocks per demanded class per thread, plus
	// the magazine headers.
	got = stmalloc.RegsForDemand(2, 3, 2, demand)
	want += stmalloc.MagazineRegs(3) + 3*(2*2*3+2*2*7)
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
	// Thread 2 caches nine blocks of its own: a full batch of frees,
	// eight parked and the ninth retiring them all.
	var own2 []int64
	for i := 0; i < 9; i++ {
		own2 = append(own2, alloc(t, tm, h, 2, 4))
	}
	for _, p := range own2 {
		h.Free(2, p, 4)
	}
	// Thread 1 frees a whole batch: eight park, the ninth retires it.
	var batch []int64
	for i := 0; i < 9; i++ {
		batch = append(batch, alloc(t, tm, h, 1, 4))
	}
	for _, p := range batch {
		h.Free(1, p, 4)
	}
	if st := h.Stats(); st.MagAlloc != 9+9 || st.MagFree != 0 || st.PendingFrees != 0 {
		t.Fatalf("after two retires: %+v, want MagAlloc=18 MagFree=0 PendingFrees=0", st)
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
	for i := 0; i < 9; i++ {
		if p := alloc(t, tm, h, 2, 4); !slices.Contains(own2, p) {
			t.Fatalf("thread 2 allocated %d, not one of its cached blocks %v", p, own2)
		}
	}
	if st := h.Stats(); st.MagAlloc != 1 {
		t.Fatalf("MagAlloc = %d, want the batch's one unpopped block", st.MagAlloc)
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
