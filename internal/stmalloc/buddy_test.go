package stmalloc_test

import (
	"errors"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/engine"
	"safepriv/internal/stmalloc"
)

// buddyHeap builds a single-shard heap whose chunk is exactly `chunk`
// registers, the geometry the buddy tests reason about: one chunk, so
// buddy offsets are plain chunk offsets. magThreads > 0 adds the
// magazine layer (capacity 8).
func buddyHeap(t *testing.T, spec string, chunk, magThreads int) (core.TM, *stmalloc.Heap) {
	t.Helper()
	first := 8
	hdr := stmalloc.HeaderRegs(1) + stmalloc.MagazineRegs(magThreads)
	regs := first + hdr + chunk
	tm := engine.MustNewSpec(spec, regs, 4, nil)
	opts := []stmalloc.Option{stmalloc.WithShards(1)}
	if magThreads > 0 {
		opts = append(opts, stmalloc.WithMagazines(magThreads, 8))
	}
	h, err := stmalloc.New(tm, first, regs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tm, h
}

// allocSized runs one New transaction on thread th.
func allocSized(t *testing.T, tm core.TM, h *stmalloc.Heap, th, n int) int64 {
	t.Helper()
	var ptr int64
	err := core.Atomically(tm, th, func(tx core.Txn) error {
		var err error
		ptr, err = h.New(tx, th, n)
		return err
	})
	if err != nil {
		t.Fatalf("New(%d): %v", n, err)
	}
	return ptr
}

// TestNewSizedSplitsSmallestFit pins the split geometry: with only one
// 64-register free block, a 4-register request keeps the block's lowest
// class-2 slice and leaves the upper halves on their class lists —
// 4 halvings (class 6 down to class 2), each fragment at its buddy
// offset.
func TestNewSizedSplitsSmallestFit(t *testing.T) {
	tm, h := buddyHeap(t, "tl2", 64, 0)
	base := allocSized(t, tm, h, 1, 64)
	h.Free(1, base, 64)
	if err := h.Drain(1); err != nil {
		t.Fatal(err)
	}
	p := allocSized(t, tm, h, 1, 4)
	if p != base {
		t.Fatalf("split kept %d, want the block base %d", p, base)
	}
	st := h.Stats()
	if st.Splits != 4 {
		t.Fatalf("Splits = %d after one class-6→class-2 split, want 4", st.Splits)
	}
	if st.BumpRegs != 64 {
		t.Fatalf("BumpRegs = %d, want 64 (split must reuse, not bump)", st.BumpRegs)
	}
	// The fragments sit at base+4 (class 2), base+8 (class 3), base+16
	// (class 4), base+32 (class 5): allocating each class must return
	// exactly that fragment without advancing the bump frontier.
	for _, want := range []struct{ n, off int }{{4, 4}, {8, 8}, {16, 16}, {32, 32}} {
		got := allocSized(t, tm, h, 1, want.n)
		if got != base+int64(want.off) {
			t.Fatalf("alloc(%d) = %d, want fragment %d", want.n, got, base+int64(want.off))
		}
	}
	if st := h.Stats(); st.BumpRegs != 64 || st.Live != 5 {
		t.Fatalf("after consuming all fragments: %+v, want BumpRegs=64 Live=5", st)
	}
}

// TestSplitRollsBackOnAbort pins abort-safety: a split performed inside
// an aborted transaction must leave the free lists and the split
// counter exactly as they were.
func TestSplitRollsBackOnAbort(t *testing.T) {
	tm, h := buddyHeap(t, "tl2", 64, 0)
	base := allocSized(t, tm, h, 1, 64)
	h.Free(1, base, 64)
	if err := h.Drain(1); err != nil {
		t.Fatal(err)
	}
	tx := tm.Begin(1)
	if _, err := h.New(tx, 1, 4); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if st := h.Stats(); st.Splits != 0 || st.Live != 0 {
		t.Fatalf("aborted split leaked: %+v", st)
	}
	// The whole 64-register block must still be intact on its list.
	if p := allocSized(t, tm, h, 1, 64); p != base {
		t.Fatalf("realloc(64) = %d, want %d (block should be whole)", p, base)
	}
	if st := h.Stats(); st.BumpRegs != 64 {
		t.Fatalf("BumpRegs = %d, want 64", st.BumpRegs)
	}
}

// TestSplitFreeCoalesceRoundTrip is the exact-accounting regression for
// split blocks, on every TM × reclaim granularity: carve a
// 64-register block into class-2 pieces via splits, free every piece,
// and check the round trip nets to zero leak — Allocs−Frees counts
// blocks as currently sized, so split/coalesce traffic must not move
// it — and that publish-time coalescing re-forms the whole block
// (the re-allocation of 64 registers is served without bumping).
// CI runs this under -race.
func TestSplitFreeCoalesceRoundTrip(t *testing.T) {
	for _, spec := range reclaimSpecs(testing.Short()) {
		for _, reclaim := range []string{"free", "batch"} {
			t.Run(spec+"/"+reclaim, func(t *testing.T) {
				mag := 0
				if reclaim == "batch" {
					mag = 2
				}
				tm, h := buddyHeap(t, spec, 64, mag)
				base := allocSized(t, tm, h, 1, 64)
				h.Free(1, base, 64)
				if err := h.Drain(1); err != nil {
					t.Fatal(err)
				}
				// Four class-2 allocations: the first splits the
				// 64-register block, later ones consume and re-split
				// the fragments.
				var held []int64
				for i := 0; i < 4; i++ {
					held = append(held, allocSized(t, tm, h, 1, 4))
				}
				st := h.Stats()
				if st.Splits == 0 {
					t.Fatalf("no splits recorded: %+v", st)
				}
				if st.Live != 4 {
					t.Fatalf("Live = %d with 4 blocks held, want 4", st.Live)
				}
				for _, p := range held {
					h.Free(1, p, 4)
				}
				if err := h.Drain(1); err != nil {
					t.Fatal(err)
				}
				st = h.Stats()
				if st.Live != 0 || st.Allocs != 5 || st.Frees != 5 {
					t.Fatalf("split→free→coalesce leaked: %+v (want Allocs=5 Frees=5 Live=0)", st)
				}
				if st.Coalesces == 0 {
					t.Fatalf("no coalesces recorded: %+v", st)
				}
				// The buddies must have cascaded back into one
				// 64-register block: re-allocating it cannot bump.
				if p := allocSized(t, tm, h, 1, 64); p != base {
					t.Fatalf("realloc(64) = %d, want %d (coalesce should re-form the block)", p, base)
				}
				if st := h.Stats(); st.BumpRegs != 64 {
					t.Fatalf("BumpRegs = %d after round trip, want 64", st.BumpRegs)
				}
			})
		}
	}
	for _, spec := range retiredSpecs(testing.Short()) {
		for _, reclaim := range []string{"free", "batch"} {
			t.Run(spec+"/"+reclaim, func(t *testing.T) { requireRefused(t, spec) })
		}
	}
}

// TestCoalesceRecoversFragmentedBuddies is the ErrOutOfSpace-recovery
// coverage: when the only free space is fragmented split buddies —
// parked on the shard list by a magazine flush, which deliberately does
// not merge — a request larger than any single free block must succeed
// through the allocator's last-resort coalescing pass instead of
// surfacing ErrOutOfSpace.
func TestCoalesceRecoversFragmentedBuddies(t *testing.T) {
	tm, h := buddyHeap(t, "tl2", 32, 1)
	// Fill the chunk with one class-5 block, then carve it into eight
	// class-2 fragments via splits.
	base := allocSized(t, tm, h, 1, 32)
	h.Free(1, base, 32)
	if err := h.Drain(1); err != nil {
		t.Fatal(err)
	}
	var held []int64
	for i := 0; i < 8; i++ {
		held = append(held, allocSized(t, tm, h, 1, 4))
	}
	// FreeQuiesced parks the fragments on the thread's alloc-side
	// magazine cache; FlushThread pushes them back to the shard list
	// without coalescing. The heap's only free space is now eight
	// class-2 buddies.
	for _, p := range held {
		h.FreeQuiesced(1, p, 4)
	}
	h.FlushThread(1)
	if err := h.Drain(1); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Live != 0 || st.BumpRegs != 32 {
		t.Fatalf("setup: %+v, want Live=0 BumpRegs=32", st)
	}
	// A 32-register request fits no single free block and no bump
	// space: it must be served by coalescing the buddies, not die of
	// ErrOutOfSpace.
	var ptr int64
	err := core.Atomically(tm, 1, func(tx core.Txn) error {
		var err error
		ptr, err = h.New(tx, 1, 32)
		return err
	})
	if errors.Is(err, stmalloc.ErrOutOfSpace) {
		t.Fatalf("ErrOutOfSpace surfaced with 32 coalescible registers free: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if ptr != base {
		t.Fatalf("coalesced allocation = %d, want %d", ptr, base)
	}
	st := h.Stats()
	if st.Coalesces < 7 {
		t.Fatalf("Coalesces = %d, want ≥7 (8 class-2 → 1 class-5 is 7 merges)", st.Coalesces)
	}
	if st.Live != 1 {
		t.Fatalf("Live = %d, want 1", st.Live)
	}
}
