package stmds_test

import (
	"math/rand"
	"testing"

	"safepriv/internal/core/coretest"
	"safepriv/internal/engine"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
	"safepriv/internal/telemetry"
)

// TestRangeWalkCounts pins what a RangeWindows walk costs on the
// telemetry board: every window is one privatize→fence→walk→publish
// cycle, so a walk of W windows adds exactly W Fences, W
// Privatizations and W ScanWindows, and one Scan.
func TestRangeWalkCounts(t *testing.T) {
	regs := arenaAt + stmalloc.RegsForDemand(4, 1, 3, stmds.SkipMapDemand(denseTo))
	tm := engine.MustNewSpec("tl2", regs, 3, nil)
	board := tm.(telemetry.Provider).TelemetryBoard()
	heap, err := stmalloc.New(tm, arenaAt, tm.NumRegs(), stmalloc.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	sm := stmds.NewSkipMap(tm, skipHead, 1, heap)
	keys := len(putSparseThenDense(t, sm))
	for _, span := range []int64{64, 256, 4096} {
		before := board.Snapshot()
		it, got, windows := sm.RangeWindows(1, denseTo, span), 0, int64(0)
		for more := true; more; windows++ {
			var pairs []stmds.KV
			if pairs, more, err = it.Next(1); err != nil {
				t.Fatal(err)
			}
			got += len(pairs)
		}
		d := board.Snapshot().Delta(before)
		if got != keys {
			t.Fatalf("span %d: walk returned %d pairs, want %d", span, got, keys)
		}
		if d.ScanWindows != windows || d.Fences != windows || d.Privatizations != windows || d.Scans != 1 {
			t.Fatalf("span %d: a walk of %d windows counted %d windows, %d fences, %d privatizations, %d scans; want %d, %d, %d, 1",
				span, windows, d.ScanWindows, d.Fences, d.Privatizations, d.Scans, windows, windows, windows)
		}
	}
}

// TestTowerFootprint pins what a structure's nodes occupy on a fresh
// per-free heap. N seeded Puts into a SkipMap bump exactly the blocks
// of their towers, with each height replayed from a fresh level stream
// (LevelStream): 2+h registers for every tower up to height 6, the 16- or
// 32-register class above it. N Puts into a HashMap bump 3N registers
// of nodes plus every bucket array the table passed through (16, 32,
// ..., its final size: single-threaded growth frees each old array
// back to its own class, where no later doubling can use it).
func TestTowerFootprint(t *testing.T) {
	const n = 3000
	keys := rand.New(rand.NewSource(11)).Perm(4 * n)[:n]
	heap, sm, _ := demandHeap(t, "tl2", 1, n)
	replay := stmds.LevelStream(1)
	want := int64(0)
	for _, k := range keys {
		if _, err := sm.Put(1, int64(k)+1, 1); err != nil {
			t.Fatal(err)
		}
		want += int64(stmalloc.BlockRegs(2 + replay(1)))
	}
	if got := heap.Stats().BumpRegs; got != want {
		t.Fatalf("SkipMap: %d Puts bumped %d registers, want %d", n, got, want)
	}
	heap, _, hm := demandHeap(t, "tl2", 1, n)
	for _, k := range keys {
		if _, err := hm.Put(1, int64(k)+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	arrays := int64(2*hm.Buckets(1) - stmds.HashInitialBuckets)
	if got := heap.Stats().BumpRegs; got != 3*n+arrays {
		t.Fatalf("HashMap: %d Puts bumped %d registers, want %d nodes × 3 + %d of bucket arrays", n, got, n, arrays)
	}
}

// TestPointOpsAllocateNothing pins the Go-heap cost of a point
// operation on tl2: Get, Delete and Put on both structures allocate
// nothing, a Delete's Free (fence and publish) included. Deletes then
// re-puts the same keys, so the table reaches only chain lengths its
// prefill already had and no Put grows it.
func TestPointOpsAllocateNothing(t *testing.T) {
	if coretest.RaceEnabled {
		t.Skip("-race: sync.Pool drops Puts, so the fence allocates")
	}
	const keys, runs = 2000, 200
	for _, ds := range []string{"skip", "hash"} {
		heap, sm, hm := demandHeap(t, "tl2", 1, keys)
		var m stmds.OrderedMap = sm
		if ds == "hash" {
			m = hm
		}
		for k := int64(1); k <= keys; k++ {
			if _, err := m.Put(1, k, k); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range []struct {
			name string
			do   func(k int64) error
		}{
			{"Get", func(k int64) error { _, _, err := m.Get(1, k); return err }},
			{"Delete", func(k int64) error { _, err := m.Delete(1, k); return err }},
			{"Put", func(k int64) error { _, err := m.Put(1, k, k); return err }},
		} {
			k := int64(0)
			allocs := testing.AllocsPerRun(runs, func() {
				k++
				if err := op.do(k); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s.%s allocates %v times per op, want 0", ds, op.name, allocs)
			}
		}
		if err := heap.Drain(1); err != nil {
			t.Fatal(err)
		}
	}
}
