package stmalloc_test

import (
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/core/coretest"
	"safepriv/internal/engine"
	"safepriv/internal/stmalloc"
	"safepriv/internal/telemetry"
)

// TestFenceNecessary holds one row per way a block retires: a per-free
// Free, and a magazine batch. A row publishes a block through a pointer
// register and parks, with a coretest.CommitPauser, a transaction that
// has read the pointer and written the block's register 1. The
// caller's unlink then overwrites the pointer, so the parked
// transaction is doomed; on wtstm its write sits in the block until its
// rollback. With the fence, the retire's wipe runs after the rollback.
// Without it, the rollback restores the block's old value over the
// wipe. After the free and a Drain, every register of the block but
// its link must read 0. Every row passes on wtstm and fails with the
// fence gone: on wtstm+nofence, or with Owner.Fence emptied.
func TestFenceNecessary(t *testing.T) {
	for _, row := range []struct {
		name     string
		capacity int // magazine capacity; 0 builds a per-free heap
	}{
		{"Free", 0},
		{"retire", 4},
	} {
		t.Run(row.name, func(t *testing.T) { fenceRow(t, "wtstm", row.capacity) })
	}
}

// fenceRow runs one TestFenceNecessary row. On a magazine heap the
// freer first parks capacity other blocks, so the block's Free is the
// one that retires the whole batch.
func fenceRow(t *testing.T, spec string, capacity int) {
	const freer, writer = 1, 2
	const ptrReg, first, n = 1, 8, 4
	tm := coretest.NewCommitPauser(engine.MustNewSpec(spec, 1<<10, 3, nil), writer)
	opts := []stmalloc.Option{stmalloc.WithShards(1)}
	if capacity > 0 {
		opts = append(opts, stmalloc.WithMagazines(freer, capacity))
	}
	h, err := stmalloc.New(tm, first, tm.NumRegs(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	var others []int64
	for range capacity {
		others = append(others, alloc(t, tm, h, freer, n))
	}
	block := alloc(t, tm, h, freer, n)
	err = core.Atomically(tm, freer, func(tx core.Txn) error {
		for r := 1; r < n; r++ {
			if err := tx.Write(int(block)+r, 7); err != nil {
				return err
			}
		}
		return tx.Write(ptrReg, block)
	})
	if err != nil {
		t.Fatal(err)
	}

	parked, err := tm.Park(func(tx core.Txn) error {
		p, err := tx.Read(ptrReg)
		if err != nil {
			return err
		}
		return tx.Write(int(p)+1, -1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Atomically(tm, freer, func(tx core.Txn) error { return tx.Write(ptrReg, 0) }); err != nil {
		t.Fatal(err)
	}
	for _, p := range others {
		h.Free(freer, p, n)
	}
	h.Free(freer, block, n)
	if err := <-parked; err == nil {
		t.Fatal("the parked transaction committed after the unlink overwrote the pointer it read")
	}
	if err := h.Drain(freer); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < n; r++ {
		if v := tm.Load(freer, int(block)+r); v != 0 {
			t.Errorf("register %d of the freed block = %d after its retire, want 0", r, v)
		}
	}
}

// TestFreeFenceCounts pins the fences each way of freeing pays, read
// from the telemetry board: a per-free Free fences once, magazine Frees
// ⌊frees / (capacity + 1)⌋ times, FreeQuiesced never, and a Drain once
// when it finds parked frees. A run allocates its blocks, frees them
// and, in the Drain rows, drains. Every row runs at 0 Go allocations
// (not checked under -race).
func TestFreeFenceCounts(t *testing.T) {
	const capacity, n = 4, 2
	tests := []struct {
		name      string
		magazines bool // thread 1's magazines, of the given capacity
		quiesced  bool // FreeQuiesced instead of Free
		drain     bool
		frees     int
		fences    int64
	}{
		{"per-free/Free", false, false, false, 1, 1},
		{"per-free/FreeQuiesced", false, true, false, 1, 0},
		{"per-free/Drain", false, false, true, 1, 1},
		{"magazine/Free", true, false, false, 2 * (capacity + 1), 2},
		{"magazine/FreeQuiesced", true, true, false, 3, 0},
		{"magazine/Drain", true, false, true, capacity + 3, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tm := engine.MustNewSpec("tl2", 1<<10, 1, nil)
			opts := []stmalloc.Option{stmalloc.WithShards(1)}
			if tt.magazines {
				opts = append(opts, stmalloc.WithMagazines(1, capacity))
			}
			h, err := stmalloc.New(tm, 8, tm.NumRegs(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			board := tm.(telemetry.Provider).TelemetryBoard()
			ptrs := make([]int64, tt.frees)
			var failed error
			wrong := int64(-1) // the first fence count that missed tt.fences
			run := func() {
				for i := range ptrs {
					err := core.Atomically(tm, 1, func(tx core.Txn) (err error) {
						ptrs[i], err = h.New(tx, 1, n)
						return err
					})
					if err != nil {
						failed = err
						return
					}
				}
				before := board.Snapshot().Fences
				for _, p := range ptrs {
					if tt.quiesced {
						h.FreeQuiesced(1, p, n)
					} else {
						h.Free(1, p, n)
					}
				}
				if tt.drain {
					if err := h.Drain(1); err != nil {
						failed = err
					}
				}
				if got := board.Snapshot().Fences - before; got != tt.fences && wrong < 0 {
					wrong = got
				}
			}
			if coretest.RaceEnabled {
				for range 3 {
					run()
				}
			} else if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
				t.Errorf("a run allocated %.2f times, want 0", allocs)
			}
			if failed != nil {
				t.Fatal(failed)
			}
			if wrong >= 0 {
				t.Fatalf("a run took %d fences, want %d", wrong, tt.fences)
			}
			if st := h.Stats(); st.Live != 0 || st.PendingFrees != 0 {
				t.Fatalf("after the runs: %+v, want Live=0 PendingFrees=0", st)
			}
		})
	}
}
