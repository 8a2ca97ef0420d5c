package stmds_test

import (
	"math/rand"
	"testing"

	"safepriv/internal/core/coretest"
	"safepriv/internal/engine"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
)

// budgetHeap returns a ReadCounter over a tl2 TM with a per-free heap
// sized for demand from arena, and the heap.
func budgetHeap(t *testing.T, arena int, demand []stmalloc.ClassDemand) (*coretest.ReadCounter, *stmalloc.Heap) {
	t.Helper()
	regs := arena + stmalloc.RegsForDemand(4, 0, 0, demand)
	rc := coretest.NewReadCounter(engine.MustNewSpec("tl2", regs, 2, nil))
	heap, err := stmalloc.New(rc, arena, rc.NumRegs(), stmalloc.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	return rc, heap
}

// pointOps are a map's Get, Put and Delete on thread 1.
type pointOps [3]func(k int64) error

// TestReadBudgets pins what a point operation reads and writes on a
// seeded 20 000-key map: the mean number of transactional reads and
// writes per operation over 4 000 operations on keys drawn from twice
// the key count (about half of them present), and no read of a
// register the operation's transaction has already read. The counts
// are exact for the seed; the budgets are the counts measured, rounded
// up. A Get writes nothing.
func TestReadBudgets(t *testing.T) {
	const keys, ops = 20_000, 4_000
	opNames := [3]string{"Get", "Put", "Delete"}
	for _, mp := range []struct {
		name   string
		budget [3]float64 // mean reads per Get, Put, Delete
		writes [3]float64 // mean writes per Get, Put, Delete
		build  func(t *testing.T) (*coretest.ReadCounter, pointOps)
	}{
		{"SkipMap", [3]float64{56.5, 58.5, 58.2}, [3]float64{0, 3.8, 1.8}, func(t *testing.T) (*coretest.ReadCounter, pointOps) {
			rc, heap := budgetHeap(t, arenaAt, stmds.SkipMapDemand(2*keys))
			m := stmds.NewSkipMap(rc, skipHead, 1, heap)
			return rc, pointOps{
				func(k int64) error { _, _, err := m.Get(1, k); return err },
				func(k int64) error { _, err := m.Put(1, k, k); return err },
				func(k int64) error { _, err := m.Delete(1, k); return err },
			}
		}},
		{"HashMap", [3]float64{6.7, 7.7, 7.8}, [3]float64{0, 3.4, 1.6}, func(t *testing.T) (*coretest.ReadCounter, pointOps) {
			rc, heap := budgetHeap(t, hashArenaAt, stmds.HashMapDemand(2*keys))
			m := stmds.NewHashMap(rc, hashHeadAt, heap)
			return rc, pointOps{
				func(k int64) error { _, _, err := m.Get(1, k); return err },
				func(k int64) error { _, err := m.Put(1, k, k); return err },
				func(k int64) error { _, err := m.Delete(1, k); return err },
			}
		}},
	} {
		rc, do := mp.build(t)
		r := rand.New(rand.NewSource(1))
		for present := map[int64]bool{}; len(present) < keys; {
			k := 1 + r.Int63n(2*keys)
			if err := do[1](k); err != nil {
				t.Fatal(err)
			}
			present[k] = true
		}
		for i, op := range do {
			row := mp.name + "." + opNames[i]
			rc.Reset()
			for range ops {
				if err := op(1 + r.Int63n(2*keys)); err != nil {
					t.Fatalf("%s: %v", row, err)
				}
			}
			mean, writes := float64(rc.Reads)/ops, float64(rc.Writes)/ops
			t.Logf("%s: %.2f reads, %.2f repeated, %.2f writes, per operation", row, mean, float64(rc.Repeats)/ops, writes)
			if rc.Repeats != 0 {
				t.Errorf("%s: %d reads of a register already read in the same transaction, want 0", row, rc.Repeats)
			}
			if mean > mp.budget[i] {
				t.Errorf("%s: %.2f reads per operation, budget %.1f", row, mean, mp.budget[i])
			}
			if writes > mp.writes[i] {
				t.Errorf("%s: %.2f writes per operation, budget %.1f", row, writes, mp.writes[i])
			}
		}
	}
}
