package stmds_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

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
		{"SkipMap", [3]float64{29.8, 31.8, 31.6}, [3]float64{0, 3.8, 1.8}, func(t *testing.T) (*coretest.ReadCounter, pointOps) {
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

// keySet is a generated SkipMap key set: 256 to 2 048 distinct keys
// strictly inside ±(2³¹−1), where a link's hint is the key itself.
type keySet []int64

func (keySet) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 256 + r.Intn(2048-256+1)
	seen := make(map[int64]bool, n)
	ks := make(keySet, 0, n)
	for len(ks) < n {
		if k := r.Int63n(2*stmds.HintMax-1) - (stmds.HintMax - 1); !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	return reflect.ValueOf(ks)
}

// TestSkipMapGetReadBound is the descent's read bound as a property:
// over generated key sets of n keys, every Get of a present key reads
// at most 6·log₂ n registers. A step of the descent reads one link
// register, whose hint decides the comparison; the measured worst Get
// over these sets is about 4.5·log₂ n, and a descent that also read
// each successor's key register read 6.8 to 8.3·log₂ n.
func TestSkipMapGetReadBound(t *testing.T) {
	const c = 6
	var worst string // the first Get past the bound, for the failure
	prop := func(ks keySet) bool {
		rc, heap := budgetHeap(t, arenaAt, stmds.SkipMapDemand(len(ks)))
		m := stmds.NewSkipMap(rc, skipHead, 1, heap)
		for _, k := range ks {
			if _, err := m.Put(1, k, k); err != nil {
				t.Fatal(err)
			}
		}
		bound := int(c * math.Log2(float64(len(ks))))
		for _, k := range ks {
			rc.Reset()
			if _, ok, err := m.Get(1, k); err != nil || !ok {
				t.Fatalf("Get(%d) = %v, %v, want present", k, ok, err)
			}
			if rc.Reads > bound {
				worst = fmt.Sprintf("n = %d: Get(%d) read %d registers, bound %d", len(ks), k, rc.Reads, bound)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(worst)
	}
}

// TestWindowIterReadsEachRegisterOnce: neither transaction of a scan
// window reads a register twice: the privatizing one reads the guard's
// flag once, in Take, before its descent to the window's start, and
// the publishing one reads it once, in Give. Counted over a whole
// windowed walk of an 8 192-key map.
func TestWindowIterReadsEachRegisterOnce(t *testing.T) {
	const n = 8 * stmds.WindowPairs
	rc, heap := budgetHeap(t, arenaAt, stmds.SkipMapDemand(n))
	m := stmds.NewSkipMap(rc, skipHead, 1, heap)
	for k := int64(1); k <= n; k++ {
		if _, err := m.Put(1, k, k); err != nil {
			t.Fatal(err)
		}
	}
	rc.Reset()
	it := m.RangeWindows(1, n, 0)
	got, windows := 0, 0
	for more := true; more; windows++ {
		pairs, m, err := it.Next(1)
		if err != nil {
			t.Fatal(err)
		}
		got, more = got+len(pairs), m
	}
	if got != n {
		t.Fatalf("walk returned %d pairs, want %d", got, n)
	}
	t.Logf("%d windows: %d reads, %d repeated", windows, rc.Reads, rc.Repeats)
	if rc.Repeats != 0 {
		t.Fatalf("%d reads of a register already read in the same transaction over %d windows, want 0", rc.Repeats, windows)
	}
}
