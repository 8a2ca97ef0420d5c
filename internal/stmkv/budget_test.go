package stmkv_test

import (
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"safepriv/internal/core/coretest"
	"safepriv/internal/engine"
	"safepriv/internal/stmkv"
	"safepriv/internal/telemetry"
)

// budgetStore is a 16×4096 tl2 store holding keys 1..n, running over a
// WindowProbe.
func budgetStore(t *testing.T, n int64) (*stmkv.Store, *coretest.WindowProbe) {
	t.Helper()
	const shards, slots = 16, 4096
	tm, err := engine.NewSpec("tl2", stmkv.RegsNeeded(shards, slots), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe := coretest.NewWindowProbe(tm)
	s, err := stmkv.New(probe, shards, slots)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= n; k++ {
		if err := s.Put(1, k, k*10); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	return s, probe
}

// TestScanPageAllocs pins what one 256-pair page allocates: the page
// and the next cursor's string, which encodeCursor builds in stack
// buffers. Parsing the cursor allocates nothing, and neither does the
// publish gate while no writer is parked on it.
func TestScanPageAllocs(t *testing.T) {
	if coretest.RaceEnabled {
		t.Skip("-race: sync.Pool drops Puts, so the fence allocates")
	}
	s, _ := budgetStore(t, 20_000)
	_, cursor, err := s.ScanPage(1, "", 256)
	if err != nil || cursor == "" {
		t.Fatalf("first page: cursor %q, err %v", cursor, err)
	}
	n := testing.AllocsPerRun(50, func() {
		if _, _, err := s.ScanPage(1, cursor, 256); err != nil {
			t.Fatal(err)
		}
	})
	if n > 2 {
		t.Fatalf("ScanPage(256) allocates %v times a page, want <= 2", n)
	}
	t.Logf("ScanPage(256): %v allocations a page", n)
}

// TestScanPageWindowsAllocateNothing: from a window's fence to its
// publish, a paginated walk of the whole store allocates nothing.
func TestScanPageWindowsAllocateNothing(t *testing.T) {
	if coretest.RaceEnabled {
		t.Skip("-race: sync.Pool drops Puts, so the fence allocates")
	}
	const n = 5_000
	s, probe := budgetStore(t, n)
	probe.Measure(func() {
		got, cursor := 0, ""
		for {
			pairs, next, err := s.ScanPage(1, cursor, 256)
			if err != nil {
				t.Fatal(err)
			}
			got += len(pairs)
			if cursor = next; cursor == "" {
				break
			}
		}
		if got != n {
			t.Fatalf("walk returned %d pairs, want %d", got, n)
		}
	})
	if probe.Windows < 16 {
		t.Fatalf("walk closed %d windows, want one per shard at least", probe.Windows)
	}
	if probe.Mallocs != 0 {
		t.Fatalf("%d allocations inside %d scan windows, want 0", probe.Mallocs, probe.Windows)
	}
}

// TestReadBudgets pins what a point operation reads on a seeded
// 20 000-key store: the mean number of transactional reads per
// operation over 4 000 operations on keys drawn from twice the key
// count (about half of them present), and no read of a register the
// operation's transaction has already read. The counts are exact for
// the seed; the budgets are the counts measured, rounded up.
func TestReadBudgets(t *testing.T) {
	const shards, slots, keys, ops = 16, 4096, 20_000, 4_000
	tm, err := engine.NewSpec("tl2", stmkv.RegsNeeded(shards, slots), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rc := coretest.NewReadCounter(tm)
	s, err := stmkv.New(rc, shards, slots)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for present := map[int64]bool{}; len(present) < keys; {
		k := 1 + r.Int63n(2*keys)
		if err := s.Put(1, k, k); err != nil {
			t.Fatal(err)
		}
		present[k] = true
	}
	for _, row := range []struct {
		op     string
		budget float64
		run    func(k int64) error
	}{
		{"Get", 4.3, func(k int64) error { _, _, err := s.Get(1, k); return err }},
		{"Put", 5.0, func(k int64) error { return s.Put(1, k, k) }},
		{"Delete", 5.5, func(k int64) error { _, err := s.Delete(1, k); return err }},
	} {
		rc.Reset()
		for range ops {
			if err := row.run(1 + r.Int63n(2*keys)); err != nil {
				t.Fatalf("%s: %v", row.op, err)
			}
		}
		mean := float64(rc.Reads) / ops
		t.Logf("%s: %.2f reads, %.2f repeated, per operation", row.op, mean, float64(rc.Repeats)/ops)
		if rc.Repeats != 0 {
			t.Errorf("%s: %d reads of a register already read in the same transaction, want 0", row.op, rc.Repeats)
		}
		if mean > row.budget {
			t.Errorf("%s: %.2f reads per operation, budget %.1f", row.op, mean, row.budget)
		}
	}
}

// TestPointOpsAllocateNothing pins the Go-heap cost of a point
// operation on tl2: Get, Delete and Put allocate nothing. Deletes then
// re-puts the same keys, so no Put outgrows the prefilled table.
func TestPointOpsAllocateNothing(t *testing.T) {
	if coretest.RaceEnabled {
		t.Skip("-race: sync.Pool drops Puts, so the fence allocates")
	}
	s, _ := budgetStore(t, 20_000)
	for _, op := range []struct {
		name string
		do   func(k int64) error
	}{
		{"Get", func(k int64) error { _, _, err := s.Get(1, k); return err }},
		{"Delete", func(k int64) error { _, err := s.Delete(1, k); return err }},
		{"Put", func(k int64) error { return s.Put(1, k, k*10) }},
	} {
		k := int64(0)
		allocs := testing.AllocsPerRun(200, func() {
			k++
			if err := op.do(k); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %v times per op, want 0", op.name, allocs)
		}
	}
}

// TestTableFootprint pins what a store's tables occupy and what their
// growth costs. On a fresh store, seeded Puts leave Stats().TableRegs
// at exactly two registers per slot of each shard's capacity: every
// growth step rebuilds the table in place, so no smaller table is left
// behind. The fills run in stages, the last of which takes every shard
// past half its arena, where growth moves in quarter-arena steps. Each
// Put that grows a shard runs exactly one privatization, one fence and
// three commits (the privatization, the publish and the retried put);
// every other Put runs one commit and neither of the others.
func TestTableFootprint(t *testing.T) {
	const shards, slots = 16, 4096
	tm, err := engine.NewSpec("tl2", stmkv.RegsNeeded(shards, slots), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	board := tm.(telemetry.Provider).TelemetryBoard()
	s, err := stmkv.New(tm, shards, slots)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	puts, minCap := 0, int64(0)
	for _, n := range []int{20_000, 30_000} {
		for ; puts < n; puts++ {
			k := 1 + r.Int63n(1<<40)
			before, grows := board.Snapshot(), s.Stats().Grows
			if err := s.Put(1, k, k); err != nil {
				t.Fatal(err)
			}
			d, grew := board.Snapshot().Delta(before), s.Stats().Grows-grows
			if d.Privatizations != grew || d.Fences != grew || grew > 1 || d.Commits != 1+2*grew {
				t.Fatalf("Put(%d) grew %d times with %d privatizations, %d fences and %d commits, want 0, 0, 1 or 1, 1, 3", k, grew, d.Privatizations, d.Fences, d.Commits)
			}
		}
		want := int64(0)
		minCap = slots
		for sh := range shards {
			want += 2 * s.CapOf(1, sh)
			minCap = min(minCap, s.CapOf(1, sh))
		}
		if got := s.Stats().TableRegs; got != want {
			t.Fatalf("%d Puts left TableRegs %d, want Σ 2·cap = %d", n, got, want)
		}
		t.Logf("%d Puts: TableRegs %d, smallest table %d slots", n, want, minCap)
	}
	if minCap <= slots/2 {
		t.Fatalf("%d Puts left a shard at %d slots, want every shard past %d", puts, minCap, slots/2)
	}
	if st := s.Stats(); st.Grows == 0 || st.Compactions != 0 {
		t.Fatalf("%d Puts grew %d times and compacted %d times, want growth and no compaction", puts, st.Grows, st.Compactions)
	}
}

// TestGrowthSequence pins the capacities a shard passes through as it
// fills from empty to full: doublings from min(8, slots) until a step
// would pass a quarter of the arena, then quarter-arena steps up to the
// arena. Every key up to the arena fits (at the arena the load factor
// is waived), and the next one gets ErrFull. The full table takes
// exactly two registers a slot (Stats().TableRegs).
func TestGrowthSequence(t *testing.T) {
	for _, tt := range []struct {
		slots     int
		caps      []int64
		tableRegs int64
	}{
		{4096, []int64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 3072, 4096}, 8192},
		{64, []int64{8, 16, 32, 48, 64}, 128},
		{6, []int64{6}, 12},
		{1, []int64{1}, 2},
	} {
		t.Run(strconv.Itoa(tt.slots), func(t *testing.T) {
			s, err := stmkv.New(engine.MustNewSpec("tl2", stmkv.RegsNeeded(1, tt.slots), 2, nil), 1, tt.slots)
			if err != nil {
				t.Fatal(err)
			}
			caps := []int64{s.CapOf(1, 0)}
			for k := int64(1); k <= int64(tt.slots); k++ {
				if err := s.Put(1, k, k); err != nil {
					t.Fatalf("Put of key %d of %d: %v", k, tt.slots, err)
				}
				if c := s.CapOf(1, 0); c != caps[len(caps)-1] {
					caps = append(caps, c)
				}
			}
			if !slices.Equal(caps, tt.caps) {
				t.Fatalf("capacities %v, want %v", caps, tt.caps)
			}
			if err := s.Put(1, int64(tt.slots)+1, 0); !errors.Is(err, stmkv.ErrFull) {
				t.Fatalf("Put of key %d into a full %d-slot arena: %v, want ErrFull", tt.slots+1, tt.slots, err)
			}
			if st := s.Stats(); st.Grows != int64(len(tt.caps)-1) || st.Compactions != 0 {
				t.Fatalf("%d grows and %d compactions, want %d and 0", st.Grows, st.Compactions, len(tt.caps)-1)
			}
			if got := s.Stats().TableRegs; got != tt.tableRegs {
				t.Fatalf("TableRegs %d, want %d", got, tt.tableRegs)
			}
		})
	}
}

// TestRehashStores pins the uninstrumented stores of one rebuild: a
// shard holding live keys rebuilt at newCap slots stores each key
// register once and the value register of each occupied slot, newCap +
// live stores into the table, plus the three header registers gen,
// count and tombs: the capacity goes into the flag with the publish,
// which is a transaction. Empty slots' value registers are left as
// they are.
func TestRehashStores(t *testing.T) {
	const slots, keys, deleted, hdrStores = 4096, 1000, 100, 3
	rc := coretest.NewReadCounter(engine.MustNewSpec("tl2", stmkv.RegsNeeded(1, slots), 2, nil))
	s, err := stmkv.New(rc, 1, slots)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= keys; k++ {
		if err := s.Put(1, k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(1); k <= deleted; k++ {
		if removed, err := s.Delete(1, k); err != nil || !removed {
			t.Fatalf("Delete(%d) = %v, %v", k, removed, err)
		}
	}
	const live = keys - deleted
	for _, newCap := range []int64{2048, 3072, 3072, 4096} {
		rc.Reset()
		if err := s.Rehash(1, 0, newCap); err != nil {
			t.Fatal(err)
		}
		if want := int(newCap) + live + hdrStores; rc.Stores != want {
			t.Errorf("rebuild of %d keys at %d slots: %d stores, want %d", live, newCap, rc.Stores, want)
		}
		t.Logf("rebuild of %d keys at %d slots: %d loads, %d stores", live, newCap, rc.Loads, rc.Stores)
	}
	for k := int64(1); k <= keys; k++ {
		if v, ok, err := s.Get(1, k); err != nil || ok != (k > deleted) || (ok && v != k) {
			t.Fatalf("Get(%d) = %d, %v, %v after the rebuilds", k, v, ok, err)
		}
	}
}

// TestRebuildAllocatesNothing: rebuilds lay tables out in one buffer
// the store keeps, of an arena's size, so after a store's first rebuild
// every later one — larger, smaller or the same size, on any shard —
// allocates nothing.
func TestRebuildAllocatesNothing(t *testing.T) {
	if coretest.RaceEnabled {
		t.Skip("-race: sync.Pool drops Puts, so the fence allocates")
	}
	const shards, slots, keys = 2, 4096, 1000
	s, err := stmkv.New(engine.MustNewSpec("tl2", stmkv.RegsNeeded(shards, slots), 2, nil), shards, slots)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= keys; k++ {
		if err := s.Put(1, k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Rehash(1, 0, 2048); err != nil {
		t.Fatal(err)
	}
	caps := []int64{1024, 4096, 3072, 3072, 2048, 4096}
	i := 0
	// AllocsPerRun runs the rebuild once more before the runs it counts.
	allocs := testing.AllocsPerRun(len(caps)-1, func() {
		if err := s.Rehash(1, i%shards, caps[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("a rebuild after the store's first allocates %v times, want 0", allocs)
	}
	for k := int64(1); k <= keys; k++ {
		if v, ok, err := s.Get(1, k); err != nil || !ok || v != k {
			t.Fatalf("Get(%d) = %d, %v, %v after the rebuilds", k, v, ok, err)
		}
	}
}

// TestScanReadsEachRegisterOnce: a scan window's privatizing
// transaction reads no register twice. It reads the shard's flag once,
// checks it before the header, and takes the window from the value it
// read. Counted over the 20-page ScanPage(…, 256) walk of a 5 000-key
// store.
func TestScanReadsEachRegisterOnce(t *testing.T) {
	const shards, slots, keys, pages = 16, 4096, 5_000, 20
	rc := coretest.NewReadCounter(engine.MustNewSpec("tl2", stmkv.RegsNeeded(shards, slots), 2, nil))
	s, err := stmkv.New(rc, shards, slots)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= keys; k++ {
		if err := s.Put(1, k, k); err != nil {
			t.Fatal(err)
		}
	}
	rc.Reset()
	before := s.Stats().ScanWindows
	got, n := 0, 0
	for cursor := ""; n == 0 || cursor != ""; n++ {
		pairs, next, err := s.ScanPage(1, cursor, 256)
		if err != nil {
			t.Fatal(err)
		}
		got, cursor = got+len(pairs), next
	}
	if got != keys || n != pages {
		t.Fatalf("walk returned %d pairs in %d pages, want %d in %d", got, n, keys, pages)
	}
	windows := s.Stats().ScanWindows - before
	t.Logf("%d pages, %d windows: %d reads, %d repeated", pages, windows, rc.Reads, rc.Repeats)
	if rc.Repeats != 0 {
		t.Fatalf("%d reads of a register already read in the same transaction over %d windows, want 0", rc.Repeats, windows)
	}
}

// TestStatsReadOutsLoadNothing: the read-outs a GET /stats makes (Len
// and Stats), and the HeapStats adapter bench's store workloads call,
// run through transactions and Go counters only. A poller therefore
// never loads a register that transactions write, which would be a data
// race by the paper's Definition 3.2. Counted through
// coretest.ReadCounter on a 16-shard store whose tables have grown.
func TestStatsReadOutsLoadNothing(t *testing.T) {
	const shards, slots, keys = 16, 4096, 2_000
	rc := coretest.NewReadCounter(engine.MustNewSpec("tl2", stmkv.RegsNeeded(shards, slots), 2, nil))
	s, err := stmkv.New(rc, shards, slots)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= keys; k++ {
		if err := s.Put(1, k, k); err != nil {
			t.Fatal(err)
		}
	}
	rc.Reset()
	n, err := s.Len(1)
	if err != nil || n != keys {
		t.Fatalf("Len = %d, %v, want %d", n, err, keys)
	}
	st, hs := s.Stats(), s.HeapStats()
	if rc.Loads != 0 || rc.Stores != 0 {
		t.Fatalf("Len, Stats and HeapStats made %d uninstrumented loads and %d stores, want 0 and 0", rc.Loads, rc.Stores)
	}
	if st.Grows == 0 || hs.BumpRegs != st.TableRegs || hs.Live != shards {
		t.Fatalf("Stats %+v and HeapStats %+v, want growth, BumpRegs == TableRegs and Live == %d", st, hs, shards)
	}
}
