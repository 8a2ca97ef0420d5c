package stmds_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/core/coretest"
	"safepriv/internal/engine"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
	"safepriv/internal/telemetry"
)

// Hash suites' register layout: head block at hashHeadAt, arena after.
const (
	hashHeadAt  = 1
	hashArenaAt = hashHeadAt + stmds.HashHeadRegs
)

// hashHeap sizes a TM + reclaiming heap from HashMapDemand — the
// profile's integration test: a heap sized by it must survive the
// scripts (including every bucket-array doubling) without
// ErrOutOfSpace.
func hashHeap(t *testing.T, spec string, threads, keys int, opts ...stmalloc.Option) (core.TM, *stmalloc.Heap, *stmds.HashMap) {
	t.Helper()
	regs := hashArenaAt + stmalloc.RegsForDemand(4, threads, 3, stmds.HashMapDemand(keys))
	tm := engine.MustNewSpec(spec, regs, threads+2, nil)
	opts = append([]stmalloc.Option{stmalloc.WithShards(4)}, opts...)
	heap, err := stmalloc.New(tm, hashArenaAt, tm.NumRegs(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tm, heap, stmds.NewHashMap(tm, hashHeadAt, heap)
}

// TestHashMapOracle runs a random point-op script against a
// map[int64]int64 oracle on every registered TM, with enough distinct
// keys that the table doubles several times mid-script — so the
// privatized doubling (grow, relink, old-array free) runs under the
// oracle's eyes. Finishes with exact leak accounting: after a heap
// drain, live blocks are exactly the resident nodes plus the one
// bucket array.
func TestHashMapOracle(t *testing.T) {
	ops := 3000
	if testing.Short() {
		ops = 800
	}
	for _, tmName := range engine.TMs() {
		t.Run(tmName, func(t *testing.T) {
			_, heap, hm := hashHeap(t, tmName, 1, 600)
			oracle := map[int64]int64{}
			r := rand.New(rand.NewSource(43))
			for i := 0; i < ops; i++ {
				k := 1 + r.Int63n(600)
				switch d := r.Intn(100); {
				case d < 45:
					v := 1 + r.Int63n(1<<20)
					_, had := oracle[k]
					added, err := hm.Put(1, k, v)
					if err != nil {
						t.Fatal(err)
					}
					if added == had {
						t.Fatalf("op %d Put(%d): added=%v oracle had=%v", i, k, added, had)
					}
					oracle[k] = v
				case d < 70:
					_, had := oracle[k]
					removed, err := hm.Delete(1, k)
					if err != nil {
						t.Fatal(err)
					}
					if removed != had {
						t.Fatalf("op %d Delete(%d): removed=%v oracle had=%v", i, k, removed, had)
					}
					delete(oracle, k)
				case d < 95:
					want, had := oracle[k]
					v, ok, err := hm.Get(1, k)
					if err != nil {
						t.Fatal(err)
					}
					if ok != had || (had && v != want) {
						t.Fatalf("op %d Get(%d): (%d,%v) oracle (%d,%v)", i, k, v, ok, want, had)
					}
				default:
					n, err := hm.Len(1)
					if err != nil {
						t.Fatal(err)
					}
					if n != len(oracle) {
						t.Fatalf("op %d Len: %d oracle %d", i, n, len(oracle))
					}
				}
			}
			snap, err := hm.Snapshot(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(snap) != len(oracle) {
				t.Fatalf("final size %d, oracle %d", len(snap), len(oracle))
			}
			for i, kv := range snap {
				if i > 0 && snap[i-1].Key >= kv.Key {
					t.Fatalf("snapshot unsorted at %d: %v", i, kv)
				}
				if oracle[kv.Key] != kv.Val {
					t.Fatalf("pair %d=%d, oracle %d", kv.Key, kv.Val, oracle[kv.Key])
				}
			}
			if err := heap.Drain(1); err != nil {
				t.Fatal(err)
			}
			if st := heap.Stats(); st.Live != int64(len(oracle))+1 {
				t.Fatalf("leak accounting: live %d blocks, want %d nodes + 1 array (stats %+v)",
					st.Live, len(oracle), st)
			}
		})
	}
}

// TestHashMapRehashWindowsRecorded pins the telemetry contract and
// the exact cost of growth on a per-free heap: a table that doubled d
// times recorded d RehashWindows (the counter the benchmark reports as
// stmds.rehash_windows), each also a Privatization, and 2d Fences —
// each doubling's own fence plus the grace period of the Free that
// returns the old array. The inserts drive the table well past 64
// buckets, so a doubling that took more than one window would show.
func TestHashMapRehashWindowsRecorded(t *testing.T) {
	const keys = 2000
	tm, _, hm := hashHeap(t, "tl2", 1, keys)
	for k := int64(1); k <= keys; k++ {
		if _, err := hm.Put(1, k, k*7+1); err != nil {
			t.Fatal(err)
		}
	}
	tp, ok := tm.(telemetry.Provider)
	if !ok {
		t.Skip("engine TM carries no telemetry board")
	}
	snap := tp.TelemetryBoard().Snapshot()
	d := int64(bits.TrailingZeros(uint(hm.Buckets(1) / stmds.HashInitialBuckets)))
	if d < 4 {
		t.Fatalf("%d inserts doubled a 16-bucket table only %d times", keys, d)
	}
	if snap.RehashWindows != d || snap.Privatizations != d || snap.Fences != 2*d {
		t.Fatalf("%d doublings recorded %d rehash windows, %d privatizations, %d fences; want %d, %d, %d",
			d, snap.RehashWindows, snap.Privatizations, snap.Fences, d, d, 2*d)
	}
}

// TestHashMapChurnDuringRehash is the -race suite: churner threads
// insert-heavy enough to force repeated doublings (with the k↦k*7+1
// value convention) while a reader takes full snapshots. Torn chain
// walks against the uninstrumented relink — the race the grow bit and
// fence exist to prevent — surface as convention violations, as
// duplicate keys, or under -race as data races. Magazines put batch
// retires on the churners' goroutines, racing the doublings.
func TestHashMapChurnDuringRehash(t *testing.T) {
	const threads = 4
	ops := 1500
	if testing.Short() {
		ops = 400
	}
	_, heap, hm := hashHeap(t, "tl2", threads+1, 800,
		stmalloc.WithMagazines(threads+1, 3))
	var stop atomic.Bool
	errs := make(chan error, threads+1)
	var churners sync.WaitGroup
	for th := 1; th <= threads; th++ {
		churners.Add(1)
		go func(th int) {
			defer churners.Done()
			r := rand.New(rand.NewSource(int64(th) * 1231))
			for i := 0; i < ops; i++ {
				k := 1 + r.Int63n(700)
				var err error
				if r.Intn(3) != 0 { // insert-heavy: drive the table through doublings
					_, err = hm.Put(th, k, k*7+1)
				} else {
					_, err = hm.Delete(th, k)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(th)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		th := threads + 1
		for !stop.Load() {
			snap, err := hm.Snapshot(th)
			if err != nil {
				errs <- err
				return
			}
			for i, kv := range snap {
				if i > 0 && snap[i-1].Key >= kv.Key {
					errs <- fmt.Errorf("snapshot unsorted/duplicated at key %d", kv.Key)
					return
				}
				if kv.Val != kv.Key*7+1 {
					errs <- fmt.Errorf("snapshot value %d for key %d breaks the k*7+1 convention", kv.Val, kv.Key)
					return
				}
			}
		}
	}()
	churners.Wait()
	stop.Store(true)
	<-readerDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := heap.Drain(1); err != nil {
		t.Fatal(err)
	}
	snap, err := hm.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if st := heap.Stats(); st.Live != int64(len(snap))+1 {
		t.Fatalf("leak accounting after churn: live %d blocks, resident pairs %d + 1 array (stats %+v)",
			st.Live, len(snap), st)
	}
}

// TestHashSet pins the thin wrapper: set semantics over the map, with
// the same doublings underneath.
func TestHashSet(t *testing.T) {
	regs := hashArenaAt + stmalloc.RegsForDemand(2, 0, 0, stmds.HashSetDemand(100))
	tm := engine.MustNewSpec("tl2", regs, 3, nil)
	heap, err := stmalloc.New(tm, hashArenaAt, tm.NumRegs(), stmalloc.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	set := stmds.NewHashSet(tm, hashHeadAt, heap)
	for k := int64(1); k <= 100; k++ {
		added, err := set.Insert(1, k)
		if err != nil || !added {
			t.Fatalf("Insert(%d) = %v, %v", k, added, err)
		}
	}
	if added, err := set.Insert(1, 50); err != nil || added {
		t.Fatalf("re-Insert(50) = %v, %v", added, err)
	}
	if n, err := set.Len(1); err != nil || n != 100 {
		t.Fatalf("Len = %d, %v", n, err)
	}
	if ok, err := set.Contains(1, 77); err != nil || !ok {
		t.Fatalf("Contains(77) = %v, %v", ok, err)
	}
	if removed, err := set.Remove(1, 77); err != nil || !removed {
		t.Fatalf("Remove(77) = %v, %v", removed, err)
	}
	if ok, err := set.Contains(1, 77); err != nil || ok {
		t.Fatalf("Contains(77) after remove = %v, %v", ok, err)
	}
	keys, err := set.Snapshot(1)
	if err != nil || len(keys) != 99 {
		t.Fatalf("Snapshot len = %d, %v", len(keys), err)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("set snapshot unsorted at %d", i)
		}
	}
}

// TestFenceNecessary holds one row per fence site in this package. A
// row races the site's privatization against a writer that a
// coretest.CommitPauser parks before its commit, then checks the
// structure's contract. Every row passes on wtstm and fails with its
// fence gone: on wtstm+nofence, or with the fence call deleted.
func TestFenceNecessary(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(t *testing.T, spec string)
	}{
		{"HashMap.Grow", growFenceRow},
	} {
		t.Run(row.name, func(t *testing.T) { row.run(t, "wtstm") })
	}
}

// growFenceRow parks an insert into bucket 0, the first bucket Grow
// relinks, and then doubles the table. The privatizing transaction
// overwrites the head word the insert read, so the insert is doomed;
// its node and bucket write sit in memory until its rollback. With the
// fence, Grow relinks only after the rollback. Without it, Grow follows
// the doomed node, whose next-pointer the rollback resets, and bucket
// 0's committed chain drops out of the table. The map must hold exactly
// the committed pairs afterwards.
func growFenceRow(t *testing.T, spec string) {
	const grower, writer = 1, 2
	regs := hashArenaAt + stmalloc.RegsForDemand(4, 0, 0, stmds.HashMapDemand(64))
	tm := coretest.NewCommitPauser(engine.MustNewSpec(spec, regs, 3, nil), writer)
	// The writer allocates from its own shard, so its locks never cover
	// the grower's allocations.
	heap, err := stmalloc.New(tm, hashArenaAt, tm.NumRegs(), stmalloc.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	hm := stmds.NewHashMap(tm, hashHeadAt, heap)
	want := map[int64]int64{}
	for k := int64(1); k <= 40; k++ {
		if _, err := hm.Put(grower, k, k*7+1); err != nil {
			t.Fatal(err)
		}
		want[k] = k*7 + 1
	}
	buckets, inZero := hm.Buckets(grower), 0
	for k := range want {
		if stmds.BucketOf(k, buckets) == 0 {
			inZero++
		}
	}
	k := int64(1000)
	for stmds.BucketOf(k, buckets) != 0 {
		k++
	}
	if inZero == 0 {
		t.Fatalf("no prefilled key in bucket 0 of %d", buckets)
	}

	putErr := make(chan error, 1)
	go func() {
		tx := tm.Begin(writer)
		if _, _, err := hm.PutTx(tx, writer, k, k*7+1); err != nil {
			if tx.Live() {
				tx.Abort()
			}
			putErr <- fmt.Errorf("put failed before its commit: %w", err)
			return
		}
		putErr <- tx.Commit()
	}()
	select {
	case <-tm.Parked():
	case err := <-putErr:
		t.Fatalf("the writer never parked: %v", err)
	}
	if grew, err := hm.Grow(grower); err != nil || !grew {
		t.Fatalf("Grow = %v, %v", grew, err)
	}
	if err := <-putErr; err == nil {
		want[k] = k*7 + 1
	}
	got, err := hm.Snapshot(grower)
	if err != nil {
		t.Fatal(err)
	}
	if n := hm.Buckets(grower); n != 2*buckets {
		t.Fatalf("Grow left %d buckets, want %d", n, 2*buckets)
	}
	for _, kv := range got {
		if v, ok := want[kv.Key]; !ok || v != kv.Val {
			t.Errorf("pair %d=%d was never committed", kv.Key, kv.Val)
		}
	}
	if len(got) != len(want) {
		t.Errorf("the map holds %d pairs after the doubling, %d were committed (%d of them in bucket 0)",
			len(got), len(want), inZero)
	}
}
