package stmds_test

import (
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/core/coretest"
	"safepriv/internal/engine"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
)

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
		{"SkipMap.window", windowFenceRow},
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

	putErr, err := tm.Park(func(tx core.Txn) error {
		_, _, err := hm.PutTx(tx, writer, k, k*7+1)
		return err
	})
	if err != nil {
		t.Fatal(err)
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

// windowFenceRow parks an in-place update of a present key and then
// scans the map in one window. The privatizing transaction overwrites
// the guard flag the update read, so the update is doomed; its value
// sits in the node's value register until its rollback. With the
// fence, the window walks only after the rollback. Without it, the walk
// loads the doomed value. Every scanned pair must be one a write
// committed.
func windowFenceRow(t *testing.T, spec string) {
	const scanner, writer = 1, 2
	const n, k = 40, 20
	regs := arenaAt + stmalloc.RegsForDemand(4, 0, 0, stmds.SkipMapDemand(n))
	tm := coretest.NewCommitPauser(engine.MustNewSpec(spec, regs, 3, nil), writer)
	heap, err := stmalloc.New(tm, arenaAt, tm.NumRegs(), stmalloc.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	sm := stmds.NewSkipMap(tm, skipHead, writer, heap)
	committed := map[stmds.KV]bool{}
	for key := int64(1); key <= n; key++ {
		if _, err := sm.Put(scanner, key, key*7+1); err != nil {
			t.Fatal(err)
		}
		committed[stmds.KV{Key: key, Val: key*7 + 1}] = true
	}

	putErr, err := tm.Park(func(tx core.Txn) error {
		_, err := sm.PutTx(tx, writer, k, -k, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []stmds.KV
	err = sm.Range(scanner, 1, n, func(key, v int64) bool {
		got = append(got, stmds.KV{Key: key, Val: v})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-putErr; err == nil {
		committed[stmds.KV{Key: k, Val: -k}] = true
	}
	for _, kv := range got {
		if !committed[kv] {
			t.Errorf("the window scanned %d=%d, which no write committed", kv.Key, kv.Val)
		}
	}
	if len(got) != n {
		t.Errorf("the window scanned %d pairs, the map holds %d", len(got), n)
	}
}
