package stmkv_test

import (
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/core/coretest"
	"safepriv/internal/engine"
	"safepriv/internal/stmkv"
)

// TestFenceNecessary holds one row per fence site in this package. A
// row parks an in-place update of a present key with a
// coretest.CommitPauser, just before its commit, and then runs the
// site's privatization over the key's shard. The privatizing
// transaction overwrites the shard flag the update read, so the update
// is doomed; on wtstm its value sits in the slot's value register until
// its rollback. With the fence, the private phase starts after the
// rollback. Without it, the phase loads the doomed value: a scan
// returns it, a rehash copies it into the rebuilt table. Every value
// the row reads back must be one a write committed. Every row passes on
// wtstm and fails with its fence gone: on wtstm+nofence, or with the
// fence call deleted.
func TestFenceNecessary(t *testing.T) {
	for _, row := range []struct {
		name string
		// read runs the privatization and returns the pairs it left.
		read func(s *stmkv.Store, th int) ([]stmkv.KV, error)
	}{
		{"ScanPage", func(s *stmkv.Store, th int) ([]stmkv.KV, error) {
			var all []stmkv.KV
			for cursor := ""; ; {
				pairs, next, err := s.ScanPage(th, cursor, 8)
				if all = append(all, pairs...); err != nil || next == "" {
					return all, err
				}
				cursor = next
			}
		}},
		{"Scan", func(s *stmkv.Store, th int) ([]stmkv.KV, error) { return s.Scan(th) }},
		// A Put past the load factor doubles the table in place: the
		// rebuild overwrites the registers the parked update wrote.
		{"grow", func(s *stmkv.Store, th int) ([]stmkv.KV, error) {
			grows := s.Stats().Grows
			for k := int64(fenceKeys + 1); s.Stats().Grows == grows; k++ {
				if err := s.Put(th, k, val(k)); err != nil {
					return nil, err
				}
			}
			return getFenceKeys(s, th)
		}},
	} {
		t.Run(row.name, func(t *testing.T) { fenceRow(t, "wtstm", row.read) })
	}
}

// fenceKeys is how many keys a fence row stores.
const fenceKeys = 20

// getFenceKeys reads keys 1..fenceKeys back through Get.
func getFenceKeys(s *stmkv.Store, th int) ([]stmkv.KV, error) {
	var all []stmkv.KV
	for k := int64(1); k <= fenceKeys; k++ {
		v, ok, err := s.Get(th, k)
		if err != nil {
			return nil, err
		}
		if ok {
			all = append(all, stmkv.KV{Key: k, Val: v})
		}
	}
	return all, nil
}

func fenceRow(t *testing.T, spec string, read func(s *stmkv.Store, th int) ([]stmkv.KV, error)) {
	const owner, writer, k = 1, 2, 5
	tm := coretest.NewCommitPauser(engine.MustNewSpec(spec, stmkv.RegsNeeded(1, 64), 3, nil), writer)
	s, err := stmkv.New(tm, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	committed := map[stmkv.KV]bool{}
	for key := int64(1); key <= fenceKeys; key++ {
		if err := s.Put(owner, key, val(key)); err != nil {
			t.Fatal(err)
		}
		committed[stmkv.KV{Key: key, Val: val(key)}] = true
	}

	putErr, err := tm.Park(func(tx core.Txn) error { return s.PutTx(tx, k, -k) })
	if err != nil {
		t.Fatal(err)
	}
	got, err := read(s, owner)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-putErr; err == nil {
		committed[stmkv.KV{Key: k, Val: -k}] = true
	}
	for _, kv := range got {
		if !committed[kv] {
			t.Errorf("read back %d=%d, which no write committed", kv.Key, kv.Val)
		}
	}
	if len(got) != fenceKeys {
		t.Errorf("read back %d pairs, the store holds %d", len(got), fenceKeys)
	}
}
