package stmkv_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"safepriv/internal/engine"
	"safepriv/internal/stmkv"
	"safepriv/internal/telemetry"
)

// allSpecs is every production TM in the registry: the store must work
// unchanged on all of them.
var allSpecs = []string{"baseline", "atomic", "norec", "wtstm", "tl2"}

func newStore(t *testing.T, spec string, shards, slots, threads int, opts ...stmkv.Option) *stmkv.Store {
	t.Helper()
	tm, err := engine.NewSpec(spec, stmkv.RegsNeeded(shards, slots), threads, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := stmkv.New(tm, shards, slots, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCRUDAllTMs(t *testing.T) {
	for _, spec := range allSpecs {
		t.Run(spec, func(t *testing.T) {
			s := newStore(t, spec, 4, 64, 3)
			const n = 120 // crosses the initial 8-slot capacity: grows happen
			for k := int64(1); k <= n; k++ {
				if err := s.Put(1, k, k*10); err != nil {
					t.Fatalf("Put(%d): %v", k, err)
				}
			}
			for k := int64(1); k <= n; k++ {
				v, ok, err := s.Get(1, k)
				if err != nil || !ok || v != k*10 {
					t.Fatalf("Get(%d) = %d,%v,%v; want %d,true,nil", k, v, ok, err, k*10)
				}
			}
			// Overwrite.
			if err := s.Put(1, 7, 777); err != nil {
				t.Fatal(err)
			}
			if v, ok, _ := s.Get(1, 7); !ok || v != 777 {
				t.Fatalf("overwrite: got %d,%v", v, ok)
			}
			// Delete half.
			for k := int64(1); k <= n; k += 2 {
				removed, err := s.Delete(1, k)
				if err != nil || !removed {
					t.Fatalf("Delete(%d) = %v,%v", k, removed, err)
				}
			}
			if removed, _ := s.Delete(1, 3); removed {
				t.Fatal("double delete reported success")
			}
			if ln, err := s.Len(1); err != nil || ln != n/2 {
				t.Fatalf("Len = %d,%v; want %d", ln, err, n/2)
			}
			if got := s.Stats(); got.Grows == 0 || got.Privatizations == 0 {
				t.Fatalf("expected growth privatizations, got %+v", got)
			}
			// Missing and bad keys.
			if _, ok, _ := s.Get(1, 999999); ok {
				t.Fatal("phantom key")
			}
			if _, _, err := s.Get(1, 0); !errors.Is(err, stmkv.ErrBadKey) {
				t.Fatalf("key 0 accepted: %v", err)
			}
			if err := s.Put(1, -5, 1); !errors.Is(err, stmkv.ErrBadKey) {
				t.Fatalf("negative key accepted: %v", err)
			}
		})
	}
}

// scanMap converts a Scan result to a map, failing on duplicate keys.
func scanMap(t *testing.T, kvs []stmkv.KV) map[int64]int64 {
	t.Helper()
	m := make(map[int64]int64, len(kvs))
	for _, kv := range kvs {
		if _, dup := m[kv.Key]; dup {
			t.Fatalf("Scan returned key %d twice", kv.Key)
		}
		m[kv.Key] = kv.Val
	}
	return m
}

func TestScanClearResize(t *testing.T) {
	for _, txnScan := range []bool{false, true} {
		t.Run(fmt.Sprintf("txnScan=%v", txnScan), func(t *testing.T) {
			var opts []stmkv.Option
			if txnScan {
				opts = append(opts, stmkv.WithTransactionalScan())
			}
			s := newStore(t, "tl2", 3, 32, 3, opts...)
			want := map[int64]int64{}
			for k := int64(1); k <= 40; k++ {
				if err := s.Put(1, k, -k); err != nil {
					t.Fatal(err)
				}
				want[k] = -k
			}
			kvs, err := s.Scan(1)
			if err != nil {
				t.Fatal(err)
			}
			got := scanMap(t, kvs)
			if len(got) != len(want) {
				t.Fatalf("Scan has %d keys, want %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("Scan[%d] = %d, want %d", k, got[k], v)
				}
			}
			// Resize down (clamped to live keys) and back up: contents
			// must survive both rehashes.
			if err := s.Resize(1, 1); err != nil {
				t.Fatal(err)
			}
			if err := s.Resize(1, 32); err != nil {
				t.Fatal(err)
			}
			kvs, err = s.Scan(1)
			if err != nil {
				t.Fatal(err)
			}
			if got := scanMap(t, kvs); len(got) != len(want) {
				t.Fatalf("post-resize Scan has %d keys, want %d", len(got), len(want))
			}
			if err := s.Clear(1); err != nil {
				t.Fatal(err)
			}
			if ln, _ := s.Len(1); ln != 0 {
				t.Fatalf("Len after Clear = %d", ln)
			}
			kvs, err = s.Scan(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(kvs) != 0 {
				t.Fatalf("Scan after Clear returned %d pairs", len(kvs))
			}
		})
	}
}

func TestFull(t *testing.T) {
	s := newStore(t, "tl2", 1, 4, 2)
	var sawFull bool
	for k := int64(1); k <= 5; k++ {
		if err := s.Put(1, k, k); err != nil {
			if !errors.Is(err, stmkv.ErrFull) {
				t.Fatalf("Put(%d): %v", k, err)
			}
			sawFull = true
		}
	}
	if !sawFull {
		t.Fatal("5 keys fit a 4-slot shard")
	}
	// Deleting makes room again (tombstone compaction on grow).
	if _, err := s.Delete(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, 99, 99); err != nil {
		t.Fatalf("Put after delete: %v", err)
	}
}

// TestNewWipesReusedTM: building a store over a TM that already holds
// data (e.g. a previous store's table) must start empty — no phantom
// keys, no corrupted counts.
func TestNewWipesReusedTM(t *testing.T) {
	tm := engine.MustNewSpec("baseline", stmkv.RegsNeeded(2, 32), 2, nil)
	s1, err := stmkv.New(tm, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 40; k++ {
		if err := s1.Put(1, k, k); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := stmkv.New(tm, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	if ln, err := s2.Len(1); err != nil || ln != 0 {
		t.Fatalf("fresh store over reused TM has Len %d, %v", ln, err)
	}
	for k := int64(1); k <= 40; k++ {
		if _, ok, _ := s2.Get(1, k); ok {
			t.Fatalf("phantom key %d in fresh store", k)
		}
		if removed, _ := s2.Delete(1, k); removed {
			t.Fatalf("phantom delete of key %d", k)
		}
	}
	for k := int64(1); k <= 40; k++ {
		if err := s2.Put(1, k, -k); err != nil {
			t.Fatalf("Put(%d) on fresh store: %v", k, err)
		}
	}
	if ln, _ := s2.Len(1); ln != 40 {
		t.Fatalf("Len = %d after 40 puts", ln)
	}
}

func TestBadGeometry(t *testing.T) {
	tm := engine.MustNewSpec("baseline", 8, 2, nil)
	if _, err := stmkv.New(tm, 4, 64); err == nil {
		t.Fatal("oversized geometry accepted")
	}
	if _, err := stmkv.New(tm, 0, 1); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := stmkv.New(tm, 1, 1); err == nil {
		t.Fatal("8 registers cannot host a shard header plus its heap")
	}
	// A TM sized at exactly the RegsNeeded budget hosts the geometry,
	// and the store fills to that many keys per shard without ErrFull.
	tm2 := engine.MustNewSpec("baseline", stmkv.RegsNeeded(2, 32), 2, nil)
	s, err := stmkv.New(tm2, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	// 32 keys fit even if every one hashes to the same shard.
	for k := int64(1); k <= 32; k++ {
		if err := s.Put(1, k, k); err != nil {
			t.Fatalf("Put(%d) within budget: %v", k, err)
		}
	}
}

// retiredFenceModes are the modifiers of the coalescing and deferred
// fence modes, which the engine no longer has: the paper has one safe
// fence. The suites that ran on every TM × fence mode keep a row per TM
// and retired mode, pinning that a store can no longer be configured
// for one.
var retiredFenceModes = []string{"+combine", "+defer"}

// requireRefused fails unless the engine refuses spec for naming an
// unknown modifier.
func requireRefused(t *testing.T, spec string) {
	t.Helper()
	if _, err := engine.NewSpec(spec, stmkv.RegsNeeded(2, 64), 3, nil); err == nil || !strings.Contains(err.Error(), "unknown modifier") {
		t.Fatalf("NewSpec(%q) = %v, want an unknown-modifier error", spec, err)
	}
}

// TestKVFenceModes runs the store's full lifecycle — puts crossing the
// growth path, scans, resize, clear, drain, reuse — on every TM with
// the paper's fence, the only safe one. A Resize or Clear of N shards
// privatizes all N and runs ONE fence for them, counted on the TM's
// telemetry board.
func TestKVFenceModes(t *testing.T) {
	const shards = 4
	for _, spec := range allSpecs {
		t.Run(spec, func(t *testing.T) {
			tm := engine.MustNewSpec(spec, stmkv.RegsNeeded(shards, 64), 3, nil)
			board := tm.(telemetry.Provider).TelemetryBoard()
			s, err := stmkv.New(tm, shards, 64)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int64]int64{}
			for k := int64(1); k <= 40; k++ {
				if err := s.Put(1, k, k*3); err != nil {
					t.Fatal(err)
				}
				want[k] = k * 3
			}
			kvs, err := s.Scan(2)
			if err != nil {
				t.Fatal(err)
			}
			if got := scanMap(t, kvs); len(got) != len(want) {
				t.Fatalf("Scan has %d keys, want %d", len(got), len(want))
			}
			before := board.Snapshot()
			if err := s.Resize(1, 48); err != nil {
				t.Fatal(err)
			}
			d := board.Snapshot().Delta(before)
			if d.Fences != 1 || d.Privatizations != shards {
				t.Fatalf("Resize of %d shards ran %d fences over %d privatizations, want 1 over %d", shards, d.Fences, d.Privatizations, shards)
			}
			for k := int64(1); k <= 40; k++ {
				v, ok, err := s.Get(2, k)
				if err != nil || !ok || v != k*3 {
					t.Fatalf("Get(%d) after Resize = %d,%v,%v", k, v, ok, err)
				}
			}
			before = board.Snapshot()
			if err := s.Clear(1); err != nil {
				t.Fatal(err)
			}
			if d := board.Snapshot().Delta(before); d.Fences != 1 {
				t.Fatalf("Clear of %d shards ran %d fences, want 1", shards, d.Fences)
			}
			if ln, err := s.Len(2); err != nil || ln != 0 {
				t.Fatalf("Len after Clear = %d, %v", ln, err)
			}
			if err := s.Drain(1); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			if got := s.Stats(); got.Clears != shards {
				t.Fatalf("Clears = %d after Clear of %d shards", got.Clears, shards)
			}
			// The store stays usable after bulk maintenance.
			if err := s.Put(1, 7, 77); err != nil {
				t.Fatal(err)
			}
			if v, ok, _ := s.Get(1, 7); !ok || v != 77 {
				t.Fatalf("post-clear Get = %d,%v", v, ok)
			}
		})
		for _, fence := range retiredFenceModes {
			retired := spec + fence
			t.Run(retired, func(t *testing.T) { requireRefused(t, retired) })
		}
	}
}

// TestConcurrentDisjointRanges is the determinism test: workers operate
// on disjoint key ranges (so each range's final contents are a pure
// function of its own op sequence) while Scan/Resize privatize shards
// under them. The final Scan must equal the union of the per-worker
// model maps — on every TM, and with the workers' Scans as read-only
// transactions (WithTransactionalScan) on every TM.
func TestConcurrentDisjointRanges(t *testing.T) {
	workers := 4
	opsPer := 300
	if testing.Short() {
		opsPer = 120
	}
	type row struct {
		name, spec string
		opts       []stmkv.Option
	}
	var rows []row
	for _, spec := range allSpecs {
		rows = append(rows, row{name: spec, spec: spec})
	}
	for _, spec := range allSpecs {
		rows = append(rows, row{spec + "/txn-scan", spec, []stmkv.Option{stmkv.WithTransactionalScan()}})
	}
	for _, tc := range rows {
		spec := tc.spec
		t.Run(tc.name, func(t *testing.T) {
			tm, err := engine.NewSpec(spec, stmkv.RegsNeeded(4, 512), workers+2, nil)
			if err != nil {
				t.Fatal(err)
			}
			s, err := stmkv.New(tm, 4, 512, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			models := make([]map[int64]int64, workers+1)
			var wg sync.WaitGroup
			errs := make(chan error, workers+1)
			for w := 1; w <= workers; w++ {
				wg.Add(1)
				models[w] = map[int64]int64{}
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w) * 77))
					model := models[w]
					lo := int64(w) * 1_000_000
					for i := 0; i < opsPer; i++ {
						k := lo + int64(r.Intn(200)) + 1
						switch r.Intn(3) {
						case 0, 1:
							v := int64(r.Intn(1000))
							if err := s.Put(w, k, v); err != nil {
								errs <- err
								return
							}
							model[k] = v
						case 2:
							removed, err := s.Delete(w, k)
							if err != nil {
								errs <- err
								return
							}
							if _, inModel := model[k]; inModel != removed {
								errs <- fmt.Errorf("worker %d: Delete(%d) = %v, model says %v", w, k, removed, inModel)
								return
							}
							delete(model, k)
						}
						if i%100 == 50 {
							if _, err := s.Scan(w); err != nil {
								errs <- err
								return
							}
						}
					}
				}(w)
			}
			// A maintenance thread resizing under the workers.
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := workers + 1
				for i := 0; i < 4; i++ {
					if err := s.Resize(th, 64+i*32); err != nil {
						errs <- err
						return
					}
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := s.Drain(1); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			want := map[int64]int64{}
			for w := 1; w <= workers; w++ {
				for k, v := range models[w] {
					want[k] = v
				}
			}
			kvs, err := s.Scan(1)
			if err != nil {
				t.Fatal(err)
			}
			got := scanMap(t, kvs)
			if len(got) != len(want) {
				t.Fatalf("final Scan has %d keys, want %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("key %d = %d, want %d", k, got[k], v)
				}
			}
			if ln, err := s.Len(1); err != nil || int(ln) != len(want) {
				t.Fatalf("Len = %d,%v; want %d", ln, err, len(want))
			}
		})
	}
	for _, spec := range allSpecs {
		for _, fence := range retiredFenceModes {
			retired := spec + fence
			t.Run(retired, func(t *testing.T) { requireRefused(t, retired) })
		}
	}
}

// TestScanIsPerShardSnapshot pins the documented ordering contract:
// keys come out grouped by shard, and sorting yields the full key set.
func TestScanIsPerShardSnapshot(t *testing.T) {
	s := newStore(t, "baseline", 8, 16, 2)
	var keys []int64
	for k := int64(1); k <= 50; k++ {
		if err := s.Put(1, k, k); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	kvs, err := s.Scan(1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int64, len(kvs))
	for i, kv := range kvs {
		got[i] = kv.Key
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, k := range keys {
		if got[i] != k {
			t.Fatalf("sorted scan[%d] = %d, want %d", i, got[i], k)
		}
	}
}

// TestKVBatchReclaimResizeRace is the batch-retire-vs-Resize race: a
// WithBatchReclaim store whose table blocks recycle through per-thread
// magazine caches, hammered by concurrent Resizes (each one batch of
// privatize→rehash→publish cycles plus FreeQuiesced of every replaced
// table) interleaved with point operations. After a Drain the
// store-level leak invariant must hold — exactly one live table block
// per shard — every Resize ran one privatize cycle per shard — and
// every surviving key must be readable. The per-free row runs the same
// race on a store without magazines. Run under -race in CI.
func TestKVBatchReclaimResizeRace(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		batch bool
	}{
		{"tl2", true}, {"norec", true}, {"tl2", false},
	} {
		name := tc.spec + "/per-free"
		if tc.batch {
			name = tc.spec + "/batch"
		}
		t.Run(name, func(t *testing.T) {
			const shards, slots = 4, 64
			const workers, resizers = 2, 2
			threads := workers + resizers + 1
			tm, err := engine.NewSpec(tc.spec, stmkv.RegsNeededBatch(shards, slots, threads), threads+1, nil)
			if err != nil {
				t.Fatal(err)
			}
			var opts []stmkv.Option
			if tc.batch {
				opts = append(opts, stmkv.WithBatchReclaim(threads))
			}
			s, err := stmkv.New(tm, shards, slots, opts...)
			if err != nil {
				t.Fatal(err)
			}
			const keys = 60
			for k := int64(1); k <= keys; k++ {
				if err := s.Put(1, k, k); err != nil {
					t.Fatal(err)
				}
			}
			rounds := 40
			if testing.Short() {
				rounds = 10
			}
			var wg sync.WaitGroup
			errs := make(chan error, threads)
			for w := 1; w <= workers; w++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(th) * 31))
					for i := 0; i < rounds*5; i++ {
						k := int64(r.Intn(keys) + 1)
						switch r.Intn(3) {
						case 0:
							if err := s.Put(th, k, k*10); err != nil {
								errs <- fmt.Errorf("worker %d put: %w", th, err)
								return
							}
						case 1:
							if _, _, err := s.Get(th, k); err != nil {
								errs <- fmt.Errorf("worker %d get: %w", th, err)
								return
							}
						default:
							if _, err := s.Delete(th, k); err != nil {
								errs <- fmt.Errorf("worker %d delete: %w", th, err)
								return
							}
							if err := s.Put(th, k, k); err != nil {
								errs <- fmt.Errorf("worker %d re-put: %w", th, err)
								return
							}
						}
					}
				}(w)
			}
			for rz := 1; rz <= resizers; rz++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						if err := s.Resize(th, 16+(i%2)*32); err != nil {
							errs <- fmt.Errorf("resizer %d round %d: %w", th, i, err)
							return
						}
					}
				}(workers + rz)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := s.Drain(threads); err != nil {
				t.Fatal(err)
			}
			hs := s.HeapStats()
			if hs.Live != int64(shards) {
				t.Fatalf("heap holds %d live blocks after Drain, want one table per shard (%d): %+v", hs.Live, shards, hs)
			}
			if hs.PendingFrees != 0 {
				t.Fatalf("%d pending frees after Drain", hs.PendingFrees)
			}
			if got, want := s.Stats().Privatizations, int64(resizers*rounds*shards); got < want {
				t.Fatalf("%d privatize cycles after Drain, want >= %d (one per shard per Resize)", got, want)
			}
			for k := int64(1); k <= keys; k++ {
				v, ok, err := s.Get(1, k)
				if err != nil {
					t.Fatal(err)
				}
				if ok && v != k && v != k*10 {
					t.Fatalf("key %d holds %d, want %d or %d", k, v, k, k*10)
				}
			}
		})
	}
}

// TestDrainSurfacesAsyncErrorOnce is the long-running-server regression
// test: a reclamation failure must be returned by exactly one Drain,
// not by every Drain for the rest of the process's life. The second
// Drain after the failure reports recovery (nil), and the store keeps
// serving.
func TestDrainSurfacesAsyncErrorOnce(t *testing.T) {
	for _, spec := range []string{"tl2"} {
		t.Run(spec, func(t *testing.T) {
			s := newStore(t, spec, 2, 64, 3)
			failed := func(err error) bool { return err != nil && strings.Contains(err.Error(), "unallocatable") }
			s.FailReclamation(2)
			if err := s.Drain(1); !failed(err) {
				t.Fatalf("first Drain = %v, want the reclamation failure", err)
			}
			if err := s.Drain(1); err != nil {
				t.Fatalf("second Drain after recovery = %v, want nil (stale error resurfaced)", err)
			}
			// The store still works, and a fresh failure surfaces again
			// (once).
			if err := s.Put(1, 7, 70); err != nil {
				t.Fatal(err)
			}
			s.FailReclamation(2)
			if err := s.Drain(1); !failed(err) {
				t.Fatalf("Drain after the second failure = %v, want the reclamation failure", err)
			}
			if err := s.Drain(1); err != nil {
				t.Fatalf("final Drain = %v, want nil", err)
			}
			if v, ok, err := s.Get(1, 7); err != nil || !ok || v != 70 {
				t.Fatalf("Get(7) after the failures = %d,%v,%v", v, ok, err)
			}
		})
	}
}

// TestPutBatch: the write-coalescing primitive commits many pairs in
// one transaction — across shards, through growth, with duplicate keys
// resolving to the last write.
func TestPutBatch(t *testing.T) {
	for _, spec := range allSpecs {
		t.Run(spec, func(t *testing.T) {
			tm := engine.MustNewSpec(spec, stmkv.RegsNeeded(4, 128), 3, nil)
			s, err := stmkv.New(tm, 4, 128)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.PutBatch(1, nil); err != nil {
				t.Fatalf("empty batch: %v", err)
			}
			if err := s.PutBatch(1, []stmkv.KV{{Key: 0, Val: 1}}); !errors.Is(err, stmkv.ErrBadKey) {
				t.Fatalf("bad key in batch = %v, want ErrBadKey", err)
			}
			// A batch big enough to force growth in several shards, with
			// a duplicate key whose later value must win.
			var batch []stmkv.KV
			for k := int64(1); k <= 60; k++ {
				batch = append(batch, stmkv.KV{Key: k, Val: k * 2})
			}
			batch = append(batch, stmkv.KV{Key: 30, Val: 999})
			if err := s.PutBatch(1, batch); err != nil {
				t.Fatal(err)
			}
			n, err := s.Len(1)
			if err != nil {
				t.Fatal(err)
			}
			if n != 60 {
				t.Fatalf("Len = %d, want 60", n)
			}
			for k := int64(1); k <= 60; k++ {
				v, ok, err := s.Get(1, k)
				if err != nil {
					t.Fatal(err)
				}
				want := k * 2
				if k == 30 {
					want = 999
				}
				if !ok || v != want {
					t.Fatalf("key %d = (%d,%v), want (%d,true)", k, v, ok, want)
				}
			}
			if err := s.Drain(1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPutBatchConcurrent hammers PutBatch from several goroutines over
// disjoint key ranges while a reader scans — the kvserver batcher's
// shape, run under -race in CI.
func TestPutBatchConcurrent(t *testing.T) {
	tm := engine.MustNewSpec("tl2", stmkv.RegsNeeded(4, 256), 5, nil)
	s, err := stmkv.New(tm, 4, 256)
	if err != nil {
		t.Fatal(err)
	}
	const writers, batches, batchLen = 3, 20, 8
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := w + 1
			for b := 0; b < batches; b++ {
				batch := make([]stmkv.KV, batchLen)
				for i := range batch {
					k := int64(w*batches*batchLen + b*batchLen + i + 1)
					batch[i] = stmkv.KV{Key: k, Val: k * 10}
				}
				if err := s.PutBatch(th, batch); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := s.Scan(writers + 1); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n, err := s.Len(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(writers * batches * batchLen); n != want {
		t.Fatalf("Len = %d, want %d", n, want)
	}
	if err := s.Drain(1); err != nil {
		t.Fatal(err)
	}
}

// TestThreadPool: ids hand out exactly once, context-bounded acquire
// fails when the pool is empty, misuse panics.
func TestThreadPool(t *testing.T) {
	if _, err := stmkv.NewThreadPool(0, 4); err == nil {
		t.Fatal("first=0 accepted (thread ids are 1-based)")
	}
	if _, err := stmkv.NewThreadPool(1, 0); err == nil {
		t.Fatal("count=0 accepted")
	}
	p, err := stmkv.NewThreadPool(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 3 {
		t.Fatalf("Size = %d, want 3", p.Size())
	}
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		id := p.Acquire()
		if id < 2 || id > 4 {
			t.Fatalf("id %d outside [2,4]", id)
		}
		if seen[id] {
			t.Fatalf("id %d handed out twice", id)
		}
		seen[id] = true
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.AcquireCtx(ctx); err == nil {
		t.Fatal("AcquireCtx on an empty pool returned an id")
	}
	p.Release(3)
	if id, err := p.AcquireCtx(context.Background()); err != nil || id != 3 {
		t.Fatalf("AcquireCtx = (%d, %v), want (3, nil)", id, err)
	}
	p.Release(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double Release did not panic")
			}
		}()
		p.Release(2)
		p.Release(3)
		p.Release(4)
		p.Release(2) // pool already full: must panic
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range Release did not panic")
			}
		}()
		p.Release(99)
	}()
}
