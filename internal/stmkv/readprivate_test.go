package stmkv_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safepriv/internal/engine"
	"safepriv/internal/stmkv"
	"safepriv/internal/telemetry"
)

// promptly runs fn on its own goroutine and fails the test if it has
// not returned within a few seconds — i.e. if it waited on the shard.
func promptly(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	finished(t, what, done)
}

// parked starts fn on its own goroutine as thread th and returns once
// that thread has parked on the publish gate, still unfinished.
func parked(t *testing.T, board *telemetry.Board, th int, what string, fn func() error) <-chan error {
	t.Helper()
	before := board.Slot(th).GateParks.Load()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	deadline := time.Now().Add(5 * time.Second)
	for board.Slot(th).GateParks.Load() == before {
		select {
		case err := <-done:
			t.Fatalf("%s got past the held shard (err %v)", what, err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s neither finished nor parked", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return done
}

// finished waits a few seconds for an operation started earlier to
// return without error.
func finished(t *testing.T, what string, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s is still waiting on the shard", what)
	}
}

// TestShardStatesAdmitAndStall pins who gets past a held shard: in the
// read-private state (a scan window) the read-only operations run
// beside the owner and everything that writes the shard, including a
// second privatizer, parks until the publish; in the exclusive state (a
// rehash) the readers park too.
func TestShardStatesAdmitAndStall(t *testing.T) {
	const owner = 5
	tm, err := engine.NewSpec("tl2", stmkv.RegsNeeded(1, 64), owner, nil)
	if err != nil {
		t.Fatal(err)
	}
	board := tm.(telemetry.Provider).TelemetryBoard()
	s, err := stmkv.New(tm, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 4; k++ {
		if err := s.Put(1, k, k*10); err != nil {
			t.Fatal(err)
		}
	}

	release, err := s.HoldShard(owner, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	stalls := func() int64 { st := s.Stats(); return st.GateSpinWakes + st.GateParks }
	before, through := stalls(), s.Stats().ReadThroughs
	promptly(t, "Get beside a scan window", func() error {
		if v, ok, err := s.Get(1, 2); err != nil || !ok || v != 20 {
			return fmt.Errorf("Get(2) = %d,%v,%v", v, ok, err)
		}
		return nil
	})
	promptly(t, "Len beside a scan window", func() error {
		if n, err := s.Len(1); err != nil || n != 4 {
			return fmt.Errorf("Len = %d,%v", n, err)
		}
		return nil
	})
	if got := stalls() - before; got != 0 {
		t.Fatalf("read-only operations stalled %d times beside a scan window", got)
	}
	if got := s.Stats().ReadThroughs - through; got != 1 {
		t.Fatalf("ReadThroughs grew by %d for one Get beside a window, want 1", got)
	}
	put := parked(t, board, 1, "Put", func() error { return s.Put(1, 9, 90) })
	del := parked(t, board, 2, "Delete", func() error { _, err := s.Delete(2, 1); return err })
	page := parked(t, board, 3, "second ScanPage", func() error { _, _, err := s.ScanPage(3, "", 2); return err })
	scan := parked(t, board, 4, "second Scan", func() error { _, err := s.Scan(4); return err })
	if err := release(); err != nil {
		t.Fatal(err)
	}
	finished(t, "Put", put)
	finished(t, "Delete", del)
	finished(t, "ScanPage", page)
	finished(t, "Scan", scan)
	if v, ok, _ := s.Get(1, 9); !ok || v != 90 {
		t.Fatalf("parked Put lost: Get(9) = %d,%v", v, ok)
	}
	if _, ok, _ := s.Get(1, 1); ok {
		t.Fatal("parked Delete lost: key 1 still present")
	}

	release, err = s.HoldShard(owner, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	through = s.Stats().ReadThroughs
	get := parked(t, board, 1, "Get", func() error { _, _, err := s.Get(1, 2); return err })
	ln := parked(t, board, 2, "Len", func() error { _, err := s.Len(2); return err })
	put = parked(t, board, 3, "Put", func() error { return s.Put(3, 10, 100) })
	if err := release(); err != nil {
		t.Fatal(err)
	}
	finished(t, "Get", get)
	finished(t, "Len", ln)
	finished(t, "Put", put)
	if got := s.Stats().ReadThroughs - through; got != 0 {
		t.Fatalf("ReadThroughs grew by %d across an exclusive hold", got)
	}
	if st := s.Stats(); st.GateParks == 0 {
		t.Fatalf("Stats does not surface the parks: %+v", st)
	}
}

// TestScanPageWindowAdmitsWritersOutside pins the partial window: with
// slots [lo, hi] of a shard read-private, a write to a slot outside the
// range commits at once, a write inside it parks until the publish, and
// a Get inside reads through. A ScanPage whose density estimate comes up
// short — every key clustered at the end of the table — walks the shard
// in a second window and still returns each key once.
func TestScanPageWindowAdmitsWritersOutside(t *testing.T) {
	const owner = 5
	newTL2Store := func(slots int) (*stmkv.Store, *telemetry.Board) {
		tm, err := engine.NewSpec("tl2", stmkv.RegsNeeded(1, slots), owner, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := stmkv.New(tm, 1, slots)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Rehash(1, 0, int64(slots)); err != nil {
			t.Fatal(err)
		}
		return s, tm.(telemetry.Provider).TelemetryBoard()
	}

	const lo, hi = 16, 47
	s, board := newTL2Store(64)
	var inside, outside []int64
	for k := int64(1); k <= 16; k++ {
		if err := s.Put(1, k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(1); k <= 16; k++ {
		if slot, _ := s.SlotOf(1, k); slot >= lo && slot <= hi {
			inside = append(inside, k)
		} else {
			outside = append(outside, k)
		}
	}
	fresh := int64(1000)
	for slot, _ := s.SlotOf(1, fresh); slot >= lo && slot <= hi; slot, _ = s.SlotOf(1, fresh) {
		fresh++
	}
	if len(inside) < 3 || len(outside) < 2 {
		t.Fatalf("keys 1..16 put %d slots inside [%d, %d] and %d outside; the test needs 3 and 2", len(inside), lo, hi, len(outside))
	}

	release, err := s.HoldSlots(owner, 0, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	stalls := func() int64 { st := s.Stats(); return st.GateSpinWakes + st.GateParks + st.GateTimeouts }
	before, through := stalls(), s.Stats().ReadThroughs
	promptly(t, "Put updating a slot outside the window", func() error { return s.Put(1, outside[0], 111) })
	promptly(t, "Put inserting outside the window", func() error { return s.Put(1, fresh, 222) })
	promptly(t, "Delete outside the window", func() error {
		if removed, err := s.Delete(1, outside[1]); err != nil || !removed {
			return fmt.Errorf("Delete(%d) = %v,%v", outside[1], removed, err)
		}
		return nil
	})
	if got := stalls() - before; got != 0 {
		t.Fatalf("writes outside the window stalled %d times", got)
	}
	promptly(t, "Get inside the window", func() error {
		if v, ok, err := s.Get(1, inside[2]); err != nil || !ok || v != inside[2]*10 {
			return fmt.Errorf("Get(%d) = %d,%v,%v", inside[2], v, ok, err)
		}
		return nil
	})
	if got := s.Stats().ReadThroughs - through; got != 1 {
		t.Fatalf("ReadThroughs grew by %d for one Get inside the window, want 1", got)
	}
	put := parked(t, board, 1, "Put inside the window", func() error { return s.Put(1, inside[0], 333) })
	del := parked(t, board, 2, "Delete inside the window", func() error { _, err := s.Delete(2, inside[1]); return err })
	if err := release(); err != nil {
		t.Fatal(err)
	}
	finished(t, "Put inside the window", put)
	finished(t, "Delete inside the window", del)
	for _, want := range []struct {
		key, val int64
		ok       bool
	}{
		{outside[0], 111, true}, {fresh, 222, true}, {outside[1], 0, false},
		{inside[0], 333, true}, {inside[1], 0, false}, {inside[2], inside[2] * 10, true},
	} {
		if v, ok, err := s.Get(1, want.key); err != nil || ok != want.ok || v != want.val {
			t.Fatalf("Get(%d) = %d,%v,%v after the window, want %d,%v", want.key, v, ok, err, want.val, want.ok)
		}
	}

	// 64 keys whose probes start in the top quarter of a 512-slot table:
	// a 32-pair page expects them spread over the whole table, so its
	// first window ends before the first key.
	s, _ = newTL2Store(512)
	var keys []int64
	for k := int64(1); len(keys) < 64; k++ {
		if slot, cap := s.SlotOf(1, k); slot >= cap*3/4 && slot < cap*15/16 {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		if err := s.Put(1, k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	windows := s.Stats().ScanWindows
	pairs, next, err := s.ScanPage(1, "", 32)
	if err != nil || len(pairs) != 32 || next == "" {
		t.Fatalf("first page: %d pairs, next %q, err %v", len(pairs), next, err)
	}
	if got := s.Stats().ScanWindows - windows; got != 2 {
		t.Fatalf("first page over clustered keys took %d windows, want 2", got)
	}
	seen := map[int64]int{}
	for {
		for _, kv := range pairs {
			if kv.Val != kv.Key*10 {
				t.Fatalf("pair %+v breaks the k*10 convention", kv)
			}
			seen[kv.Key]++
		}
		if next == "" {
			break
		}
		if pairs, next, err = s.ScanPage(1, next, 32); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if seen[k] != 1 {
			t.Fatalf("key %d returned %d times, want once", k, seen[k])
		}
	}
	if len(seen) != len(keys) {
		t.Fatalf("walk returned %d distinct keys, want %d", len(seen), len(keys))
	}
}

// val is the value every writer stores under k, so any pair a scan
// returns can be checked without knowing who wrote it.
func val(k int64) int64 { return k*31 + 7 }

// TestScanWindowsBesideChurn runs Scan and ScanPage walkers beside a
// reader of never-modified keys and a writer checked against a plain-map
// oracle, on every TM. The reader's Gets run through
// the walkers' read-private windows; the writer's puts grow and compact
// the shards under the walkers; and every other ScanPage walk rehashes
// every shard between its first two pages, so a rehash of the shard its
// cursor points into is certain to land between two pages. The writer
// keeps going until both walkers have completed walks.
//
// Every loop yields now and then: on one CPU a goroutine is otherwise
// descheduled only where it blocks — a walker inside its fence, window
// open — and whoever holds the CPU starves the rest.
func TestScanWindowsBesideChurn(t *testing.T) {
	const (
		shards, slots = 2, 512
		stable        = 64  // keys 1..stable: prefilled, never modified
		churnKeys     = 128 // the writer's keys: stable+1 .. stable+churnKeys
		scanner       = 3   // thread ids of the two walkers
		pager         = 4
	)
	writerOps := 1500
	if testing.Short() {
		writerOps = 400
	}
	for _, spec := range allSpecs {
		t.Run(spec, func(t *testing.T) {
			tm, err := engine.NewSpec(spec, stmkv.RegsNeeded(shards, slots), pager, nil)
			if err != nil {
				t.Fatal(err)
			}
			s, err := stmkv.New(tm, shards, slots)
			if err != nil {
				t.Fatal(err)
			}
			for k := int64(1); k <= stable; k++ {
				if err := s.Put(1, k, val(k)); err != nil {
					t.Fatal(err)
				}
			}
			var (
				wg     sync.WaitGroup
				stop   atomic.Bool
				errs   = make(chan error, 1)
				oracle = map[int64]bool{}      // the writer's keys, by presence
				walks  [pager + 1]atomic.Int64 // completed walks, by walker thread
			)
			fail := func(format string, args ...any) {
				select {
				case errs <- fmt.Errorf(format, args...):
				default:
				}
				stop.Store(true)
			}
			// checkWalk verifies one complete walk: every pair follows
			// the value convention, every stable key is there, and (for
			// Scan, which never restarts a shard) no key repeats.
			checkWalk := func(who string, pairs []stmkv.KV, exactlyOnce bool) {
				seen := make(map[int64]int, len(pairs))
				for _, kv := range pairs {
					if kv.Val != val(kv.Key) {
						fail("%s: pair %+v breaks the value convention", who, kv)
						return
					}
					seen[kv.Key]++
				}
				for k := int64(1); k <= stable; k++ {
					if seen[k] == 0 || (exactlyOnce && seen[k] != 1) {
						fail("%s: stable key %d returned %d times", who, k, seen[k])
						return
					}
				}
			}
			wg.Add(4)
			go func() { // writer, thread 1: the only thread touching its keys
				defer wg.Done()
				defer stop.Store(true)
				x := uint64(1)
				deadline := time.Now().Add(20 * time.Second)
				covered := func() bool { return walks[scanner].Load() >= 2 && walks[pager].Load() >= 2 }
				for i := 0; (i < writerOps || !covered()) && !stop.Load(); i++ {
					if i%64 == 0 {
						if time.Now().After(deadline) {
							fail("after %d writer ops: %d Scan walks, %d ScanPage walks",
								i, walks[scanner].Load(), walks[pager].Load())
							return
						}
						runtime.Gosched()
					}
					x = x*6364136223846793005 + 1442695040888963407
					k := stable + 1 + int64(x>>33)%churnKeys
					switch (x >> 20) % 4 {
					case 0, 1:
						if err := s.Put(1, k, val(k)); err != nil {
							fail("Put(%d): %v", k, err)
							return
						}
						oracle[k] = true
					case 2:
						removed, err := s.Delete(1, k)
						if err != nil || removed != oracle[k] {
							fail("Delete(%d) = %v,%v; oracle has it: %v", k, removed, err, oracle[k])
							return
						}
						delete(oracle, k)
					default:
						v, ok, err := s.Get(1, k)
						if err != nil || ok != oracle[k] || (ok && v != val(k)) {
							fail("Get(%d) = %d,%v,%v; oracle has it: %v", k, v, ok, err, oracle[k])
							return
						}
					}
				}
			}()
			go func() { // reader, thread 2: stable keys are always there
				defer wg.Done()
				for k := int64(1); !stop.Load(); k = k%stable + 1 {
					if v, ok, err := s.Get(2, k); err != nil || !ok || v != val(k) {
						fail("reader Get(%d) = %d,%v,%v", k, v, ok, err)
						return
					}
					if k == stable {
						runtime.Gosched()
					}
				}
			}()
			go func() {
				defer wg.Done()
				for !stop.Load() {
					pairs, err := s.Scan(scanner)
					if err != nil {
						fail("Scan: %v", err)
						return
					}
					checkWalk("Scan", pairs, true)
					walks[scanner].Add(1)
					runtime.Gosched()
				}
			}()
			go func() {
				defer wg.Done()
				for walk := 0; !stop.Load(); walk++ {
					var all []stmkv.KV
					cursor := ""
					for page := 0; ; page++ {
						pairs, next, err := s.ScanPage(pager, cursor, 32)
						if err != nil {
							fail("ScanPage: %v", err)
							return
						}
						all = append(all, pairs...)
						if cursor = next; cursor == "" {
							break
						}
						if page == 0 && walk%2 == 0 {
							// Alternate the target so the tables change
							// size as well as block.
							for sh := range shards {
								if err := s.Rehash(pager, sh, int64(slots>>(walk/2%2))); err != nil {
									fail("Rehash: %v", err)
									return
								}
							}
						}
						runtime.Gosched()
					}
					checkWalk("ScanPage", all, false)
					walks[pager].Add(1)
				}
			}()
			wg.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
			// Quiescent: the store holds exactly the stable keys and the
			// writer's oracle.
			pairs, err := s.Scan(1)
			if err != nil {
				t.Fatal(err)
			}
			want := stable + len(oracle)
			got := scanMap(t, pairs)
			if len(got) != want {
				t.Fatalf("final Scan has %d keys, want %d", len(got), want)
			}
			for k := range oracle {
				if got[k] != val(k) {
					t.Fatalf("final Scan: writer's key %d ↦ %d", k, got[k])
				}
			}
			if n, err := s.Len(1); err != nil || n != int64(want) {
				t.Fatalf("Len = %d,%v, want %d", n, err, want)
			}
			st := s.Stats()
			t.Logf("walks %d+%d, grows %d, windows %d, read-throughs %d, spin wakes %d, parks %d",
				walks[scanner].Load(), walks[pager].Load(),
				st.Grows, st.ScanWindows, st.ReadThroughs, st.GateSpinWakes, st.GateParks)
		})
		for _, fence := range retiredFenceModes {
			retired := spec + fence
			t.Run(retired, func(t *testing.T) { requireRefused(t, retired) })
		}
	}
}
