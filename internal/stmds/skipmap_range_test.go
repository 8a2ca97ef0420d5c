// Scan-semantics suite for the windowed privatized range scans: the
// deterministic pagination contract, and the -race churn suite run on
// every TM (the scan-during-churn leg of CI).
package stmds_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/core/coretest"
	"safepriv/internal/engine"
	"safepriv/internal/region"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
)

// TestRangeWindowsPagination pins the single-thread semantics: a full
// Range equals Snapshot, subranges are inclusive on both bounds, pages
// are sorted and duplicate-free, the cursor resumes a scan exactly,
// early stop works, and an inverted range is empty.
func TestRangeWindowsPagination(t *testing.T) {
	_, sm, _ := demandHeap(t, "tl2", 1, 600)
	for k := int64(3); k <= 1500; k += 3 {
		if _, err := sm.Put(1, k, k*7+1); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sm.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}

	collect := func(from, to, span int64) []stmds.KV {
		t.Helper()
		var out []stmds.KV
		it := sm.RangeWindows(from, to, span)
		for {
			pairs, more, err := it.Next(1)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, pairs...)
			if !more {
				return out
			}
		}
	}

	full := collect(math.MinInt64, math.MaxInt64, 100)
	if len(full) != len(snap) {
		t.Fatalf("windowed full scan returned %d pairs, snapshot %d", len(full), len(snap))
	}
	for i := range full {
		if full[i] != snap[i] {
			t.Fatalf("pair %d: windowed %v vs snapshot %v", i, full[i], snap[i])
		}
	}

	// Range (the callback form) agrees and respects inclusive bounds.
	var sub []stmds.KV
	if err := sm.Range(1, 300, 900, func(k, v int64) bool {
		sub = append(sub, stmds.KV{Key: k, Val: v})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var want []stmds.KV
	for _, kv := range snap {
		if kv.Key >= 300 && kv.Key <= 900 {
			want = append(want, kv)
		}
	}
	if len(sub) != len(want) {
		t.Fatalf("Range[300,900] returned %d pairs, want %d", len(sub), len(want))
	}
	for i := range sub {
		if sub[i] != want[i] {
			t.Fatalf("Range[300,900] pair %d: %v want %v", i, sub[i], want[i])
		}
	}

	// Cursor resume: abandon an iterator mid-scan, resume from Cursor.
	it := sm.RangeWindows(1, 1500, 64)
	var head []stmds.KV
	for i := 0; i < 3; i++ {
		pairs, more, err := it.Next(1)
		if err != nil {
			t.Fatal(err)
		}
		head = append(head, pairs...)
		if !more {
			t.Fatalf("scan exhausted after %d windows of span 64 over %d pairs", i+1, len(snap))
		}
	}
	resumed := collect(it.Cursor(), 1500, 64)
	combined := append(head, resumed...)
	if len(combined) != len(snap) {
		t.Fatalf("resume split scan returned %d pairs, want %d", len(combined), len(snap))
	}
	for i := range combined {
		if combined[i] != snap[i] {
			t.Fatalf("resume split pair %d: %v want %v", i, combined[i], snap[i])
		}
	}

	// Early stop.
	n := 0
	if err := sm.Range(1, math.MinInt64, math.MaxInt64, func(k, v int64) bool {
		n++
		return n < 10
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("early-stopped Range visited %d pairs, want 10", n)
	}

	// The int64 extremes: a scan from MinInt64 to MaxInt64 with no
	// effective span cap walks every key once, in order, across the
	// empty stretches between MinInt64+1, the dense run and MaxInt64-1,
	// and so does a scan whose first window is empty. The sparse ladder
	// grows each window's key width by a factor of windowPairs until
	// the next width no longer fits in 64 bits.
	extremes := []int64{math.MinInt64 + 1, -1, 0}
	for k := int64(1); k <= 3000; k++ {
		extremes = append(extremes, k)
	}
	extremes = append(extremes, math.MaxInt64-1)
	ladder := []int64{0, 1 << 20, 1 << 30, 1 << 40, 1 << 50, 1 << 60, math.MaxInt64 - 1}
	for _, row := range []struct {
		name string
		keys []int64
		from int64
	}{
		{"extremes", extremes, math.MinInt64},
		{"extremes-empty-first-window", extremes, math.MinInt64 + 2},
		{"ladder", ladder, 0},
	} {
		_, m, _ := demandHeap(t, "tl2", 1, len(row.keys))
		var want []stmds.KV
		for _, k := range row.keys {
			if _, err := m.Put(1, k, k*7+1); err != nil {
				t.Fatal(err)
			}
			if k >= row.from {
				want = append(want, stmds.KV{Key: k, Val: k*7 + 1})
			}
		}
		for _, span := range []int64{math.MaxInt64, 0} {
			var got []stmds.KV
			it := m.RangeWindows(row.from, math.MaxInt64, span)
			for more := true; more; {
				var pairs []stmds.KV
				if pairs, more, err = it.Next(1); err != nil {
					t.Fatal(err)
				}
				got = append(got, pairs...)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s, span %d: scan returned %d pairs, want %d, each once, in order", row.name, span, len(got), len(want))
			}
		}
	}

	// Inverted and empty ranges.
	if got := collect(900, 300, 100); len(got) != 0 {
		t.Fatalf("inverted range returned %d pairs", len(got))
	}
	if got := collect(1501, math.MaxInt64, 100); len(got) != 0 {
		t.Fatalf("past-the-end range returned %d pairs", len(got))
	}

	// A window denser than its slice: under a 256-key span the second
	// window outgrows the slice sized from the sparse first one, so it
	// ends early, again and again as the slice doubles, and the last
	// early end falls in the window that reaches the scan's end. Every
	// key still comes back once, in ascending order.
	_, dense, _ := demandHeap(t, "tl2", 1, 2600)
	want = putSparseThenDense(t, dense)
	it = dense.RangeWindows(1, denseTo, 256)
	var got []stmds.KV
	windows := 0
	for more := true; more; windows++ {
		var pairs []stmds.KV
		if pairs, more, err = it.Next(1); err != nil {
			t.Fatal(err)
		}
		got = append(got, pairs...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("sparse-then-dense scan returned %d pairs, want %d, each once, in order", len(got), len(want))
	}
	if spanWindows := int((denseTo + 255) / 256); windows <= spanWindows {
		t.Fatalf("sparse-then-dense scan took %d windows, want more than %d (early ends)", windows, spanWindows)
	}
}

// guardProbe is a core.TM that records the key bounds of every scan
// window a SkipMap at head privatizes: at each Fence that finds the
// guard odd, the range [lo, hi] its guard registers hold.
type guardProbe struct {
	core.TM
	head   int
	lo, hi []int64
}

func (p *guardProbe) Fence(th int) {
	p.TM.Fence(th)
	if p.Load(th, p.head+stmds.SkipMaxLevel)&1 == 1 {
		p.lo = append(p.lo, p.Load(th, p.head+stmds.SkipMaxLevel+1))
		p.hi = append(p.hi, p.Load(th, p.head+stmds.SkipMaxLevel+2))
	}
}

// TestRangeWindowsBounded: a scan whose span covers the whole dense
// key set still walks at most WindowPairs pairs per window, guards at
// most 2 × WindowPairs keys per window after the first, and returns
// every key once, in order.
func TestRangeWindowsBounded(t *testing.T) {
	const n = 8192
	regs := arenaAt + stmalloc.RegsForDemand(4, 1, 3, stmds.SkipMapDemand(n))
	probe := &guardProbe{TM: engine.MustNewSpec("tl2", regs, 3, nil), head: skipHead}
	heap, err := stmalloc.New(probe, arenaAt, probe.NumRegs(), stmalloc.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	sm := stmds.NewSkipMap(probe, skipHead, 1, heap)
	var want []stmds.KV
	for k := int64(1); k <= n; k++ {
		if _, err := sm.Put(1, k, k*7+1); err != nil {
			t.Fatal(err)
		}
		want = append(want, stmds.KV{Key: k, Val: k*7 + 1})
	}
	var got []stmds.KV
	it, windows := sm.RangeWindows(1, n, n), 0
	for more := true; more; windows++ {
		var pairs []stmds.KV
		if pairs, more, err = it.Next(1); err != nil {
			t.Fatal(err)
		}
		if len(pairs) > stmds.WindowPairs {
			t.Fatalf("window %d returned %d pairs, want at most %d", windows, len(pairs), stmds.WindowPairs)
		}
		got = append(got, pairs...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("scan returned %d pairs, want %d, each once, in order", len(got), len(want))
	}
	if len(probe.lo) != windows {
		t.Fatalf("probe saw %d private windows at a fence, the scan ran %d", len(probe.lo), windows)
	}
	for i := 1; i < len(probe.lo); i++ {
		if w := probe.hi[i] - probe.lo[i] + 1; w > 2*stmds.WindowPairs {
			t.Fatalf("window %d guards [%d, %d], %d keys, want at most %d", i, probe.lo[i], probe.hi[i], w, 2*stmds.WindowPairs)
		}
	}
}

// denseTo is the last key putSparseThenDense inserts.
const denseTo = 2500

// putSparseThenDense puts every 32nd key of 1..256 and every key of
// 257..denseTo into sm and returns the pairs in key order.
func putSparseThenDense(t *testing.T, sm *stmds.SkipMap) []stmds.KV {
	t.Helper()
	var kvs []stmds.KV
	for k := int64(1); k <= denseTo; k++ {
		if k <= 256 && k%32 != 0 {
			continue
		}
		if _, err := sm.Put(1, k, k*7+1); err != nil {
			t.Fatal(err)
		}
		kvs = append(kvs, stmds.KV{Key: k, Val: k*7 + 1})
	}
	return kvs
}

// TestRangeWindowsAllocateNothing: from a window's fence to its
// publish, a windowed scan allocates nothing, early-ended windows
// included.
func TestRangeWindowsAllocateNothing(t *testing.T) {
	if coretest.RaceEnabled {
		t.Skip("-race: sync.Pool drops Puts, so the fence allocates")
	}
	regs := arenaAt + stmalloc.RegsForDemand(4, 1, 3, stmds.SkipMapDemand(denseTo))
	probe := coretest.NewWindowProbe(engine.MustNewSpec("tl2", regs, 3, nil))
	heap, err := stmalloc.New(probe, arenaAt, probe.NumRegs(), stmalloc.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	sm := stmds.NewSkipMap(probe, skipHead, 1, heap)
	keys := len(putSparseThenDense(t, sm))
	probe.Measure(func() {
		for _, span := range []int64{64, 256, 4096} {
			it, got := sm.RangeWindows(1, denseTo, span), 0
			for more := true; more; {
				var pairs []stmds.KV
				if pairs, more, err = it.Next(1); err != nil {
					t.Fatal(err)
				}
				got += len(pairs)
			}
			if got != keys {
				t.Fatalf("span %d: scan returned %d pairs, want %d", span, got, keys)
			}
		}
	})
	if probe.Mallocs != 0 {
		t.Fatalf("%d allocations inside %d scan windows, want 0", probe.Mallocs, probe.Windows)
	}
}

// TestWindowIterAllocs: every window of a walk reuses the iterator's
// one buffer, so once the first window has sized it to windowPairs, a
// Next call allocates nothing at all, privatize, fence and publish
// included.
func TestWindowIterAllocs(t *testing.T) {
	if coretest.RaceEnabled {
		t.Skip("-race: sync.Pool drops Puts, so the fence allocates")
	}
	const n = 8 * stmds.WindowPairs
	_, sm, _ := demandHeap(t, "tl2", 1, n)
	for k := int64(1); k <= n; k++ {
		if _, err := sm.Put(1, k, k*7+1); err != nil {
			t.Fatal(err)
		}
	}
	// With no span cap the first window wants windowPairs pairs, the
	// most any window wants; the walk then takes n/windowPairs windows.
	it := sm.RangeWindows(1, n, 0)
	got := 0
	next := func() {
		pairs, more, err := it.Next(1)
		if err != nil {
			t.Fatal(err)
		}
		if got += len(pairs); !more && got != n {
			t.Fatalf("walk returned %d pairs, want %d", got, n)
		}
	}
	next()
	// AllocsPerRun runs next once more before the runs it counts.
	if allocs := testing.AllocsPerRun(n/stmds.WindowPairs-2, next); allocs != 0 {
		t.Fatalf("Next allocates %v times per window after the first, want 0", allocs)
	}
	if !it.Done() {
		t.Fatalf("walk not done after %d windows of %d pairs", n/stmds.WindowPairs, stmds.WindowPairs)
	}
}

// TestRangeDuringChurn is the -race suite behind CI's scan leg: on
// every TM, churners put/delete even keys (k↦k*7+1 value
// convention) while two scanner threads run windowed full scans
// concurrently (the second exercises scanner-vs-scanner parking).
// Every scan must be strictly sorted (duplicate-free across pages),
// every pair must obey the value convention (a recycled node would
// surface another key's value), and the stable odd keys — inserted up
// front and never deleted — must ALL appear in every scan: each one is
// live for the whole run, and per-window atomicity guarantees its
// window shows it.
func TestRangeDuringChurn(t *testing.T) {
	const churners = 3
	ops := 400
	if testing.Short() {
		ops = 120
	}
	for _, spec := range engine.TMs() {
		t.Run(spec, func(t *testing.T) {
			threads := churners + 2 // +2 scanner threads
			heap, sm, _ := demandHeap(t, spec, threads, 500)
			var stable []int64
			for k := int64(1); k <= 399; k += 20 {
				stable = append(stable, k)
				if _, err := sm.Put(1, k, k*7+1); err != nil {
					t.Fatal(err)
				}
			}
			var stop atomic.Bool
			errs := make(chan error, threads)
			var churn sync.WaitGroup
			for th := 1; th <= churners; th++ {
				churn.Add(1)
				go func(th int) {
					defer churn.Done()
					r := rand.New(rand.NewSource(int64(th) * 7919))
					for i := 0; i < ops; i++ {
						k := 2 * (1 + r.Int63n(200)) // even keys only
						var err error
						if r.Intn(2) == 0 {
							_, err = sm.Put(th, k, k*7+1)
						} else {
							_, err = sm.Delete(th, k)
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}(th)
			}
			var scans sync.WaitGroup
			for s := 0; s < 2; s++ {
				scans.Add(1)
				go func(th int) {
					defer scans.Done()
					for {
						last := int64(math.MinInt64)
						seen := 0
						it := sm.RangeWindows(math.MinInt64, math.MaxInt64, 64)
						for {
							pairs, more, err := it.Next(th)
							if err != nil {
								errs <- err
								return
							}
							for _, kv := range pairs {
								if kv.Key <= last {
									errs <- fmt.Errorf("scan keys not strictly increasing: %d after %d", kv.Key, last)
									return
								}
								last = kv.Key
								if kv.Val != kv.Key*7+1 {
									errs <- fmt.Errorf("scan value %d for key %d breaks the k*7+1 convention", kv.Val, kv.Key)
									return
								}
								if kv.Key%2 == 1 {
									seen++
								}
							}
							if !more {
								break
							}
						}
						if seen != len(stable) {
							errs <- fmt.Errorf("scan saw %d of %d stable keys", seen, len(stable))
							return
						}
						if stop.Load() {
							return
						}
					}
				}(churners + 1 + s)
			}
			churn.Wait()
			stop.Store(true)
			scans.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := heap.Drain(1); err != nil {
				t.Fatal(err)
			}
			snap, err := sm.Snapshot(1)
			if err != nil {
				t.Fatal(err)
			}
			if st := heap.Stats(); st.Live != int64(len(snap)) {
				t.Fatalf("leak accounting after scan churn: live %d blocks, resident pairs %d (stats %+v)",
					st.Live, len(snap), st)
			}
		})
		// The coalescing and deferred fence modes are gone: the paper
		// has one safe fence. Their rows pin that the engine refuses
		// the spec.
		for _, fence := range []string{"+combine", "+defer"} {
			retired := spec + fence
			t.Run(retired, func(t *testing.T) {
				if _, err := engine.NewSpec(retired, 64, 2, nil); err == nil || !strings.Contains(err.Error(), "unknown modifier") {
					t.Fatalf("NewSpec(%q) = %v, want an unknown-modifier error", retired, err)
				}
			})
		}
	}
}

// TestPutTxWindowCheck pins which writes a read-private scan window
// refuses. The map holds 10, 20 and 30; each row sets the guard's
// registers as a window's privatizing transaction leaves them (or
// leaves the map shared) and runs one PutTx. A write is refused exactly
// when its key is at or past the window's start and it splices at a
// node the walker follows: the level-0 predecessor's key is at most
// the window's end. A front-of-list insert has predecessor key
// MinInt64, so it must pass when no window is open.
func TestPutTxWindowCheck(t *testing.T) {
	tests := []struct {
		name    string
		window  *region.Window // nil: shared
		key     int64
		refused bool
	}{
		{"front insert, no window", nil, 1, false},
		{"update, no window", nil, 20, false},
		{"front insert, window at front", &region.Window{Lo: 0, Hi: 5}, 1, true},
		{"update in window", &region.Window{Lo: 15, Hi: 25}, 20, true},
		{"insert below window", &region.Window{Lo: 15, Hi: 25}, 5, false},
		{"insert after window's last node", &region.Window{Lo: 15, Hi: 25}, 27, true},
		{"insert past window", &region.Window{Lo: 15, Hi: 25}, 35, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			regs := arenaAt + stmalloc.RegsForDemand(4, 1, 3, stmds.SkipMapDemand(16))
			tm := engine.MustNewSpec("tl2", regs, 2, nil)
			heap, err := stmalloc.New(tm, arenaAt, tm.NumRegs(), stmalloc.WithShards(4))
			if err != nil {
				t.Fatal(err)
			}
			sm := stmds.NewSkipMap(tm, skipHead, 1, heap)
			// Put would wait on the gate if the check refused the front
			// insert of 10; run each PutTx once instead.
			for _, k := range []int64{10, 20, 30} {
				err := core.Atomically(tm, 1, func(tx core.Txn) error {
					_, err := sm.PutTx(tx, 1, k, k, 1)
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if w := tt.window; w != nil {
				tm.Store(1, skipHead+stmds.SkipMaxLevel, region.ReadPrivate)
				tm.Store(1, skipHead+stmds.SkipMaxLevel+1, w.Lo)
				tm.Store(1, skipHead+stmds.SkipMaxLevel+2, w.Hi)
			}
			tx := tm.Begin(1)
			_, err = sm.PutTx(tx, 1, tt.key, -tt.key, 1)
			if tx.Live() {
				tx.Abort()
			}
			switch {
			case tt.refused && !errors.Is(err, region.ErrPrivate):
				t.Fatalf("PutTx(%d) = %v, want region.ErrPrivate", tt.key, err)
			case !tt.refused && err != nil:
				t.Fatalf("PutTx(%d) = %v, want it to pass", tt.key, err)
			}
		})
	}
}
