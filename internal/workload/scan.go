package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"safepriv/internal/core"
	"safepriv/internal/stmds"
	"safepriv/internal/stmkv"
	"safepriv/internal/telemetry"
)

// Geometry of the scan-churn workload's kv variant: fixed, so RegsFor
// can size the TM without knowing Params.DS.
const (
	// 16 shards of up to 1024 slots: a shard table block is 2*slots
	// registers and must fit the allocator's MaxBlockRegs, and the
	// largest live set RegsFor sizes for (4096 keys over a 8192-key
	// space) hashes to ~256 live keys per shard — 4x headroom.
	scanChurnKVShards = 16
	scanChurnKVSlots  = 1024
	// scanChurnPageLimit is the ScanPage size the kv window scanner
	// walks with.
	scanChurnPageLimit = 256
)

// ScanChurn runs the range-scan-under-churn workload: thread 1 scans
// the whole structure in a loop while threads 2..p.Threads churn it
// (50/50 put/delete over a keyspace of twice the live-set target, k↦k
// values), for p.Ops operations each. The scanner keeps scanning until
// the churners finish, always completing the scan in flight, so every
// run contains at least one full scan taken entirely under churn.
//
// Params.DS picks the structure and Params.Scan the scan strategy:
//
//   - "skip" (default): stmds.SkipMap. "snapshot" reads the whole map
//     in ONE read-only transaction (Snapshot); "window" walks the
//     privatized window iterator (RangeWindows).
//   - "map": the sorted-list stmds.Map; snapshot only.
//   - "kv": stmkv.Store. "snapshot" scans shard-by-shard in read-only
//     transactions (WithTransactionalScan); "window" walks the
//     privatized ScanPage cursor.
//
// Stats gains the scan-side columns: ScanOps/ScanWindows/ScanPairs,
// and WriterAbortRate — the churner threads' own abort rate, kept
// apart from the run-wide Telemetry.AbortRate() because the two modes
// tax writers differently: a snapshot scanner's aborted attempts land
// in the scanner's slot, while window privatization dooms in-flight
// writers (they retry and record the abort themselves).
func ScanChurn(tm core.TM, p Params) (Stats, error) {
	threads, ops := p.Threads, p.Ops
	if threads < 2 {
		return Stats{}, fmt.Errorf("workload: scan-churn needs >= 2 threads (1 scanner + churners), got %d", threads)
	}
	// Both axis vocabularies are validated up front — before any
	// allocator or store is built — with the package's named errors.
	switch p.DS {
	case "", "skip", "map", "kv":
	default:
		return Stats{}, fmt.Errorf("%w: scan-churn %q (want skip, map, or kv)", ErrUnknownDS, p.DS)
	}
	mode := p.Scan
	if mode == "" {
		mode = "window"
	}
	if mode != "snapshot" && mode != "window" {
		return Stats{}, fmt.Errorf("%w: scan-churn %q (want snapshot or window)", ErrUnknownScan, p.Scan)
	}
	live := p.LiveSet
	if live <= 0 {
		live = 256
	}
	keyspace := int64(2 * live)
	hist := new(Hist)

	// The structure-specific closures: point writes for the churners,
	// one whole-structure scan for the scanner (returning how many
	// privatized windows it took and how many pairs it saw), and the
	// end-of-run settle.
	var (
		put    func(th int, k int64) error
		del    func(th int, k int64) error
		scan   func(th int) (windows, pairs int64, err error)
		finish func(st *Stats) error
	)
	switch p.DS {
	case "", "skip", "map":
		alloc, heap, err := dsAllocator(tm, p, hist, dsMapArena)
		if err != nil {
			return Stats{}, err
		}
		var m stmds.OrderedMap
		if p.DS == "map" {
			if mode == "window" {
				return Stats{}, fmt.Errorf("workload: scan-churn windowed scans need the skiplist (DS=skip), not the sorted list")
			}
			m = stmds.NewMap(tm, dsRegHead, alloc)
		} else {
			m = stmds.NewSkipMap(tm, dsSkipHead, threads, alloc)
		}
		put = func(th int, k int64) error { _, err := m.Put(th, k, k); return err }
		del = func(th int, k int64) error { _, err := m.Delete(th, k); return err }
		if mode == "snapshot" {
			scan = func(th int) (int64, int64, error) {
				pairs, err := m.Snapshot(th)
				return 1, int64(len(pairs)), err
			}
		} else {
			sm := m.(*stmds.SkipMap)
			// Window span: an eighth of the keyspace (floor 64), so a
			// scan is several windows and writers outside the active
			// one keep committing while the walk sweeps. One window
			// covering the whole keyspace would stall every writer for
			// every scan of a back-to-back scanning thread — starvation,
			// not measurement.
			span := keyspace / 8
			if span < 64 {
				span = 64
			}
			scan = func(th int) (windows, pairs int64, err error) {
				it := sm.RangeWindows(math.MinInt64, math.MaxInt64, span)
				for {
					page, more, err := it.Next(th)
					if err != nil {
						return windows, pairs, err
					}
					windows++
					pairs += int64(len(page))
					if !more {
						return windows, pairs, nil
					}
				}
			}
		}
		finish = func(st *Stats) error { return dsFinish(st, heap, alloc, hist) }
	case "kv":
		var opts []stmkv.Option
		if mode == "snapshot" {
			opts = append(opts, stmkv.WithTransactionalScan())
		}
		if p.Reclaim == "batch" && !p.UnsafeFence {
			opts = append(opts, stmkv.WithBatchReclaim(threads))
		}
		store, err := stmkv.New(tm, scanChurnKVShards, scanChurnKVSlots, opts...)
		if err != nil {
			return Stats{}, err
		}
		put = func(th int, k int64) error { return store.Put(th, k, k) }
		del = func(th int, k int64) error { _, err := store.Delete(th, k); return err }
		if mode == "snapshot" {
			scan = func(th int) (int64, int64, error) {
				pairs, err := store.Scan(th)
				return int64(scanChurnKVShards), int64(len(pairs)), err
			}
		} else {
			scan = func(th int) (windows, pairs int64, err error) {
				cursor := ""
				for {
					page, next, err := store.ScanPage(th, cursor, scanChurnPageLimit)
					if err != nil {
						return windows, pairs, err
					}
					windows++
					pairs += int64(len(page))
					if next == "" {
						return windows, pairs, nil
					}
					cursor = next
				}
			}
		}
		finish = func(st *Stats) error { return store.Drain(1) }
	}

	// Prefill to the live-set target (even keys) on thread 1 before the
	// clock starts, like map-churn.
	for k := int64(2); k <= keyspace; k += 2 {
		if err := put(1, k); err != nil {
			return Stats{}, fmt.Errorf("scan-churn prefill key %d: %w", k, err)
		}
	}

	var board *telemetry.Board
	if prov, ok := tm.(telemetry.Provider); ok {
		board = prov.TelemetryBoard()
	}
	// Churner-slot baselines, so WriterAbortRate covers the churn phase
	// only (not the prefill).
	baseCommits := make([]int64, threads+1)
	baseAborts := make([]int64, threads+1)
	for th := 2; th <= threads; th++ {
		if sl := board.Slot(th); sl != nil {
			baseCommits[th] = sl.Commits.Load()
			baseAborts[th] = sl.Aborts.Load()
		}
	}

	c := newCounter(threads)
	var churnDone atomic.Bool
	var scanOps, scanWindows, scanPairs int64
	var churnWg, scanWg sync.WaitGroup
	errs := make(chan error, threads)
	for th := 2; th <= threads; th++ {
		churnWg.Add(1)
		go func(th int) {
			defer churnWg.Done()
			r := rand.New(rand.NewSource(p.Seed + int64(th)*2399))
			for i := 0; i < ops; i++ {
				k := 1 + r.Int63n(keyspace)
				var err error
				if r.Intn(2) == 0 {
					err = put(th, k)
				} else {
					err = del(th, k)
				}
				if err != nil {
					errs <- fmt.Errorf("scan-churn churner %d op %d: %w", th, i, err)
					return
				}
				c.slots[th].commits++
			}
		}(th)
	}
	scanWg.Add(1)
	go func() {
		defer scanWg.Done()
		for {
			w, pr, err := scan(1)
			if err != nil {
				errs <- fmt.Errorf("scan-churn scanner: %w", err)
				return
			}
			scanOps++
			scanWindows += w
			scanPairs += pr
			if churnDone.Load() {
				return
			}
		}
	}()
	churnWg.Wait()
	churnDone.Store(true) // scanner finishes the scan in flight, then stops
	scanWg.Wait()
	close(errs)

	st := c.runStats(tm)
	st.ScanOps = scanOps
	st.ScanWindows = scanWindows
	st.ScanPairs = scanPairs
	var wc, wa int64
	for th := 2; th <= threads; th++ {
		if sl := board.Slot(th); sl != nil {
			wc += sl.Commits.Load() - baseCommits[th]
			wa += sl.Aborts.Load() - baseAborts[th]
		}
	}
	if wc+wa > 0 {
		st.WriterAbortRate = float64(wa) / float64(wc+wa)
	}
	if err := finish(&st); err != nil {
		return st, err
	}
	for err := range errs {
		return st, err
	}
	return st, nil
}
