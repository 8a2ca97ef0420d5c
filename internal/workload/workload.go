// Package workload provides the synthetic STAMP-like workloads used by
// the fence-overhead and scalability experiments (E9, E13 in
// DESIGN.md). Each workload runs a fixed number of operations per
// thread against a core.TM and reports commit/abort/fence counts, so
// benchmarks can compare TL2 against the global-lock baseline and
// measure the cost of conservative fence placement (Yoo et al. [42]).
package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"safepriv/internal/core"
	"safepriv/internal/telemetry"
)

// FenceMode selects where transactional fences are inserted.
type FenceMode int

const (
	// FenceNone inserts no fences (the workload has no privatization).
	FenceNone FenceMode = iota
	// FenceAfterEveryTxn inserts a fence after every transaction — the
	// conservative placement whose overhead Yoo et al. measured at ~32%
	// average / ~107% worst case.
	FenceAfterEveryTxn
	// FenceSelective inserts fences only where the idiom requires one
	// (before actual non-transactional access phases).
	FenceSelective
)

// String names the mode for benchmark output.
func (m FenceMode) String() string {
	switch m {
	case FenceNone:
		return "none"
	case FenceAfterEveryTxn:
		return "conservative"
	case FenceSelective:
		return "selective"
	}
	return fmt.Sprintf("FenceMode(%d)", int(m))
}

// Stats aggregates workload outcomes.
type Stats struct {
	Commits int64
	Aborts  int64
	Fences  int64
	// PrivLatency is the privatization-latency histogram (time each
	// privatizing bulk operation took, as the caller saw it). Only the
	// KV workloads record it; nil elsewhere.
	PrivLatency *Hist
	// ReclaimLatency is the memory-reclamation latency histogram (Free
	// call to the block re-entering the free list). Only the
	// data-structure churn workloads on a reclaiming allocator record
	// it; nil elsewhere.
	ReclaimLatency *Hist
	// HeapRegs is the allocator's steady-state register footprint
	// after the run (bump high-water): bounded under churn on a
	// reclaiming allocator, monotonically growing on the bump
	// allocator. Zero for workloads without an allocator.
	HeapRegs int64
	// Allocs and Frees are the allocator's exact block counters
	// (transactional: aborted attempts don't count). Allocs-Frees is
	// the live node count. Zero for workloads without a reclaiming
	// allocator.
	Allocs, Frees int64
	// MagCached counts blocks resident in the allocator's per-thread
	// magazines after the run settles (free, merely cached — the gap
	// between HeapRegs and the live set a batch reclaim spec carries).
	// Zero without the magazine layer.
	MagCached int64
	// ReclaimBatches counts batch retires: grace-period registrations
	// that each covered a whole magazine of frees, so
	// Frees/ReclaimBatches is the amortization the batch reclaim mode
	// achieved. Zero without the magazine layer.
	ReclaimBatches int64
	// Telemetry is the TM's aggregated per-thread counter snapshot at
	// the end of the run (zero value when the TM carries no board).
	Telemetry telemetry.Snapshot
	// ScanOps, ScanWindows, ScanPairs are the scan-churn workload's
	// scanner-side tallies: completed whole-structure scans, the
	// privatized windows they took (1 per snapshot scan; one per
	// RangeWindows/ScanPage window otherwise), and the total pairs
	// returned. Zero for workloads without a scanner.
	ScanOps, ScanWindows, ScanPairs int64
	// WriterAbortRate is the abort rate of the churner threads alone
	// (scan-churn), from their telemetry slots over the churn phase —
	// the cost the scanner imposes on writers, separated from the
	// run-wide Telemetry.AbortRate() which also contains the scanner's
	// own retries. Zero without a board or a scanner.
	WriterAbortRate float64
}

// counter keeps per-thread tallies on separate cache lines so the
// harness itself adds no cross-thread contention to the workload.
type slot struct {
	commits, aborts, fences int64
	_                       [40]byte
}

type counter struct{ slots []slot }

func newCounter(threads int) *counter { return &counter{slots: make([]slot, threads+2)} }

func (c *counter) stats() Stats {
	var s Stats
	for i := range c.slots {
		s.Commits += c.slots[i].commits
		s.Aborts += c.slots[i].aborts
		s.Fences += c.slots[i].fences
	}
	return s
}

// runStats is the exit path of the data-structure and store drivers:
// the harness tallies plus the TM's telemetry snapshot.
func (c *counter) runStats(tm core.TM) Stats {
	s := c.stats()
	if p, ok := tm.(telemetry.Provider); ok {
		s.Telemetry = p.TelemetryBoard().Snapshot()
	}
	return s
}

func (c *counter) fence(th int) { c.slots[th].fences++ }

// atomically runs body with retry, counting commits and aborts.
func atomically(tm core.TM, th int, c *counter, body func(core.Txn) error) error {
	attempts := 0
	err := core.Atomically(tm, th, func(tx core.Txn) error {
		attempts++
		return body(tx)
	})
	if err != nil {
		return err
	}
	c.slots[th].commits++
	c.slots[th].aborts += int64(attempts - 1)
	return nil
}

// Bank runs the transfer workload: each of `threads` workers performs
// `ops` transfers between random pairs of the TM's registers
// (accounts). The sum of all accounts is invariant.
func Bank(tm core.TM, threads, ops int, mode FenceMode, seed int64) (Stats, error) {
	c := newCounter(threads)
	accounts := tm.NumRegs()
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for th := 1; th <= threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(th)))
			for i := 0; i < ops; i++ {
				from, to := r.Intn(accounts), r.Intn(accounts)
				if from == to {
					to = (to + 1) % accounts
				}
				amt := int64(r.Intn(5) + 1)
				err := atomically(tm, th, c, func(tx core.Txn) error {
					f, err := tx.Read(from)
					if err != nil {
						return err
					}
					g, err := tx.Read(to)
					if err != nil {
						return err
					}
					if f < amt {
						return nil
					}
					if err := tx.Write(from, f-amt); err != nil {
						return err
					}
					return tx.Write(to, g+amt)
				})
				if err != nil {
					errs <- err
					return
				}
				if mode == FenceAfterEveryTxn {
					tm.Fence(th)
					c.fence(th)
				}
			}
		}(th)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return c.stats(), err
	}
	return c.stats(), nil
}

// Total sums all registers non-transactionally (call when quiesced).
func Total(tm core.TM) int64 {
	var sum int64
	for x := 0; x < tm.NumRegs(); x++ {
		sum += tm.Load(1, x)
	}
	return sum
}

// ReadMostly runs a read-dominated workload: each operation is either a
// read-only scan of `scan` random registers (readPct percent of ops) or
// a single-register update.
func ReadMostly(tm core.TM, threads, ops, scan, readPct int, mode FenceMode, seed int64) (Stats, error) {
	c := newCounter(threads)
	regs := tm.NumRegs()
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for th := 1; th <= threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(th)))
			for i := 0; i < ops; i++ {
				var err error
				if r.Intn(100) < readPct {
					err = atomically(tm, th, c, func(tx core.Txn) error {
						var acc int64
						for k := 0; k < scan; k++ {
							v, err := tx.Read(r.Intn(regs))
							if err != nil {
								return err
							}
							acc += v
						}
						return nil
					})
				} else {
					x := r.Intn(regs)
					err = atomically(tm, th, c, func(tx core.Txn) error {
						v, err := tx.Read(x)
						if err != nil {
							return err
						}
						return tx.Write(x, v+1)
					})
				}
				if err != nil {
					errs <- err
					return
				}
				if mode == FenceAfterEveryTxn {
					tm.Fence(th)
					c.fence(th)
				}
			}
		}(th)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return c.stats(), err
	}
	return c.stats(), nil
}

// Counter is the maximally contended workload: every thread increments
// register 0. Short transactions make conservative fencing's relative
// overhead largest (the "worst case" shape of Yoo et al.).
func Counter(tm core.TM, threads, ops int, mode FenceMode) (Stats, error) {
	c := newCounter(threads)
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for th := 1; th <= threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				err := atomically(tm, th, c, func(tx core.Txn) error {
					v, err := tx.Read(0)
					if err != nil {
						return err
					}
					return tx.Write(0, v+1)
				})
				if err != nil {
					errs <- err
					return
				}
				if mode == FenceAfterEveryTxn {
					tm.Fence(th)
					c.fence(th)
				}
			}
		}(th)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return c.stats(), err
	}
	return c.stats(), nil
}

// Pipeline is the privatization workload: `threads` workers update a
// data region transactionally while the flag (register 0) is even; a
// maintenance thread periodically privatizes the region (odd flag),
// fences (in FenceSelective and FenceAfterEveryTxn modes), processes it
// with uninstrumented accesses, and publishes it back. With FenceNone
// the fence is (unsafely) skipped — only for measuring its cost; the
// workload tolerates the resulting races by not asserting on data.
//
// Register 0 is the flag; registers 1.. are the data region.
func Pipeline(tm core.TM, threads, ops, rounds int, mode FenceMode, seed int64) (Stats, error) {
	c := newCounter(threads)
	regs := tm.NumRegs()
	if regs < 2 {
		return Stats{}, fmt.Errorf("workload: pipeline needs ≥2 registers")
	}
	const flag = 0
	var next atomic.Int64
	next.Store(1 << 20) // data values disjoint from flag protocol values
	var wg sync.WaitGroup
	errs := make(chan error, threads+1)

	// Workers (threads 2..threads+1).
	for th := 2; th <= threads+1; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(th)))
			for i := 0; i < ops; i++ {
				x := 1 + r.Intn(regs-1)
				err := atomically(tm, th, c, func(tx core.Txn) error {
					f, err := tx.Read(flag)
					if err != nil {
						return err
					}
					if f%2 != 0 {
						return nil // privatized: leave the region alone
					}
					return tx.Write(x, next.Add(1))
				})
				if err != nil {
					errs <- err
					return
				}
				if mode == FenceAfterEveryTxn {
					tm.Fence(th)
					c.fence(th)
				}
			}
		}(th)
	}

	// Maintenance thread (thread 1).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < rounds; round++ {
			priv := int64(2*round + 1) // odd
			pub := int64(2*round + 2)  // even
			err := atomically(tm, 1, c, func(tx core.Txn) error {
				return tx.Write(flag, priv)
			})
			if err != nil {
				errs <- err
				return
			}
			if mode != FenceNone {
				tm.Fence(1)
				c.fence(1)
			}
			// Private phase: uninstrumented batch update.
			for x := 1; x < regs; x++ {
				v := tm.Load(1, x)
				tm.Store(1, x, v+next.Add(1))
			}
			err = atomically(tm, 1, c, func(tx core.Txn) error {
				return tx.Write(flag, pub)
			})
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		return c.stats(), err
	}
	return c.stats(), nil
}

// PerThread is the uncontended short-transaction workload: thread t
// increments register t-1 only. No conflicts, minimal transactions —
// the configuration where conservative fencing's relative overhead is
// largest (the worst-case shape of Yoo et al. [42]).
func PerThread(tm core.TM, threads, ops int, mode FenceMode) (Stats, error) {
	c := newCounter(threads)
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for th := 1; th <= threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			// Spread threads' registers across cache lines (8 int64 per
			// 64-byte line).
			x := ((th - 1) * 8) % tm.NumRegs()
			for i := 0; i < ops; i++ {
				err := atomically(tm, th, c, func(tx core.Txn) error {
					v, err := tx.Read(x)
					if err != nil {
						return err
					}
					return tx.Write(x, v+1)
				})
				if err != nil {
					errs <- err
					return
				}
				if mode == FenceAfterEveryTxn {
					tm.Fence(th)
					c.fence(th)
				}
			}
		}(th)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return c.stats(), err
	}
	return c.stats(), nil
}
