// Package workload provides the synthetic STAMP-like workloads used by
// the fence-overhead and scalability experiments (E9, E13 in README's
// "Reproducing the paper's experiments" table). Each workload runs a
// fixed number of operations per thread against a core.TM and reports
// commit/abort/fence counts, so benchmarks can compare TL2 against the
// global-lock baseline and measure the cost of conservative fence
// placement (Yoo et al. [42]).
package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"safepriv/internal/core"
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
	// fenceSelective inserts fences only where the idiom requires one
	// (before actual non-transactional access phases).
	fenceSelective
)

// String names the mode for benchmark output.
func (m FenceMode) String() string {
	switch m {
	case FenceNone:
		return "none"
	case FenceAfterEveryTxn:
		return "conservative"
	case fenceSelective:
		return "selective"
	}
	return fmt.Sprintf("FenceMode(%d)", int(m))
}

// Stats aggregates workload outcomes.
type Stats struct {
	Commits int64
	Aborts  int64
	Fences  int64
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

// fence issues and counts one transactional fence on thread th.
func (c *counter) fence(tm core.TM, th int) {
	tm.Fence(th)
	c.slots[th].fences++
}

// run runs work on one goroutine per thread id in [first, last], waits
// for all of them, and returns the tallies with the first error any
// worker returned.
func (c *counter) run(first, last int, work func(th int) error) (Stats, error) {
	var wg sync.WaitGroup
	errs := make(chan error, last-first+1)
	for th := first; th <= last; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			if err := work(th); err != nil {
				errs <- err
			}
		}(th)
	}
	wg.Wait()
	close(errs)
	return c.stats(), <-errs
}

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
	return c.run(1, threads, func(th int) error {
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
				return err
			}
			if mode == FenceAfterEveryTxn {
				c.fence(tm, th)
			}
		}
		return nil
	})
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
	return c.run(1, threads, func(th int) error {
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
				return err
			}
			if mode == FenceAfterEveryTxn {
				c.fence(tm, th)
			}
		}
		return nil
	})
}

// Counter is the maximally contended workload: every thread increments
// register 0. Short transactions make conservative fencing's relative
// overhead largest (the "worst case" shape of Yoo et al.).
func Counter(tm core.TM, threads, ops int, mode FenceMode) (Stats, error) {
	return increment(tm, threads, ops, mode, func(int) int { return 0 })
}

// PerThread is the uncontended short-transaction workload: thread t
// increments its own register only. No conflicts, minimal transactions —
// the configuration where conservative fencing's relative overhead is
// largest (the worst-case shape of Yoo et al. [42]).
func PerThread(tm core.TM, threads, ops int, mode FenceMode) (Stats, error) {
	// Spread threads' registers across cache lines (8 int64 per 64-byte
	// line).
	return increment(tm, threads, ops, mode, func(th int) int { return ((th - 1) * 8) % tm.NumRegs() })
}

// increment is Counter and PerThread: each of `threads` workers
// increments register reg(th) `ops` times, one transaction each.
func increment(tm core.TM, threads, ops int, mode FenceMode, reg func(th int) int) (Stats, error) {
	c := newCounter(threads)
	return c.run(1, threads, func(th int) error {
		x := reg(th)
		for i := 0; i < ops; i++ {
			err := atomically(tm, th, c, func(tx core.Txn) error {
				v, err := tx.Read(x)
				if err != nil {
					return err
				}
				return tx.Write(x, v+1)
			})
			if err != nil {
				return err
			}
			if mode == FenceAfterEveryTxn {
				c.fence(tm, th)
			}
		}
		return nil
	})
}

// Pipeline is the privatization workload: `threads` workers update a
// data region transactionally while the flag (register 0) is even; a
// maintenance thread periodically privatizes the region (odd flag),
// fences (in fenceSelective and FenceAfterEveryTxn modes), processes it
// with uninstrumented accesses, and publishes it back. With FenceNone
// the fence is (unsafely) skipped — only for measuring its cost; the
// workload tolerates the resulting races by not asserting on data.
//
// Register 0 is the flag; registers 1.. are the data region. Thread 1
// is the maintenance thread, threads 2..threads+1 the workers.
func Pipeline(tm core.TM, threads, ops, rounds int, mode FenceMode, seed int64) (Stats, error) {
	c := newCounter(threads)
	regs := tm.NumRegs()
	if regs < 2 {
		return Stats{}, fmt.Errorf("workload: pipeline needs ≥2 registers")
	}
	const flag = 0
	var next atomic.Int64
	next.Store(1 << 20) // data values disjoint from flag protocol values

	maintain := func() error {
		for round := 0; round < rounds; round++ {
			priv := int64(2*round + 1) // odd
			pub := int64(2*round + 2)  // even
			err := atomically(tm, 1, c, func(tx core.Txn) error {
				return tx.Write(flag, priv)
			})
			if err != nil {
				return err
			}
			if mode != FenceNone {
				c.fence(tm, 1)
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
				return err
			}
		}
		return nil
	}

	return c.run(1, threads+1, func(th int) error {
		if th == 1 {
			return maintain()
		}
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
				return err
			}
			if mode == FenceAfterEveryTxn {
				c.fence(tm, th)
			}
		}
		return nil
	})
}
