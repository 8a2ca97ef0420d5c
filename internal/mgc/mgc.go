// Package mgc implements the "most general client" testing harness
// (the proof device of §7, turned into a tester): randomized DRF
// programs mixing transactions, fences, and privatized
// non-transactional phases are executed on the real concurrent TL2
// runtime with history recording, and each recorded history is put
// through the full strong-opacity pipeline of internal/opacity.
//
// DRF is by construction: every register belongs to a region guarded by
// a flag register following the privatization protocol (even flag =
// shared, accessed transactionally by anyone; odd flag = private to the
// privatizer, accessed non-transactionally only by it, with a fence
// between the privatizing transaction and the first non-transactional
// access).
package mgc

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"safepriv/internal/core"
	"safepriv/internal/engine"
	"safepriv/internal/opacity"
	"safepriv/internal/record"
)

// Config parameterizes a most-general-client run.
type Config struct {
	// Threads is the number of worker goroutines (thread ids 2..N+1;
	// thread 1 is the privatizer).
	Threads int
	// DataRegs is the number of data registers (register 0 is the
	// region flag).
	DataRegs int
	// TxnsPerThread is the number of transactions each worker runs.
	TxnsPerThread int
	// OpsPerTxn bounds the operations inside each transaction.
	OpsPerTxn int
	// Rounds is the number of privatize/publish cycles.
	Rounds int
	// Seed makes the run reproducible.
	Seed int64
	// TM is the engine specification of the TM under test
	// (engine.Parse); empty selects "tl2". The TM must support a
	// recording sink.
	TM string
	// MakeTM overrides the TM under test with an arbitrary
	// constructor. It must wire the given sink into the TM (for
	// history recording) and support `regs` registers and thread ids
	// 1..threads. When nil, the TM spec is used.
	MakeTM func(sink record.Sink, regs, threads int) core.TM
}

// Result is the outcome of a run.
type Result struct {
	// History length (actions).
	Actions int
	// Transactions and non-transactional accesses recorded.
	Txns, NonTxn int
	// Report is the strong-opacity report.
	Report *opacity.Report
}

// Run executes the workload and returns the recorder (for callers that
// want the raw history).
func Run(cfg Config) (*record.Recorder, error) {
	if cfg.Threads <= 0 || cfg.DataRegs <= 0 {
		return nil, fmt.Errorf("mgc: bad config %+v", cfg)
	}
	rec := record.NewRecorder()
	var tm core.TM
	if cfg.MakeTM != nil {
		tm = cfg.MakeTM(rec, 1+cfg.DataRegs, cfg.Threads+1)
	} else {
		spec := cfg.TM
		if spec == "" {
			spec = "tl2"
		}
		var err error
		tm, err = engine.NewSpec(spec, 1+cfg.DataRegs, cfg.Threads+1, rec)
		if err != nil {
			return nil, err
		}
	}
	const flag = 0
	var vals atomic.Int64
	vals.Store(1 << 20)

	// freshFlag draws a never-written flag value of the given parity (odd
	// = private, even = shared). It is called once per ATTEMPT: a write
	// request that aborts is still an action of the history, so a retry
	// that repeated its value would break the unique-writes condition of
	// Definition 2.1. Add(2) reserves two consecutive values; exactly
	// one of them has the wanted parity.
	freshFlag := func(parity int64) int64 {
		v := vals.Add(2)
		if v&1 != parity {
			v--
		}
		return v
	}

	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }

	for w := 0; w < cfg.Threads; w++ {
		th := w + 2
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + int64(th)*1001))
			for i := 0; i < cfg.TxnsPerThread; i++ {
				err := core.Atomically(tm, th, func(tx core.Txn) error {
					f, err := tx.Read(flag)
					if err != nil {
						return err
					}
					if f%2 != 0 {
						return nil // region privatized: do not touch data
					}
					n := 1 + r.Intn(cfg.OpsPerTxn)
					for k := 0; k < n; k++ {
						x := 1 + r.Intn(cfg.DataRegs)
						if r.Intn(2) == 0 {
							if _, err := tx.Read(x); err != nil {
								return err
							}
						} else if err := tx.Write(x, vals.Add(1)); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					fail(err)
					return
				}
			}
		}(th)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(cfg.Seed * 31))
		for round := 0; round < cfg.Rounds; round++ {
			if err := core.Atomically(tm, 1, func(tx core.Txn) error {
				return tx.Write(flag, freshFlag(1))
			}); err != nil {
				fail(err)
				return
			}
			tm.Fence(1)
			// Private phase: uninstrumented reads and writes.
			for k := 0; k < 3; k++ {
				x := 1 + r.Intn(cfg.DataRegs)
				_ = tm.Load(1, x)
				tm.Store(1, x, vals.Add(1))
			}
			if err := core.Atomically(tm, 1, func(tx core.Txn) error {
				return tx.Write(flag, freshFlag(0))
			}); err != nil {
				fail(err)
				return
			}
		}
	}()
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return rec, nil
}

// RunAndCheck executes the workload and verifies the recorded history:
// well-formedness, DRF, consistency, opacity-graph acyclicity, and the
// witness's membership in Hatomic.
func RunAndCheck(cfg Config) (*Result, error) {
	rec, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	h := rec.History()
	rep, err := opacity.Check(h, opacity.Options{WVer: rec.WVer})
	if err != nil {
		return &Result{Actions: len(h), Report: rep}, err
	}
	res := &Result{Actions: len(h), Report: rep}
	res.Txns = len(rep.Graph.A.Txns)
	res.NonTxn = len(rep.Graph.A.NonTxn)
	return res, nil
}
