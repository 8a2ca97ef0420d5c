package tl2

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"safepriv/internal/atomictm"
	"safepriv/internal/core"
	"safepriv/internal/opacity"
	"safepriv/internal/record"
	"safepriv/internal/spec"
)

// uniqueVals hands out globally unique non-zero values, satisfying the
// paper's unique-writes assumption for recorded histories.
type uniqueVals struct{ n atomic.Int64 }

func (u *uniqueVals) next() int64 { return u.n.Add(1) }

// checkRecorded runs the full strong-opacity pipeline on a recorded
// history and fails the test on any violation.
func checkRecorded(t *testing.T, rec *record.Recorder) *opacity.Report {
	t.Helper()
	h := rec.History()
	rep, err := opacity.Check(h, opacity.Options{WVer: rec.WVer})
	if err != nil {
		t.Fatalf("strong opacity violated: %v\nhistory (%d actions):\n%s", err, len(h), h)
	}
	return rep
}

// TestE6TransactionalStressStrongOpacity: concurrent random purely
// transactional workload on the real TL2; the recorded history must be
// well-formed, DRF (no non-transactional accesses at all) and pass the
// full checker including witness validation (experiment E6).
func TestE6TransactionalStressStrongOpacity(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"gv4", []Option{WithGV4()}},
		{"epochfence", []Option{WithEpochFence()}},
		{"debug", []Option{withDebugInvariants()}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			rec := record.NewRecorder()
			opts := append([]Option{WithSink(rec)}, cfg.opts...)
			tm := New(6, 5, opts...)
			var vals uniqueVals
			var wg sync.WaitGroup
			for th := 1; th <= 4; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(th) * 77))
					for i := 0; i < 25; i++ {
						tx := tm.Begin(th)
						aborted := false
						for op := 0; op < 3 && !aborted; op++ {
							x := r.Intn(tm.NumRegs())
							if r.Intn(2) == 0 {
								if _, err := tx.Read(x); err != nil {
									aborted = true
								}
							} else {
								tx.Write(x, vals.next())
							}
						}
						if !aborted {
							tx.Commit() // either outcome is fine
						}
					}
				}(th)
			}
			wg.Wait()
			rep := checkRecorded(t, rec)
			if !rep.DRF {
				t.Fatal("purely transactional history reported racy")
			}
			if _, err := atomictm.Member(rep.Witness); err != nil {
				t.Fatalf("witness rejected: %v", err)
			}
		})
	}
}

// TestE6PrivatizationStressStrongOpacity: the full mixed workload —
// flag-guarded transactional writers plus a privatize → fence →
// non-transactional mutation → publish cycle — recorded and verified.
// This exercises af/bf edges, cl edges, publication (xpo;txwr), WR/WW
// between transactions and accesses, and the fence well-formedness
// condition (experiments E6 + E8).
func TestE6PrivatizationStressStrongOpacity(t *testing.T) {
	const flag, data = 0, 1
	rec := record.NewRecorder()
	tm := New(2, 5, WithSink(rec))
	var vals uniqueVals
	var wg sync.WaitGroup

	// Flag protocol: VInit (0) or any even value means "shared"; odd
	// values mean "privatized". All flag values are unique.
	// Transactional writers: write data only while the flag is even.
	for th := 2; th <= 4; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				core.Atomically(tm, th, func(tx core.Txn) error {
					f, err := tx.Read(flag)
					if err != nil {
						return err
					}
					if f%2 == 0 {
						return tx.Write(data, vals.next())
					}
					return nil
				})
			}
		}(th)
	}

	// Privatizer (thread 1): privatize (odd flag), fence, mutate
	// non-transactionally, publish back (even flag); repeat.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 8; round++ {
			privVal := int64(1_000_000 + 2*round + 1) // odd: privatized
			pubVal := int64(1_000_000 + 2*round + 2)  // even: shared
			if err := core.Atomically(tm, 1, func(tx core.Txn) error {
				return tx.Write(flag, privVal)
			}); err != nil {
				t.Error(err)
				return
			}
			tm.Fence(1)
			// Private phase: uninstrumented accesses.
			_ = tm.Load(1, data)
			tm.Store(1, data, vals.next())
			// Publish back.
			if err := core.Atomically(tm, 1, func(tx core.Txn) error {
				return tx.Write(flag, pubVal)
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	_ = checkRecorded(t, rec)
}

// TestRecordedHistoryWellFormedness (experiment E8): every recorded
// history, including ones with fences, satisfies Definition 2.1.
func TestRecordedHistoryWellFormedness(t *testing.T) {
	rec := record.NewRecorder()
	tm := New(4, 4, WithSink(rec))
	var vals uniqueVals
	var wg sync.WaitGroup
	for th := 1; th <= 3; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if i%5 == th%5 {
					tm.Fence(th)
					continue
				}
				core.Atomically(tm, th, func(tx core.Txn) error {
					if _, err := tx.Read(th); err != nil {
						return err
					}
					return tx.Write(th, vals.next())
				})
			}
		}(th)
	}
	wg.Wait()
	if _, err := spec.CheckWellFormed(rec.History()); err != nil {
		t.Fatalf("recorded history ill-formed: %v", err)
	}
}

// TestE12ModularAcyclicity: Theorem 6.6's modular decomposition on real
// recorded histories: whenever the small-cycle check and the
// transaction-projection check pass, the full graph is acyclic (and on
// these correct histories all three hold).
func TestE12ModularAcyclicity(t *testing.T) {
	rec := record.NewRecorder()
	tm := New(5, 5, WithSink(rec))
	var vals uniqueVals
	var wg sync.WaitGroup
	for th := 1; th <= 4; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(th) * 13))
			for i := 0; i < 20; i++ {
				core.Atomically(tm, th, func(tx core.Txn) error {
					for op := 0; op < 2; op++ {
						x := r.Intn(tm.NumRegs())
						if r.Intn(2) == 0 {
							if _, err := tx.Read(x); err != nil {
								return err
							}
						} else if err := tx.Write(x, vals.next()); err != nil {
							return err
						}
					}
					return nil
				})
			}
		}(th)
	}
	wg.Wait()
	rep := checkRecorded(t, rec)
	g := rep.Graph
	if err := g.CheckSmallCycles(); err != nil {
		t.Fatalf("HB;DEP small cycle on a correct TL2 history: %v", err)
	}
	if c := g.TxnProjectionCycle(); c != nil {
		t.Fatalf("transaction projection cycle on a correct TL2 history: %v", c)
	}
	if err := g.CheckAcyclic(); err != nil {
		t.Fatalf("full graph cyclic: %v", err)
	}
}

// TestE7DebugInvariantsUnderStress (experiment E7): the runtime
// assertions of the Figure 11 timestamp invariants hold under a
// contended workload.
func TestE7DebugInvariantsUnderStress(t *testing.T) {
	tm := New(3, 9, withDebugInvariants())
	var wg sync.WaitGroup
	for th := 1; th <= 8; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(th)))
			for i := 0; i < 500; i++ {
				core.Atomically(tm, th, func(tx core.Txn) error {
					x := r.Intn(3)
					v, err := tx.Read(x)
					if err != nil {
						return err
					}
					return tx.Write((x+1)%3, v+1)
				})
			}
		}(th)
	}
	wg.Wait()
}
