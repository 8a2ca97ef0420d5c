package safepriv_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/engine"
	"safepriv/internal/hb"
	"safepriv/internal/litmus"
	"safepriv/internal/mgc"
	"safepriv/internal/model"
	"safepriv/internal/oaset"
	"safepriv/internal/opacity"
	"safepriv/internal/rcu"
	"safepriv/internal/record"
	"safepriv/internal/spec"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
	"safepriv/internal/vclock"
	"safepriv/internal/workload"
)

// --- TL2 primitive costs ---

func BenchmarkTL2NonTxnLoad(b *testing.B) {
	tm := engine.MustNewSpec("tl2", 64, 2, nil)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += tm.Load(1, i%64)
	}
	_ = sink
}

func BenchmarkGlobalLockTxn(b *testing.B) {
	tm := engine.MustNewSpec("baseline", 64, 2, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := tm.Begin(1)
		if _, err := tx.Read(i % 64); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Write-set indexing: the seed's per-transaction map vs the
// open-addressing index (internal/oaset). The map version allocates a
// fresh map per transaction (Go maps cannot be reset in O(1)); the
// index resets by generation and allocates only until its table has
// grown to the working-set size. ---

func BenchmarkWriteSetIndex(b *testing.B) {
	for _, size := range []int{64, 256} {
		b.Run(fmt.Sprintf("map/%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// The seed implementation: build a map index once the
				// write-set crosses the small-set threshold.
				m := make(map[int]int, 2*size)
				for k := 0; k < size; k++ {
					m[k] = k
				}
				for k := 0; k < size; k++ {
					if _, ok := m[k]; !ok {
						b.Fatal("lost key")
					}
				}
			}
		})
		b.Run(fmt.Sprintf("oaset/%d", size), func(b *testing.B) {
			var ix oaset.Index
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Reset()
				for k := 0; k < size; k++ {
					ix.Put(k, k)
				}
				for k := 0; k < size; k++ {
					if _, ok := ix.Get(k); !ok {
						b.Fatal("lost key")
					}
				}
			}
		})
	}
}

// BenchmarkTL2LargeWriteTxn measures the TM-level effect: a 128-write
// transaction crosses the small-set threshold, so the seed allocated a
// map in every such transaction; the open-addressing index is reused
// and steady-state allocs/op is 0.
func BenchmarkTL2LargeWriteTxn(b *testing.B) {
	tm := engine.MustNewSpec("tl2", 256, 2, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := tm.Begin(1)
		for x := 0; x < 128; x++ {
			if err := tx.Write(x, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: fence overhead per workload and placement ---

func BenchmarkE9Fence(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	if threads > 8 {
		threads = 8
	}
	const ops = 3000
	wls := []struct {
		name string
		regs int
		run  func(tm core.TM, mode workload.FenceMode) (workload.Stats, error)
	}{
		{"shorttxn", 64, func(tm core.TM, mode workload.FenceMode) (workload.Stats, error) {
			return workload.PerThread(tm, threads, ops, mode)
		}},
		{"bank", 64, func(tm core.TM, mode workload.FenceMode) (workload.Stats, error) {
			return workload.Bank(tm, threads, ops, mode, 1)
		}},
		{"readmostly", 256, func(tm core.TM, mode workload.FenceMode) (workload.Stats, error) {
			return workload.ReadMostly(tm, threads, ops, 4, 90, mode, 1)
		}},
		// threads-1 workers plus the maintenance thread; 10 privatize/
		// publish rounds.
		{"pipeline", 65, func(tm core.TM, mode workload.FenceMode) (workload.Stats, error) {
			return workload.Pipeline(tm, threads-1, ops, 10, mode, 1)
		}},
	}
	for _, w := range wls {
		for _, mode := range []workload.FenceMode{workload.FenceNone, workload.FenceAfterEveryTxn} {
			b.Run(fmt.Sprintf("%s/%s", w.name, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tm := engine.MustNewSpec("tl2", w.regs, threads+2, nil)
					if _, err := w.run(tm, mode); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E13: scalability sweep ---

func BenchmarkE13Scalability(b *testing.B) {
	maxT := runtime.GOMAXPROCS(0)
	if maxT > 16 {
		maxT = 16
	}
	const totalOps = 64_000
	for th := 1; th <= maxT; th *= 2 {
		ops := totalOps / th
		for _, spec := range []string{"tl2", "atomic", "baseline"} {
			b.Run(fmt.Sprintf("%s/threads-%d", spec, th), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tm := engine.MustNewSpec(spec, 256, th+1, nil)
					if _, err := workload.ReadMostly(tm, th, ops, 4, 90, workload.FenceNone, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E13b ablation: the fetch-and-increment clock vs GV4 on a
// read-mostly mix (only the writers tick either) ---

func BenchmarkE13bClockAblation(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	if threads > 8 {
		threads = 8
	}
	const ops = 8000
	for _, spec := range []string{"tl2", "tl2+gv4"} {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tm := engine.MustNewSpec(spec, 256, threads+1, nil)
				if _, err := workload.ReadMostly(tm, threads, ops, 4, 90, workload.FenceNone, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClockContended compares the FAI and GV4 clocks where they
// differ: writer commits hammering the shared clock word (the counter
// workload is all writers).
func BenchmarkClockContended(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	if threads > 8 {
		threads = 8
	}
	for _, spec := range []string{"tl2", "tl2+gv4"} {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tm := engine.MustNewSpec(spec, 1, threads+1, nil)
				if _, err := workload.Counter(tm, threads, 500, workload.FenceNone); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E14: fence implementation ablation ---

func BenchmarkE14FenceQuiet(b *testing.B) {
	for _, im := range []struct {
		name   string
		epochs bool
	}{{"flags", false}, {"epochs", true}} {
		b.Run(im.name, func(b *testing.B) {
			f := rcu.New(8, im.epochs, nil)
			for i := 0; i < b.N; i++ {
				f.Wait()
			}
		})
	}
}

func BenchmarkE14FenceUnderLoad(b *testing.B) {
	// Fences racing short transactions: measures grace-period latency
	// with genuinely active transactions. Each writer commits once
	// before the clock starts, so no fence runs ahead of its load.
	// tl2 waits with epochs (the default), tl2+flags with the paper's
	// flags (the ablation).
	for _, spec := range []string{"tl2+flags", "tl2"} {
		b.Run(spec, func(b *testing.B) {
			tm := engine.MustNewSpec(spec, 8, 6, nil)
			stop := make(chan struct{})
			var wg, started sync.WaitGroup
			for th := 2; th <= 5; th++ {
				wg.Add(1)
				started.Add(1)
				go func(th int) {
					defer wg.Done()
					x := th - 2
					for n := 0; ; n++ {
						select {
						case <-stop:
							return
						default:
						}
						core.Atomically(tm, th, func(tx core.Txn) error {
							v, err := tx.Read(x)
							if err != nil {
								return err
							}
							return tx.Write(x, v+1)
						})
						if n == 0 {
							started.Done()
						}
					}
				}(th)
			}
			started.Wait()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm.Fence(1)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// --- Global clock ablation (raw clock word) ---

func BenchmarkClockTick(b *testing.B) {
	for _, c := range []struct {
		name string
		ck   vclock.Clock
	}{
		{"fai", vclock.NewFAI()},
		{"gv4", vclock.NewGV4()},
	} {
		b.Run(c.name, func(b *testing.B) {
			var exclusive atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				n := int64(0)
				for pb.Next() {
					if _, excl := c.ck.Tick(); excl {
						n++
					}
				}
				exclusive.Add(n)
			})
			b.ReportMetric(float64(exclusive.Load())/float64(b.N), "exclusive/op")
		})
	}
}

// --- E1/E2: model-checking costs ---

func BenchmarkE1Fig1aModelCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := model.Explore(model.Config{Prog: litmus.Fig1a(true), Model: model.TL2Kind}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2Fig1bModelCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := model.Explore(model.Config{Prog: litmus.Fig1b(true), Model: model.TL2Kind}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: strong-opacity checker cost on recorded histories ---

func BenchmarkE6OpacityCheck(b *testing.B) {
	rec, err := mgc.Run(mgc.Config{
		Threads: 4, DataRegs: 4, TxnsPerThread: 25, OpsPerTxn: 3, Rounds: 5, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := rec.History()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opacity.Check(h, opacity.Options{WVer: rec.WVer}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Recording overhead ---

func BenchmarkRecordingOverhead(b *testing.B) {
	for _, v := range []struct {
		name string
		mk   func() core.TM
	}{
		{"bare", func() core.TM { return engine.MustNewSpec("tl2", 8, 2, nil) }},
		{"recorded", func() core.TM { return engine.MustNewSpec("tl2", 8, 2, record.NewRecorder()) }},
	} {
		b.Run(v.name, func(b *testing.B) {
			tm := v.mk()
			for i := 0; i < b.N; i++ {
				tx := tm.Begin(1)
				tx.Write(i%8, int64(i+1))
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Transactional data structures (STAMP-style usage) ---

// benchHeap is a per-free stmalloc heap over tm's registers from 8 on;
// the structures' head blocks sit below it.
func benchHeap(b *testing.B, tm core.TM) *stmalloc.Heap {
	heap, err := stmalloc.New(tm, 8, tm.NumRegs())
	if err != nil {
		b.Fatal(err)
	}
	return heap
}

func BenchmarkStmSetInsert(b *testing.B) {
	for _, spec := range []string{"tl2", "norec", "baseline"} {
		b.Run(spec, func(b *testing.B) {
			tm := engine.MustNewSpec(spec, 1<<20, 10, nil)
			set := stmds.NewHashSet(tm, 1, benchHeap(b, tm))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := set.Insert(1, int64(i%4096+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStmSetContainsParallel(b *testing.B) {
	for _, spec := range []string{"tl2", "norec"} {
		b.Run(spec, func(b *testing.B) {
			tm := engine.MustNewSpec(spec, 1<<18, 33, nil)
			set := stmds.NewHashSet(tm, 1, benchHeap(b, tm))
			for k := int64(1); k <= 256; k++ {
				if _, err := set.Insert(1, k*3); err != nil {
					b.Fatal(err)
				}
			}
			var tid atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				th := int(tid.Add(1))
				k := int64(1)
				for pb.Next() {
					if _, err := set.Contains(th, k%768); err != nil {
						b.Fatal(err)
					}
					k += 7
				}
			})
		})
	}
}

// --- Lock-order ablation ---

func BenchmarkLockOrder(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	if threads > 8 {
		threads = 8
	}
	for _, spec := range []string{"tl2", "tl2+sorted"} {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tm := engine.MustNewSpec(spec, 16, threads+1, nil)
				if _, err := workload.Bank(tm, threads, 2000, workload.FenceNone, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Checker building blocks ---

func BenchmarkHBCompute(b *testing.B) {
	rec, err := mgc.Run(mgc.Config{
		Threads: 4, DataRegs: 4, TxnsPerThread: 25, OpsPerTxn: 3, Rounds: 5, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	a, err := spec.CheckWellFormed(rec.History())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hb.Compute(a)
	}
}

func BenchmarkDRFCheck(b *testing.B) {
	rec, err := mgc.Run(mgc.Config{
		Threads: 4, DataRegs: 4, TxnsPerThread: 25, OpsPerTxn: 3, Rounds: 5, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	a, err := spec.CheckWellFormed(rec.History())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := hb.DRF(a); !ok {
			b.Fatal("racy")
		}
	}
}
