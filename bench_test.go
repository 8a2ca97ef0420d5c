package safepriv_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safepriv/internal/adapt"
	"safepriv/internal/core"
	"safepriv/internal/engine"
	"safepriv/internal/hb"
	"safepriv/internal/kvserve"
	"safepriv/internal/litmus"
	"safepriv/internal/mgc"
	"safepriv/internal/model"
	"safepriv/internal/oaset"
	"safepriv/internal/opacity"
	"safepriv/internal/rcu"
	"safepriv/internal/record"
	"safepriv/internal/spec"
	"safepriv/internal/stmds"
	"safepriv/internal/stmkv"
	"safepriv/internal/telemetry"
	"safepriv/internal/vclock"
	"safepriv/internal/workload"
)

// --- TL2 primitive costs ---

func BenchmarkTL2ReadOnlyTxn(b *testing.B) {
	tm := engine.MustNewSpec("tl2", 64, 2, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := tm.Begin(1)
		for x := 0; x < 4; x++ {
			if _, err := tx.Read(x); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTL2WriteTxn(b *testing.B) {
	tm := engine.MustNewSpec("tl2", 64, 2, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := tm.Begin(1)
		if err := tx.Write(i%64, int64(i+1)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

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
	}{
		{"shorttxn", 64},
		{"bank", 64},
		{"readmostly", 256},
		{"pipeline", 65},
	}
	for _, w := range wls {
		run, ok := workload.ByName(w.name)
		if !ok {
			b.Fatalf("unknown workload %q", w.name)
		}
		for _, mode := range []workload.FenceMode{workload.FenceNone, workload.FenceAfterEveryTxn} {
			b.Run(fmt.Sprintf("%s/%s", w.name, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tm := engine.MustNewSpec("tl2", w.regs, threads+2, nil)
					// Rounds 10 matches the seed benchmark's pipeline shape.
					if _, err := run(tm, workload.Params{Threads: threads, Ops: ops, Mode: mode, Seed: 1, Rounds: 10}); err != nil {
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
		name string
		mk   func(int) rcu.Quiescer
	}{
		{"flags", func(n int) rcu.Quiescer { return rcu.NewFlags(n) }},
		{"epochs", func(n int) rcu.Quiescer { return rcu.NewEpochs(n) }},
	} {
		b.Run(im.name, func(b *testing.B) {
			q := im.mk(8)
			for i := 0; i < b.N; i++ {
				q.Wait()
			}
		})
	}
}

func BenchmarkE14FenceUnderLoad(b *testing.B) {
	// Fences racing short transactions: measures grace-period latency
	// with genuinely active transactions.
	for _, spec := range []string{"tl2", "tl2+epochs"} {
		b.Run(spec, func(b *testing.B) {
			tm := engine.MustNewSpec(spec, 8, 6, nil)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for th := 2; th <= 5; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					x := th - 2
					for {
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
					}
				}(th)
			}
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
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					c.ck.Tick()
				}
			})
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

func BenchmarkStmSetInsert(b *testing.B) {
	for _, spec := range []string{"tl2", "norec", "baseline"} {
		b.Run(spec, func(b *testing.B) {
			tm := engine.MustNewSpec(spec, 1<<20, 10, nil)
			alloc := stmds.NewAlloc(tm, 4, 8, tm.NumRegs())
			set := stmds.NewSet(tm, 1, alloc)
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
			alloc := stmds.NewAlloc(tm, 4, 8, tm.NumRegs())
			set := stmds.NewSet(tm, 1, alloc)
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

// --- KV store: shard scaling and privatization cost ---

// kvBenchRegs hosts the largest geometry so every shard count in the
// sweep shares one register budget (total slot capacity stays roughly
// constant as shards vary).
var kvBenchRegs = stmkv.RegsNeeded(16, 256)

// kvBenchShards is the shard-scaling sweep.
var kvBenchShards = []int{1, 4, 16}

func kvBenchThreads() int {
	threads := runtime.GOMAXPROCS(0)
	if threads > 8 {
		threads = 8
	}
	return threads
}

// BenchmarkKVStore sweeps TM × shard count on the mixed KV workload
// (with periodic privatizing scans), the store's hot path.
func BenchmarkKVStore(b *testing.B) {
	threads := kvBenchThreads()
	const ops = 3000
	for _, shards := range kvBenchShards {
		for _, spec := range engine.TMs() {
			b.Run(fmt.Sprintf("%s/shards-%d", spec, shards), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tm := engine.MustNewSpec(spec, kvBenchRegs, threads+1, nil)
					cfg := workload.KVConfig{Shards: shards, ScanEvery: 500}
					if _, err := workload.KVStore(tm, threads, ops, cfg, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKVScanMode contrasts the two bulk-read strategies on TL2 and
// NOrec: fence-based shard privatization (the paper's idiom) vs one big
// read-only transaction per shard.
func BenchmarkKVScanMode(b *testing.B) {
	for _, spec := range []string{"tl2", "norec"} {
		for _, mode := range []struct {
			name string
			opts []stmkv.Option
		}{
			{"privatize", nil},
			{"txnscan", []stmkv.Option{stmkv.WithTransactionalScan()}},
		} {
			b.Run(fmt.Sprintf("%s/%s", spec, mode.name), func(b *testing.B) {
				tm := engine.MustNewSpec(spec, stmkv.RegsNeeded(4, 256), 3, nil)
				s, err := stmkv.New(tm, 4, 256, mode.opts...)
				if err != nil {
					b.Fatal(err)
				}
				for k := int64(1); k <= 512; k++ {
					if err := s.Put(1, k, k); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Scan(1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchProcs is the multi-core truth axis: every emitter measures each
// configuration under these GOMAXPROCS settings, so the JSON shows how
// the numbers move when goroutines actually run in parallel (or, on a
// small host, how they degrade under timeslicing).
var benchProcs = []int{1, 2, 4}

// withProcs runs f under GOMAXPROCS=procs and restores the old value.
func withProcs(procs int, f func()) {
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	f()
}

// benchWorkers is the worker count for the procs-swept emitters: at
// least as many workers as the widest GOMAXPROCS setting, so shrinking
// the procs axis changes real scheduling (timeslicing the same
// workers) instead of leaving processors idle.
func benchWorkers() int {
	threads := kvBenchThreads()
	if max := benchProcs[len(benchProcs)-1]; threads < max {
		threads = max
	}
	return threads
}

// telemetrySnap reads tm's telemetry board (zero snapshot when the TM
// carries none) — the emitters subtract a pre-run snapshot so warmup
// traffic doesn't pollute the measured rates.
func telemetrySnap(tm core.TM) telemetry.Snapshot {
	if p, ok := tm.(telemetry.Provider); ok {
		return p.TelemetryBoard().Snapshot()
	}
	return telemetry.Snapshot{}
}

// kvBenchRow is one BENCH_kv.json record.
type kvBenchRow struct {
	TM             string  `json:"tm"`
	Shards         int     `json:"shards"`
	Threads        int     `json:"threads"`
	Procs          int     `json:"procs"`
	Ops            int64   `json:"ops"`
	NsPerOp        float64 `json:"ns_per_op"`
	OpsPerSec      float64 `json:"ops_per_sec"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	Privatizations int64   `json:"privatizations"`
	AbortRate      float64 `json:"abort_rate"`
	PrivRate       float64 `json:"priv_rate"`
	MagHitRate     float64 `json:"mag_hit_rate"`
}

// emitGate skips a BENCH_*.json emitter unless SAFEPRIV_EMIT_BENCH=1.
// The emitters measure, assert performance ratios and rewrite committed
// files; run on every `go test ./...` they make the correctness gate
// fail on host noise and leave the tree dirty. CI's benchmark smoke
// steps set the variable.
func emitGate(t *testing.T) {
	t.Helper()
	if os.Getenv("SAFEPRIV_EMIT_BENCH") != "1" {
		t.Skip("set SAFEPRIV_EMIT_BENCH=1 to measure and rewrite the BENCH file")
	}
}

// TestEmitKVBenchJSON measures the TM × shard × procs sweep once and
// writes BENCH_kv.json, so the performance trajectory is
// machine-readable (short mode shrinks the op count, not the sweep).
// Each row carries the telemetry-derived abort, privatization and
// magazine-hit rates of its measured window.
func TestEmitKVBenchJSON(t *testing.T) {
	emitGate(t)
	threads := benchWorkers()
	ops := 2500
	if testing.Short() {
		ops = 500
	}
	var rows []kvBenchRow
	for _, procs := range benchProcs {
		for _, shards := range kvBenchShards {
			for _, spec := range engine.TMs() {
				withProcs(procs, func() {
					tm := engine.MustNewSpec(spec, kvBenchRegs, threads+1, nil)
					cfg := workload.KVConfig{Shards: shards, ScanEvery: 500}
					// Warm up allocators and grow the tables off the clock.
					if _, err := workload.KVStore(tm, threads, ops/4, cfg, 7); err != nil {
						t.Fatal(err)
					}
					var m1, m2 runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&m1)
					pre := telemetrySnap(tm)
					start := time.Now()
					st, err := workload.KVStore(tm, threads, ops, cfg, 1)
					if err != nil {
						t.Fatalf("%s/shards-%d/procs-%d: %v", spec, shards, procs, err)
					}
					dur := time.Since(start)
					runtime.ReadMemStats(&m2)
					tel := st.Telemetry.Delta(pre)
					total := int64(threads) * int64(ops)
					rows = append(rows, kvBenchRow{
						TM:             spec,
						Shards:         shards,
						Threads:        threads,
						Procs:          procs,
						Ops:            total,
						NsPerOp:        float64(dur.Nanoseconds()) / float64(total),
						OpsPerSec:      float64(total) / dur.Seconds(),
						AllocsPerOp:    float64(m2.Mallocs-m1.Mallocs) / float64(total),
						Privatizations: st.Fences,
						AbortRate:      tel.AbortRate(),
						PrivRate:       tel.PrivRate(),
						MagHitRate:     tel.MagHitRate(),
					})
				})
			}
		}
	}
	// Deterministic row order (sorted TM×shard×procs keys): successive
	// bench commits diff only in the measured values, not in row
	// positions.
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].TM != rows[j].TM {
			return rows[i].TM < rows[j].TM
		}
		if rows[i].Shards != rows[j].Shards {
			return rows[i].Shards < rows[j].Shards
		}
		return rows[i].Procs < rows[j].Procs
	})
	out, err := json.MarshalIndent(struct {
		Workload string       `json:"workload"`
		Results  []kvBenchRow `json:"results"`
	}{"kvstore", rows}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_kv.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_kv.json (%d rows)", len(rows))
}

// --- Fence modes: latency and privatization throughput ---

// fenceBenchSpecs sweeps TL2 across the three quiescence modes of
// internal/quiesce.
var fenceBenchSpecs = []string{"tl2", "tl2+combine", "tl2+defer"}

// BenchmarkFenceConcurrent measures synchronous fence latency with 8
// goroutines fencing concurrently against a background of short
// transactions: the combining case (one leader's grace period serves
// every waiter that arrived before it started).
func BenchmarkFenceConcurrent(b *testing.B) {
	for _, spec := range fenceBenchSpecs {
		b.Run(spec, func(b *testing.B) {
			const fencers = 8
			tm := engine.MustNewSpec(spec, 8, fencers+4, nil)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for th := fencers + 1; th <= fencers+3; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					x := th % 8
					for {
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
						runtime.Gosched()
					}
				}(th)
			}
			var tid atomic.Int64
			b.ResetTimer()
			b.SetParallelism(fencers)
			b.RunParallel(func(pb *testing.PB) {
				th := int(tid.Add(1))%fencers + 1
				for pb.Next() {
					tm.Fence(th)
				}
			})
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// fenceMaintain is the privatization-throughput shape: `goroutines`
// maintainers concurrently Resize a 16-shard store (each Resize is one
// privatize→fence→rehash→publish cycle per shard), cycles rounds each,
// then drain. On an adapt spec the internal/adapt controller runs for
// the duration, retuning the fence mode from the measured
// privatization rate. Returns the per-Resize-call latency histogram
// and the run's telemetry delta.
func fenceMaintain(spec string, goroutines, cycles int) (*workload.Hist, int64, telemetry.Snapshot, error) {
	cfg, err := engine.Parse(spec)
	if err != nil {
		return nil, 0, telemetry.Snapshot{}, err
	}
	regs := stmkv.RegsNeeded(16, 64)
	var kvOpts []stmkv.Option
	if cfg.Adaptive {
		// The controller resizes table-heap magazines too; give the
		// store the batch layer so that lever has something to move.
		regs = stmkv.RegsNeededBatch(16, 64, goroutines)
		kvOpts = append(kvOpts, stmkv.WithBatchReclaim(goroutines))
	}
	tm := engine.MustNewSpec(spec, regs, goroutines+2, nil)
	s, err := stmkv.New(tm, 16, 64, kvOpts...)
	if err != nil {
		return nil, 0, telemetry.Snapshot{}, err
	}
	var ctl *adapt.Controller
	if cfg.Adaptive {
		if atm, ok := tm.(adapt.TM); ok {
			ctl = adapt.New(atm)
			ctl.AttachHeap(s.Heap(), goroutines+2)
			ctl.Start()
		}
	}
	for k := int64(1); k <= 200; k++ {
		if err := s.Put(1, k, k); err != nil {
			return nil, 0, telemetry.Snapshot{}, err
		}
	}
	pre := telemetrySnap(tm)
	lat := new(workload.Hist)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 1; g <= goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				start := time.Now()
				if err := s.Resize(g, 32+(i%2)*32); err != nil {
					errs <- err
					return
				}
				lat.Add(time.Since(start))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	tel := telemetrySnap(tm).Delta(pre)
	if ctl != nil {
		ctl.Stop()
	}
	for err := range errs {
		return nil, 0, telemetry.Snapshot{}, err
	}
	if err := s.Drain(goroutines + 1); err != nil {
		return nil, 0, telemetry.Snapshot{}, err
	}
	return lat, s.Stats().Privatizations, tel, nil
}

// BenchmarkFencePrivatizationThroughput runs the maintenance shape per
// mode: deferred privatization batches all 16 shards' grace periods
// onto one reclaimer round instead of fencing per shard.
func BenchmarkFencePrivatizationThroughput(b *testing.B) {
	for _, spec := range fenceBenchSpecs {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := fenceMaintain(spec, 8, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fenceBenchRow is one BENCH_fence.json record.
type fenceBenchRow struct {
	Spec           string  `json:"spec"`
	TM             string  `json:"tm"`
	Fence          string  `json:"fence"`
	Workload       string  `json:"workload"`
	Goroutines     int     `json:"goroutines"`
	Procs          int     `json:"procs"`
	Ops            int64   `json:"ops"`
	OpsPerSec      float64 `json:"ops_per_sec"`
	Privatizations int64   `json:"privatizations"`
	PrivPerSec     float64 `json:"priv_per_sec"`
	P50Ns          int64   `json:"p50_ns"`
	P99Ns          int64   `json:"p99_ns"`
	AbortRate      float64 `json:"abort_rate"`
	PrivRate       float64 `json:"priv_rate"`
	MagHitRate     float64 `json:"mag_hit_rate"`
}

// fenceOf splits an engine spec's fence mode for the JSON row. An
// adapt spec's fence column is "adapt": the mode is whatever the
// controller last chose, not a fixed axis value.
func fenceOf(spec string) (tm, fence string) {
	cfg, err := engine.Parse(spec)
	if err != nil {
		return spec, "wait"
	}
	if cfg.Adaptive {
		return cfg.TM, "adapt"
	}
	fence = cfg.Fence
	if fence == "" {
		fence = "wait"
	}
	return cfg.TM, fence
}

// TestEmitFenceBenchJSON measures the fence-mode sweep once and writes
// BENCH_fence.json: the privatization-heavy kv workloads (kv-maintain:
// 8 goroutines resizing a 16-shard store; kv-scan: 8 workers with
// frequent privatizing scans) across wait, combine, defer and the
// adaptive controller, each under the benchProcs GOMAXPROCS axis, with
// privatization-latency quantiles and telemetry-derived rates. Row
// order is deterministic (sorted workload, TM, fence, procs keys).
func TestEmitFenceBenchJSON(t *testing.T) {
	emitGate(t)
	const goroutines = 8
	cycles, scanOps := 24, 1200
	if testing.Short() {
		cycles, scanOps = 8, 400
	}
	specs := append(append([]string{}, fenceBenchSpecs...), "tl2+adapt")
	var rows []fenceBenchRow
	for _, procs := range benchProcs {
		for _, spec := range specs {
			withProcs(procs, func() {
				base, fence := fenceOf(spec)

				// kv-maintain: privatization is the workload.
				start := time.Now()
				lat, privs, tel, err := fenceMaintain(spec, goroutines, cycles)
				if err != nil {
					t.Fatalf("%s kv-maintain procs-%d: %v", spec, procs, err)
				}
				dur := time.Since(start)
				ops := int64(goroutines) * int64(cycles)
				rows = append(rows, fenceBenchRow{
					Spec: spec, TM: base, Fence: fence, Workload: "kv-maintain",
					Goroutines: goroutines, Procs: procs, Ops: ops,
					OpsPerSec:      float64(ops) / dur.Seconds(),
					Privatizations: privs,
					PrivPerSec:     float64(privs) / dur.Seconds(),
					P50Ns:          lat.Quantile(0.50).Nanoseconds(),
					P99Ns:          lat.Quantile(0.99).Nanoseconds(),
					AbortRate:      tel.AbortRate(),
					PrivRate:       tel.PrivRate(),
					MagHitRate:     tel.MagHitRate(),
				})

				// kv-scan with a low privatization interval.
				cfg, err := engine.Parse(spec)
				if err != nil {
					t.Fatal(err)
				}
				tm := engine.MustNewSpec(spec, workload.RegsFor("kv-scan", goroutines), goroutines+2, nil)
				kvCfg := workload.KVConfig{ScanEvery: 25, Adapt: cfg.Adaptive}
				if cfg.Adaptive {
					kvCfg.BatchThreads = goroutines
				}
				pre := telemetrySnap(tm)
				start = time.Now()
				st, err := workload.KVStore(tm, goroutines, scanOps, kvCfg, 1)
				if err != nil {
					t.Fatalf("%s kv-scan procs-%d: %v", spec, procs, err)
				}
				dur = time.Since(start)
				tel = st.Telemetry.Delta(pre)
				ops = int64(goroutines) * int64(scanOps)
				row := fenceBenchRow{
					Spec: spec, TM: base, Fence: fence, Workload: "kv-scan",
					Goroutines: goroutines, Procs: procs, Ops: ops,
					OpsPerSec:      float64(ops) / dur.Seconds(),
					Privatizations: st.Fences,
					PrivPerSec:     float64(st.Fences) / dur.Seconds(),
					AbortRate:      tel.AbortRate(),
					PrivRate:       tel.PrivRate(),
					MagHitRate:     tel.MagHitRate(),
				}
				if st.PrivLatency != nil {
					row.P50Ns = st.PrivLatency.Quantile(0.50).Nanoseconds()
					row.P99Ns = st.PrivLatency.Quantile(0.99).Nanoseconds()
				}
				rows = append(rows, row)
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.TM != b.TM {
			return a.TM < b.TM
		}
		if a.Fence != b.Fence {
			return a.Fence < b.Fence
		}
		return a.Procs < b.Procs
	})
	// Log the headline comparisons per procs setting: does a batched
	// mode beat wait on the privatization-heavy shape, and does the
	// adaptive controller land within 5% of the best static mode?
	for _, procs := range benchProcs {
		perFence := map[string]float64{}
		for _, r := range rows {
			if r.Workload == "kv-maintain" && r.TM == "tl2" && r.Procs == procs {
				perFence[r.Fence] = r.PrivPerSec
			}
		}
		t.Logf("kv-maintain priv/sec procs=%d: wait=%.0f combine=%.0f defer=%.0f adapt=%.0f",
			procs, perFence["wait"], perFence["combine"], perFence["defer"], perFence["adapt"])
		if perFence["combine"] <= perFence["wait"] && perFence["defer"] <= perFence["wait"] {
			t.Logf("warning: neither combine nor defer beat wait on this host (procs=%d)", procs)
		}
		best := perFence["wait"]
		for _, mode := range []string{"combine", "defer"} {
			if perFence[mode] > best {
				best = perFence[mode]
			}
		}
		if perFence["adapt"] < 0.95*best {
			t.Logf("warning: tl2+adapt kv-maintain %.0f priv/sec is >5%% behind best static tl2 %.0f (procs=%d)",
				perFence["adapt"], best, procs)
		}
	}
	out, err := json.MarshalIndent(struct {
		Workloads []string        `json:"workloads"`
		Results   []fenceBenchRow `json:"results"`
	}{[]string{"kv-maintain", "kv-scan"}, rows}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_fence.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_fence.json (%d rows)", len(rows))
}

// --- Transactional heap: churn throughput and footprint per TM ×
// allocator (the stmalloc reclamation experiment) ---

// BenchmarkSetChurn sweeps the allocator and reclaim axes on TL2: bump
// (leaking) vs quiesce with each fence mode, per-free vs batch
// (magazine) reclamation. The per-free quiesce rows pay a reclamation
// fence per remove; the batch rows amortize one grace period over a
// whole magazine of removes.
func BenchmarkSetChurn(b *testing.B) {
	threads := kvBenchThreads()
	const ops = 1500
	for _, spec := range []string{"tl2+bump", "tl2+quiesce", "tl2+combine+quiesce", "tl2+defer+quiesce",
		"tl2+quiesce+batch", "tl2+defer+quiesce+batch"} {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.RunWorkload(spec, "set-churn",
					workload.Params{Threads: threads, Ops: ops, Seed: 1, LiveSet: 128}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueuePipe is the streaming shape: values flow through a
// bounded-depth queue, every dequeue reclaiming its node.
func BenchmarkQueuePipe(b *testing.B) {
	threads := kvBenchThreads()
	if threads < 2 {
		threads = 2 // the pipe needs a producer and a consumer
	}
	const ops = 1500
	for _, spec := range []string{"tl2+quiesce", "tl2+defer+quiesce"} {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.RunWorkload(spec, "queue-pipe",
					workload.Params{Threads: threads, Ops: ops, Seed: 1, LiveSet: 64}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMapChurn is the ordered-map contrast as a plain benchmark:
// list vs skiplist at the sizes where the asymptotics separate, on the
// per-free and the batch (magazine) reclaim axes. The reported ns/op
// includes the prefill (benchmarks can't subtract it); the JSON
// emitter's rows time the churn phase alone.
func BenchmarkMapChurn(b *testing.B) {
	threads := kvBenchThreads()
	const ops = 400
	for _, spec := range []string{"tl2+quiesce", "tl2+defer+quiesce+batch"} {
		for _, size := range []int{256, 4096} {
			for _, ds := range []string{"map", "skip", "hash"} {
				b.Run(fmt.Sprintf("%s/%s-%d", spec, ds, size), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := engine.RunWorkload(spec, "map-churn",
							workload.Params{Threads: threads, Ops: ops, Seed: 1, LiveSet: size, DS: ds}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkScanChurn is the scan-strategy contrast as a plain
// benchmark: one thread scans the whole skiplist in a loop while the
// rest churn it — one big read-only transaction per scan (snapshot)
// vs the privatized window iterator (window). The JSON emitter's
// scan-churn rows carry the per-mode scan throughput and abort
// columns; this benchmark gives the same shape a ns/op trend line.
func BenchmarkScanChurn(b *testing.B) {
	threads := kvBenchThreads()
	if threads < 2 {
		threads = 2
	}
	const ops = 400
	for _, spec := range []string{"tl2+quiesce", "tl2+defer+quiesce"} {
		for _, mode := range []string{"snapshot", "window"} {
			b.Run(fmt.Sprintf("%s/%s", spec, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := engine.RunWorkload(spec, "scan-churn",
						workload.Params{Threads: threads, Ops: ops, Seed: 1, LiveSet: 1024, DS: "skip", Scan: mode}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// dsBenchRow is one BENCH_ds.json record. DS and LiveSet are the
// map-churn axes (the ordered-map implementation and the resident pair
// count); set-churn rows carry DS "set" and their fixed live set.
// AbortRate is the TM's telemetry abort share over the whole run.
type dsBenchRow struct {
	Spec           string  `json:"spec"`
	TM             string  `json:"tm"`
	Alloc          string  `json:"alloc"`
	Fence          string  `json:"fence"`
	Reclaim        string  `json:"reclaim"`
	Workload       string  `json:"workload"`
	DS             string  `json:"ds"`
	LiveSet        int     `json:"live_set"`
	Threads        int     `json:"threads"`
	Procs          int     `json:"procs"`
	Ops            int64   `json:"ops"`
	NsPerOp        float64 `json:"ns_per_op"`
	OpsPerSec      float64 `json:"ops_per_sec"`
	AbortRate      float64 `json:"abort_rate"`
	HeapRegs       int64   `json:"heap_regs"`
	Allocs         int64   `json:"allocs"`
	Frees          int64   `json:"frees"`
	ReclaimBatches int64   `json:"reclaim_batches"`
	ReclaimP50     int64   `json:"reclaim_p50_ns"`
	ReclaimP99     int64   `json:"reclaim_p99_ns"`
	// Splits and Coalesces are the reclaiming heap's buddy counters
	// (block halvings serving a smaller size class; buddy merges of
	// freed fragments) — the hash rows' recycling story: every freed
	// bucket-array generation re-enters circulation re-sized. Emitted on
	// every row (zero when the run never fragmented) so the columns are
	// grep-able invariants of the file. RehashWindows counts the hash
	// map's incremental-rehash migration windows, from telemetry.
	Splits        int64 `json:"splits"`
	Coalesces     int64 `json:"coalesces"`
	RehashWindows int64 `json:"rehash_windows"`
	// The scan-churn columns (absent on the other workloads): the
	// scanner's strategy axis, how many whole-structure scans it
	// completed, the mean privatized-window count per scan (1 for a
	// snapshot scan of the ordered maps), the scanner's streaming rate,
	// and the churner threads' own abort share (the run-wide AbortRate
	// also counts the scanner's aborted snapshot attempts).
	Scan            string  `json:"scan,omitempty"`
	ScanOps         int64   `json:"scan_ops,omitempty"`
	WindowsPerScan  float64 `json:"windows_per_scan,omitempty"`
	PairsPerSec     float64 `json:"pairs_per_sec,omitempty"`
	WriterAbortRate float64 `json:"writer_abort_rate,omitempty"`
	// FenceWaitNs is the run's MEAN nanoseconds blocked per fence —
	// the grace-period-latency column the scan contrast turns on: a
	// snapshot scan's long read-only transaction makes every
	// concurrent reclamation fence wait it out.
	FenceWaitNs int64 `json:"fence_wait_ns,omitempty"`
}

// TestEmitDSBenchJSON measures the data-structure sweeps and writes
// BENCH_ds.json. set-churn: every TM × the bump/quiesce allocator
// axis, the per-free vs batch (magazine) reclaim axis on TL2 and
// NOrec, the batched-fence quiesce variants on TL2, and the adaptive
// controller. map-churn/hash-churn: the point-op contrast — the O(n)
// sorted list vs the O(log n) skiplist vs the O(1) chained hash map at
// 256 and 4096 resident pairs on the per-free and batch reclaim axes,
// timed over the churn phase only; rehash-storm: fresh-key inserts
// growing the hash table through every doubling, asserting mean fence
// wait stays sub-millisecond under the incremental privatized rehash.
// Both sweeps run under the benchProcs GOMAXPROCS axis, and every row
// carries the telemetry abort rate next to its throughput. The quiesce
// rows prove the reclamation story (frees keep up with allocs,
// footprint bounded); the bump rows are the leaking contrast whose
// footprint scales with the op count; the batch rows must show real
// amortization (fewer grace-period registrations than frees); the
// map-churn rows must show the skiplist >=3x faster than the list at
// 4096 pairs with no worse an abort rate under real parallelism. Row
// order is deterministic (sorted workload, tm, alloc, reclaim, fence,
// ds, live-set, procs keys).
func TestEmitDSBenchJSON(t *testing.T) {
	emitGate(t)
	threads := benchWorkers()
	ops := 1200
	if testing.Short() {
		ops = 300
	}
	specs := make([]string, 0, 2*len(engine.TMs())+6)
	for _, tmName := range engine.TMs() {
		specs = append(specs, tmName+"+bump", tmName+"+quiesce")
	}
	specs = append(specs,
		"tl2+combine+quiesce", "tl2+defer+quiesce",
		// The per-free vs batch contrast on two TMs, plus the
		// defer+batch combination (batched magazines over the batched
		// reclaimer) and the adaptive controller over both levers.
		"tl2+quiesce+batch", "norec+quiesce+batch", "tl2+defer+quiesce+batch",
		"tl2+adapt")
	var rows []dsBenchRow
	batchTMs := map[string]bool{}
	for _, procs := range benchProcs {
		for _, spec := range specs {
			withProcs(procs, func() {
				cfg, err := engine.Parse(spec)
				if err != nil {
					t.Fatal(err)
				}
				alloc, fence, reclaim := cfg.Alloc, cfg.Fence, cfg.Reclaim
				if cfg.Adaptive {
					// Parse leaves the implied axes empty on an adapt spec;
					// label them as normalize resolves them, with "adapt" as
					// the fence (the controller owns that lever).
					alloc, fence, reclaim = "quiesce", "adapt", "batch"
				}
				if fence == "" {
					fence = "wait"
				}
				if reclaim == "" {
					reclaim = "free"
				}
				start := time.Now()
				st, err := engine.RunWorkload(spec, "set-churn",
					workload.Params{Threads: threads, Ops: ops, Seed: 1, LiveSet: 128})
				if err != nil {
					t.Fatalf("%s procs-%d: %v", spec, procs, err)
				}
				dur := time.Since(start)
				total := int64(threads) * int64(ops)
				row := dsBenchRow{
					Spec: spec, TM: cfg.TM, Alloc: alloc, Fence: fence, Reclaim: reclaim,
					Workload: "set-churn", DS: "set", LiveSet: 128,
					Threads: threads, Procs: procs, Ops: total,
					NsPerOp:   float64(dur.Nanoseconds()) / float64(total),
					OpsPerSec: float64(total) / dur.Seconds(),
					AbortRate: st.Telemetry.AbortRate(),
					HeapRegs:  st.HeapRegs,
					Allocs:    st.Allocs, Frees: st.Frees,
					ReclaimBatches: st.ReclaimBatches,
					Splits:         st.Splits, Coalesces: st.Coalesces,
					RehashWindows: st.Telemetry.RehashWindows,
				}
				if h := st.ReclaimLatency; h != nil && h.Count() > 0 {
					row.ReclaimP50 = h.Quantile(0.50).Nanoseconds()
					row.ReclaimP99 = h.Quantile(0.99).Nanoseconds()
				}
				if alloc == "quiesce" {
					if st.Frees == 0 {
						t.Fatalf("%s: quiesce run reclaimed nothing", spec)
					}
					// Boundedness: the reclaiming footprint must stay far below
					// the bump footprint of the same traffic (~ops×threads regs).
					if st.HeapRegs > total {
						t.Fatalf("%s: quiesce footprint %d regs not bounded (total ops %d)", spec, st.HeapRegs, total)
					}
				}
				if reclaim == "batch" {
					if st.ReclaimBatches == 0 || st.ReclaimBatches >= st.Frees {
						t.Fatalf("%s: batch run shows no amortization: %d batches for %d frees",
							spec, st.ReclaimBatches, st.Frees)
					}
					batchTMs[cfg.TM] = true
				}
				rows = append(rows, row)
			})
		}
	}
	// The batch emit must cover at least two TMs — CI's ds-reclaim
	// smoke depends on these rows existing.
	if len(batchTMs) < 2 {
		t.Fatalf("batch rows cover %d TMs, want >= 2", len(batchTMs))
	}

	// map-churn: the ordered-map contrast. The same churn traffic on
	// the O(n) sorted list and the O(log n) skiplist, across the sizes
	// where the asymptotics separate, on the reclaim axes that exercise
	// single- vs multi-size-class reclamation. Only the churn phase is
	// timed (Stats.Elapsed): the list's O(n²) prefill would otherwise
	// bury the per-op contrast the sweep exists to show.
	// Large enough a timed window that the hash/skip ratio assert below
	// measures structure, not scheduler noise: at the hash map's ~2M
	// ops/sec the timed phase must span tens of milliseconds, so the
	// skip and hash rows run 16× the list's op count (ops_per_sec
	// normalizes; the O(n²) list keeps the smaller count or its rows
	// would dominate the emitter's wall clock).
	mcOps := 1200
	if testing.Short() {
		mcOps = 500
	}
	mcOpsFor := func(ds string) int {
		if ds == "map" {
			return mcOps
		}
		return mcOps * 16
	}
	mcSpecs := []string{"tl2+quiesce", "norec+quiesce", "tl2+defer+quiesce+batch"}
	mcSizes := []int{256, 4096}
	for _, procs := range benchProcs {
		for _, spec := range mcSpecs {
			for _, size := range mcSizes {
				for _, ds := range []string{"map", "skip", "hash"} {
					withProcs(procs, func() {
						cfg, err := engine.Parse(spec)
						if err != nil {
							t.Fatal(err)
						}
						fence, reclaim := cfg.Fence, cfg.Reclaim
						if fence == "" {
							fence = "wait"
						}
						if reclaim == "" {
							reclaim = "free"
						}
						// The hash axis runs under its own workload name
						// (hash-churn = map-churn pinned to the hash map), so
						// the rows are both directly comparable and grep-able.
						wlName := "map-churn"
						if ds == "hash" {
							wlName = "hash-churn"
						}
						dsOps := mcOpsFor(ds)
						// The hash≥3× headline assert compares the skip and
						// hash rows at 4096 on tl2+quiesce; those rows get the
						// same best-of-2 stabilization the scan sweep uses,
						// because a single bad scheduling stretch on a busy
						// host can halve one row's throughput. The unasserted
						// rows are sampled once.
						mcReps := 1
						if spec == "tl2+quiesce" && size == 4096 && ds != "map" {
							mcReps = 2
						}
						var best dsBenchRow
						for rep := 0; rep < mcReps; rep++ {
							st, err := engine.RunWorkload(spec, wlName,
								workload.Params{Threads: threads, Ops: dsOps, Seed: int64(1 + rep), LiveSet: size, DS: ds})
							if err != nil {
								t.Fatalf("%s/%s/%d procs-%d: %v", spec, ds, size, procs, err)
							}
							if st.Elapsed <= 0 {
								t.Fatalf("%s/%s/%d: churn phase not timed", spec, ds, size)
							}
							if st.Frees == 0 {
								t.Fatalf("%s/%s/%d: quiesce run reclaimed nothing", spec, ds, size)
							}
							if ds == "hash" && st.Telemetry.RehashWindows == 0 {
								t.Fatalf("%s/%s/%d: hash churn from 16 buckets recorded no rehash windows", spec, ds, size)
							}
							total := int64(threads) * int64(dsOps)
							row := dsBenchRow{
								Spec: spec, TM: cfg.TM, Alloc: "quiesce", Fence: fence, Reclaim: reclaim,
								Workload: wlName, DS: ds, LiveSet: size,
								Threads: threads, Procs: procs, Ops: total,
								NsPerOp:   float64(st.Elapsed.Nanoseconds()) / float64(total),
								OpsPerSec: float64(total) / st.Elapsed.Seconds(),
								AbortRate: st.Telemetry.AbortRate(),
								HeapRegs:  st.HeapRegs,
								Allocs:    st.Allocs, Frees: st.Frees,
								ReclaimBatches: st.ReclaimBatches,
								Splits:         st.Splits, Coalesces: st.Coalesces,
								RehashWindows: st.Telemetry.RehashWindows,
							}
							if st.Telemetry.Fences > 0 {
								row.FenceWaitNs = st.Telemetry.FenceWaitNs / st.Telemetry.Fences
							}
							if h := st.ReclaimLatency; h != nil && h.Count() > 0 {
								row.ReclaimP50 = h.Quantile(0.50).Nanoseconds()
								row.ReclaimP99 = h.Quantile(0.99).Nanoseconds()
							}
							if rep == 0 || row.OpsPerSec > best.OpsPerSec {
								best = row
							}
						}
						rows = append(rows, best)
					})
				}
			}
		}
	}
	// The headline claims, checked from the emitted rows themselves. At
	// 4096 resident pairs the skiplist's O(log n) traversals must beat
	// the list by at least 3× throughput on tl2+quiesce at every procs
	// setting — the asymptotic gap is orders of magnitude, so 3× is a
	// floor, not a tuning target. The abort contrast (shorter read sets
	// ⇒ fewer validation failures) is asserted only above a noise floor:
	// on a lightly contended host both configurations abort rarely and
	// the ratio is meaningless.
	mcRate := func(procs int, ds string, size int) (float64, float64) {
		wl := "map-churn"
		if ds == "hash" {
			wl = "hash-churn"
		}
		for _, r := range rows {
			if r.Workload == wl && r.Spec == "tl2+quiesce" &&
				r.Procs == procs && r.DS == ds && r.LiveSet == size {
				return r.OpsPerSec, r.AbortRate
			}
		}
		t.Fatalf("missing %s row tl2+quiesce/%s/%d/procs-%d", wl, ds, size, procs)
		return 0, 0
	}
	for _, procs := range benchProcs {
		listOps, listAbort := mcRate(procs, "map", 4096)
		skipOps, skipAbort := mcRate(procs, "skip", 4096)
		t.Logf("map-churn 4096 procs=%d: skip=%.0f ops/sec (abort %.4f) vs list=%.0f ops/sec (abort %.4f), speedup %.1fx",
			procs, skipOps, skipAbort, listOps, listAbort, skipOps/listOps)
		if skipOps < 3*listOps {
			t.Errorf("map-churn 4096 procs=%d: skiplist %.0f ops/sec is not >=3x the list's %.0f",
				procs, skipOps, listOps)
		}
		if procs == 4 {
			if listAbort < 0.005 {
				t.Logf("map-churn 4096 procs=4: list abort rate %.4f below noise floor; skipping the abort contrast", listAbort)
			} else if skipAbort > listAbort {
				t.Errorf("map-churn 4096 procs=4: skiplist abort rate %.4f exceeds the list's %.4f",
					skipAbort, listAbort)
			}
		}
	}
	// The hash headline: at 4096 resident pairs the chained hash map's
	// O(1) point ops must beat the skiplist's O(log n) towers by at
	// least 3× throughput on tl2+quiesce under real parallelism
	// (procs=4) — a floor well under the asymptotic gap (~1–2 chain
	// nodes vs ~12 tower levels of instrumented reads per op), asserted
	// only at full parallelism; the narrower procs settings are logged.
	for _, procs := range benchProcs {
		hashOps, hashAbort := mcRate(procs, "hash", 4096)
		skipOps, _ := mcRate(procs, "skip", 4096)
		t.Logf("hash-churn 4096 procs=%d: hash=%.0f ops/sec (abort %.4f) vs skip=%.0f ops/sec, speedup %.1fx",
			procs, hashOps, hashAbort, skipOps, hashOps/skipOps)
		if procs == 4 && hashOps < 3*skipOps {
			t.Errorf("hash-churn 4096 procs=%d: hash map %.0f ops/sec is not >=3x the skiplist's %.0f",
				procs, hashOps, skipOps)
		}
	}

	// rehash-storm: the growth stress. Thread-partitioned fresh keys
	// drive the table from 16 buckets through every doubling to past
	// 2×(threads×ops) slots, all migrated through cooperative
	// incremental windows. The headline is the fence-wait column: mean
	// fence wait must stay sub-millisecond WHILE the table doubles —
	// no insert ever waits out a stop-the-world copy — and the freed
	// array generations must show up in the buddy counters' recycling.
	stormOps := 1500
	if testing.Short() {
		stormOps = 400
	}
	for _, procs := range benchProcs {
		withProcs(procs, func() {
			st, err := engine.RunWorkload("tl2+quiesce", "rehash-storm",
				workload.Params{Threads: threads, Ops: stormOps, Seed: 1})
			if err != nil {
				t.Fatalf("rehash-storm procs-%d: %v", procs, err)
			}
			if st.Telemetry.RehashWindows == 0 {
				t.Fatalf("rehash-storm procs-%d: no rehash windows recorded", procs)
			}
			total := int64(threads) * int64(stormOps)
			row := dsBenchRow{
				Spec: "tl2+quiesce", TM: "tl2", Alloc: "quiesce", Fence: "wait", Reclaim: "free",
				Workload: "rehash-storm", DS: "hash", LiveSet: int(total),
				Threads: threads, Procs: procs, Ops: total,
				NsPerOp:   float64(st.Elapsed.Nanoseconds()) / float64(total),
				OpsPerSec: float64(total) / st.Elapsed.Seconds(),
				AbortRate: st.Telemetry.AbortRate(),
				HeapRegs:  st.HeapRegs,
				Allocs:    st.Allocs, Frees: st.Frees,
				ReclaimBatches: st.ReclaimBatches,
				Splits:         st.Splits, Coalesces: st.Coalesces,
				RehashWindows: st.Telemetry.RehashWindows,
			}
			if st.Telemetry.Fences > 0 {
				row.FenceWaitNs = st.Telemetry.FenceWaitNs / st.Telemetry.Fences
			}
			if h := st.ReclaimLatency; h != nil && h.Count() > 0 {
				row.ReclaimP50 = h.Quantile(0.50).Nanoseconds()
				row.ReclaimP99 = h.Quantile(0.99).Nanoseconds()
			}
			t.Logf("rehash-storm procs=%d: %d inserts, %d rehash windows, mean fence wait %dns, splits=%d coalesces=%d",
				procs, total, row.RehashWindows, row.FenceWaitNs, row.Splits, row.Coalesces)
			if row.FenceWaitNs >= int64(time.Millisecond) {
				t.Errorf("rehash-storm procs-%d: mean fence wait %dns is not sub-millisecond while the table doubles",
					procs, row.FenceWaitNs)
			}
			rows = append(rows, row)
		})
	}

	// scan-churn: the scan-strategy contrast. One thread scans the
	// whole structure in a loop while the rest churn it; the axis is
	// HOW it scans — "snapshot" (one read-only transaction, whose
	// whole read set must validate against the churn) vs "window"
	// (the privatized window iterator: flip a guard, one fence, walk
	// uninstrumented, publish). The core sweep is the skiplist across
	// the quiesce fence modes and the sizes where a snapshot's read
	// set gets expensive; the breadth rows put the same scanner
	// behind the sorted list and the kv store's ScanPage cursor.
	scOps := 1200
	if testing.Short() {
		scOps = 400
	}
	scSizes := []int{1024, 4096}
	lastProcs := benchProcs[len(benchProcs)-1]
	// Parking and wake-up luck make single scan-churn runs noisy (the
	// churn phase is a few milliseconds); each emitted row is the best
	// of `reps` runs by churner throughput, the same-machine
	// stabilization a best-of-N benchmark applies. Snapshot-mode runs
	// are slow BY CONSTRUCTION (the stalled churn is the finding), so
	// the sweep spends its repetitions on the asserted headline spec
	// and samples the rest once.
	emitScan := func(spec, ds, mode string, size, procs, reps int) {
		withProcs(procs, func() {
			cfg, err := engine.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			fence, reclaim := cfg.Fence, cfg.Reclaim
			if fence == "" {
				fence = "wait"
			}
			if reclaim == "" {
				reclaim = "free"
			}
			var best dsBenchRow
			for rep := 0; rep < reps; rep++ {
				st, err := engine.RunWorkload(spec, "scan-churn",
					workload.Params{Threads: threads, Ops: scOps, Seed: int64(1 + rep), LiveSet: size, DS: ds, Scan: mode})
				if err != nil {
					t.Fatalf("scan-churn %s/%s/%s/%d procs-%d: %v", spec, ds, mode, size, procs, err)
				}
				if st.ScanOps == 0 || st.ScanPairs == 0 {
					t.Fatalf("scan-churn %s/%s/%s/%d: no scans completed", spec, ds, mode, size)
				}
				// Ops counts the churners' operations: thread 1 is the
				// scanner, whose work the scan_* columns report.
				total := int64(threads-1) * int64(scOps)
				row := dsBenchRow{
					Spec: spec, TM: cfg.TM, Alloc: cfg.Alloc, Fence: fence, Reclaim: reclaim,
					Workload: "scan-churn", DS: ds, LiveSet: size,
					Threads: threads, Procs: procs, Ops: total,
					NsPerOp:   float64(st.Elapsed.Nanoseconds()) / float64(total),
					OpsPerSec: float64(total) / st.Elapsed.Seconds(),
					AbortRate: st.Telemetry.AbortRate(),
					HeapRegs:  st.HeapRegs,
					Allocs:    st.Allocs, Frees: st.Frees,
					ReclaimBatches:  st.ReclaimBatches,
					Splits:          st.Splits,
					Coalesces:       st.Coalesces,
					RehashWindows:   st.Telemetry.RehashWindows,
					Scan:            mode,
					ScanOps:         st.ScanOps,
					WindowsPerScan:  float64(st.ScanWindows) / float64(st.ScanOps),
					PairsPerSec:     float64(st.ScanPairs) / st.Elapsed.Seconds(),
					WriterAbortRate: st.WriterAbortRate,
				}
				if st.Telemetry.Fences > 0 {
					row.FenceWaitNs = st.Telemetry.FenceWaitNs / st.Telemetry.Fences
				}
				if rep == 0 || row.OpsPerSec > best.OpsPerSec {
					best = row
				}
			}
			rows = append(rows, best)
		})
	}
	// The headline spec gets the full size × procs grid, best of two;
	// the other quiescence modes are sampled once at the headline size
	// under the widest procs setting.
	for _, procs := range benchProcs {
		for _, size := range scSizes {
			for _, mode := range []string{"snapshot", "window"} {
				emitScan("tl2+quiesce", "skip", mode, size, procs, 2)
			}
		}
	}
	for _, spec := range []string{"norec+quiesce", "wtstm+quiesce", "tl2+combine+quiesce", "tl2+defer+quiesce"} {
		for _, mode := range []string{"snapshot", "window"} {
			emitScan(spec, "skip", mode, 4096, lastProcs, 1)
		}
	}
	// Breadth: the same scanner loop over the sorted list (snapshot
	// only — windows need the skiplist) and the kv store, whose window
	// mode is the ScanPage cursor walking privatized shards.
	emitScan("tl2+quiesce", "map", "snapshot", 256, lastProcs, 1)
	emitScan("tl2+quiesce", "kv", "snapshot", 1024, lastProcs, 1)
	emitScan("tl2+quiesce", "kv", "window", 1024, lastProcs, 1)

	// The scan headline, checked from the emitted rows at 4096 resident
	// pairs under the widest procs setting. The decisive contrast is
	// what scanning does to everyone else: a snapshot scan is one long
	// read-only transaction, and on a reclaiming heap every grace
	// period (one per free in wait mode) must wait that transaction
	// out, so a thread scanning back-to-back both collapses churn
	// throughput and inflates mean fence wait by orders of magnitude;
	// the windowed scanner is only ever inside short privatize/publish
	// transactions — its level-0 walk is uninstrumented — so fences
	// complete immediately. We assert the mechanism (snapshot mean
	// fence wait >= 2x window's — the robust, scheduling-insensitive
	// signal) plus the throughput win and a no-starvation floor on the
	// scanner's own streaming rate. The floor is an order of magnitude
	// because the windowed scanner's rate is legitimately noisy at
	// millisecond-scale churn phases (it pays a fence per window, and
	// fences cost whatever the churners make them cost); the floor is
	// there to catch catastrophic starvation, not to rank the modes. Abort rates are asserted only
	// above a noise floor, like the map-churn contrast: with the
	// churners stalled, the snapshot scan rarely conflicts, so on a
	// lightly loaded host both modes' abort columns sit at zero and
	// the ratio is meaningless. The churner-only writer_abort_rate
	// column is emitted for transparency: window privatization dooms
	// in-flight writers (they retry and record the abort themselves),
	// so that column is the price writers pay, not the headline.
	scRow := func(procs int, mode string, size int) dsBenchRow {
		for _, r := range rows {
			if r.Workload == "scan-churn" && r.Spec == "tl2+quiesce" && r.DS == "skip" &&
				r.Procs == procs && r.Scan == mode && r.LiveSet == size {
				return r
			}
		}
		t.Fatalf("missing scan-churn row tl2+quiesce/skip/%s/%d/procs-%d", mode, size, procs)
		return dsBenchRow{}
	}
	for _, procs := range benchProcs {
		snap := scRow(procs, "snapshot", 4096)
		win := scRow(procs, "window", 4096)
		t.Logf("scan-churn 4096 procs=%d: window churn=%.0f ops/sec scan=%.0f pairs/sec fence-wait=%dns (abort %.4f) vs snapshot churn=%.0f ops/sec scan=%.0f pairs/sec fence-wait=%dns (abort %.4f)",
			procs, win.OpsPerSec, win.PairsPerSec, win.FenceWaitNs, win.AbortRate,
			snap.OpsPerSec, snap.PairsPerSec, snap.FenceWaitNs, snap.AbortRate)
		if procs == lastProcs {
			if snap.FenceWaitNs < 2*win.FenceWaitNs {
				t.Errorf("scan-churn 4096 procs=%d: snapshot mean fence wait %dns is not >=2x window's %dns — the snapshot scan should be the grace-period hazard",
					procs, snap.FenceWaitNs, win.FenceWaitNs)
			}
			// The churn contrast only means something when the snapshot
			// scans actually overlapped the churners' frees: in a genuine
			// hazard run the mean fence wait sits in the milliseconds
			// (each free waits out an in-flight RO scan). When scheduling
			// luck lands the scans outside the short churn phase the
			// fence wait stays in the tens of microseconds and snapshot
			// churn is unimpeded — there is no hazard on record to
			// contrast against, so the assert is skipped like the abort
			// contrast below its noise floor.
			if snap.FenceWaitNs < int64(time.Millisecond) {
				t.Logf("scan-churn 4096 procs=%d: snapshot fence wait %dns below hazard floor; skipping the churn contrast", procs, snap.FenceWaitNs)
			} else if win.OpsPerSec <= snap.OpsPerSec {
				t.Errorf("scan-churn 4096 procs=%d: windowed scanning leaves churn at %.0f ops/sec, not above the snapshot mode's %.0f",
					procs, win.OpsPerSec, snap.OpsPerSec)
			}
			if win.PairsPerSec < snap.PairsPerSec/10 {
				t.Errorf("scan-churn 4096 procs=%d: windowed scan streams %.0f pairs/sec, under a tenth of the snapshot scan's %.0f",
					procs, win.PairsPerSec, snap.PairsPerSec)
			}
			if snap.AbortRate < 0.005 {
				t.Logf("scan-churn 4096 procs=%d: snapshot abort rate %.4f below noise floor; skipping the abort contrast", procs, snap.AbortRate)
			} else if win.AbortRate > snap.AbortRate {
				t.Errorf("scan-churn 4096 procs=%d: window abort rate %.4f exceeds snapshot's %.4f",
					procs, win.AbortRate, snap.AbortRate)
			}
		}
	}

	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.TM != b.TM {
			return a.TM < b.TM
		}
		if a.Alloc != b.Alloc {
			return a.Alloc < b.Alloc
		}
		if a.Reclaim != b.Reclaim {
			return a.Reclaim < b.Reclaim
		}
		if a.Fence != b.Fence {
			return a.Fence < b.Fence
		}
		if a.DS != b.DS {
			return a.DS < b.DS
		}
		if a.Scan != b.Scan {
			return a.Scan < b.Scan
		}
		if a.LiveSet != b.LiveSet {
			return a.LiveSet < b.LiveSet
		}
		return a.Procs < b.Procs
	})
	// The adaptive controller's set-churn throughput should track the
	// best static tl2 quiesce configuration within 5% per procs setting
	// (log-only: wall-clock comparisons are advisory on shared hosts).
	for _, procs := range benchProcs {
		var best, bestSpec, adaptive = 0.0, "", 0.0
		for _, r := range rows {
			if r.Workload != "set-churn" || r.TM != "tl2" || r.Procs != procs || r.Alloc != "quiesce" {
				continue
			}
			if r.Fence == "adapt" {
				adaptive = r.OpsPerSec
			} else if r.OpsPerSec > best {
				best, bestSpec = r.OpsPerSec, r.Spec
			}
		}
		t.Logf("set-churn ops/sec procs=%d: tl2+adapt=%.0f best-static=%.0f (%s)",
			procs, adaptive, best, bestSpec)
		if adaptive < 0.95*best {
			t.Logf("warning: tl2+adapt set-churn %.0f ops/sec is >5%% behind best static tl2 %.0f (%s, procs=%d)",
				adaptive, best, bestSpec, procs)
		}
	}
	out, err := json.MarshalIndent(struct {
		Workloads []string     `json:"workloads"`
		Results   []dsBenchRow `json:"results"`
	}{[]string{"set-churn", "map-churn", "hash-churn", "rehash-storm", "scan-churn"}, rows}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_ds.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_ds.json (%d rows)", len(rows))
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

// --- HTTP serve bench: the store behind cmd/kvserver's front-end ---

// TestMain guards the GOMAXPROCS discipline of the procs-swept
// emitters: every test that changes the setting must restore it
// (withProcs does, via defer, on success, t.Fatal and panic alike —
// TestWithProcsRestores pins that). A sweep that leaked its setting
// would silently re-time every later test in the binary under the
// wrong parallelism.
func TestMain(m *testing.M) {
	before := runtime.GOMAXPROCS(0)
	code := m.Run()
	if after := runtime.GOMAXPROCS(0); after != before {
		fmt.Fprintf(os.Stderr, "FAIL: a test leaked GOMAXPROCS=%d (was %d at start)\n", after, before)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// TestWithProcsRestores pins the restore paths of withProcs: normal
// return, panic, and runtime.Goexit (what t.Fatal executes) must all
// put GOMAXPROCS back, because the emitters call t.Fatal inside
// withProcs bodies.
func TestWithProcsRestores(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	alt := before + 1 // distinct from the current value, so a leak is visible

	withProcs(alt, func() {
		if got := runtime.GOMAXPROCS(0); got != alt {
			t.Fatalf("inside withProcs: GOMAXPROCS = %d, want %d", got, alt)
		}
	})
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Fatalf("after normal return: GOMAXPROCS = %d, want %d", got, before)
	}

	func() {
		defer func() { recover() }()
		withProcs(alt, func() { panic("boom") })
	}()
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Fatalf("after panic: GOMAXPROCS = %d, want %d", got, before)
	}

	// t.Fatal calls runtime.Goexit, which runs deferred calls on its
	// way out; model it with a bare Goexit on a scratch goroutine.
	done := make(chan struct{})
	go func() {
		defer close(done)
		withProcs(alt, func() { runtime.Goexit() })
	}()
	<-done
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Fatalf("after Goexit: GOMAXPROCS = %d, want %d", got, before)
	}
}

// serveBenchRow is one BENCH_serve.json record: one engine spec under
// one connection count and read ratio, measured through the full HTTP
// path (listener, handler, thread pool, write coalescer).
type serveBenchRow struct {
	Spec      string  `json:"spec"`
	Conns     int     `json:"conns"`
	ReadPct   int     `json:"read_pct"`
	Ops       int64   `json:"ops"`
	Errors    int64   `json:"errors"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Ns     int64   `json:"p50_ns"`
	P99Ns     int64   `json:"p99_ns"`
	P999Ns    int64   `json:"p999_ns"`
	AbortRate float64 `json:"abort_rate"`
	PrivRate  float64 `json:"priv_rate"`
	// The scan-mix columns (absent on the point-op rows): what share
	// of the mix was paginated /scan page fetches, how many pages the
	// run pulled, and the page-fetch latency quantiles (reported apart
	// from the point-op quantiles above, which a page fetch would
	// otherwise smear).
	ScanPct   int   `json:"scan_pct,omitempty"`
	ScanOps   int64 `json:"scan_ops,omitempty"`
	ScanP50Ns int64 `json:"scan_p50_ns,omitempty"`
	ScanP99Ns int64 `json:"scan_p99_ns,omitempty"`
}

// TestEmitServeBenchJSON boots a fresh in-process kvserver per row on
// a loopback listener, drives it with the same load engine cmd/kvload
// uses, and writes BENCH_serve.json: engine spec × connection count ×
// read ratio, with end-to-end latency quantiles and the telemetry
// abort/privatization rates of the measured window. Every row must
// complete error-free and drain clean — the emitter doubles as the
// end-to-end regression test for the server.
func TestEmitServeBenchJSON(t *testing.T) {
	emitGate(t)
	ops := 4000
	if testing.Short() {
		ops = 800
	}
	serveSpecs := []string{"tl2", "tl2+combine", "norec"}
	connCounts := []int{2, 8}
	readPcts := []int{50, 95}
	var rows []serveBenchRow
	for _, spec := range serveSpecs {
		for _, conns := range connCounts {
			for _, readPct := range readPcts {
				srv, err := kvserve.New(kvserve.Config{
					Spec: spec, Shards: 8, Slots: 512, Threads: 8, BatchWrites: 8,
				})
				if err != nil {
					t.Fatalf("%s: New: %v", spec, err)
				}
				ts := httptest.NewServer(srv.Handler())
				pre := srv.Telemetry()
				rep, err := kvserve.RunLoad(kvserve.LoadConfig{
					BaseURL: ts.URL,
					Conns:   conns,
					Ops:     ops,
					ReadPct: readPct,
					Keys:    1024,
					Seed:    int64(conns*100 + readPct),
				})
				if err != nil {
					t.Fatalf("%s/conns-%d/read-%d: %v", spec, conns, readPct, err)
				}
				if rep.Errors != 0 {
					t.Fatalf("%s/conns-%d/read-%d: %d request errors: %s", spec, conns, readPct, rep.Errors, rep)
				}
				tel := srv.Telemetry().Delta(pre)
				ts.Close()
				if err := srv.Drain(); err != nil {
					t.Fatalf("%s/conns-%d/read-%d: Drain: %v", spec, conns, readPct, err)
				}
				rows = append(rows, serveBenchRow{
					Spec:      spec,
					Conns:     conns,
					ReadPct:   readPct,
					Ops:       rep.Ops,
					Errors:    rep.Errors,
					OpsPerSec: rep.OpsPerSec,
					P50Ns:     rep.P50.Nanoseconds(),
					P99Ns:     rep.P99.Nanoseconds(),
					P999Ns:    rep.P999.Nanoseconds(),
					AbortRate: tel.AbortRate(),
					PrivRate:  tel.PrivRate(),
				})
			}
		}
	}
	// Scan-mix rows: the same HTTP path with a fifth of the mix turned
	// into paginated /scan page fetches, each connection walking its
	// own cursor. The run must complete with zero request errors and
	// zero malformed pages — this doubles as the end-to-end regression
	// test for the paginated scan endpoint under concurrent writes.
	for _, spec := range serveSpecs {
		srv, err := kvserve.New(kvserve.Config{
			Spec: spec, Shards: 8, Slots: 512, Threads: 8, BatchWrites: 8,
		})
		if err != nil {
			t.Fatalf("%s: New: %v", spec, err)
		}
		ts := httptest.NewServer(srv.Handler())
		pre := srv.Telemetry()
		rep, err := kvserve.RunLoad(kvserve.LoadConfig{
			BaseURL:   ts.URL,
			Conns:     8,
			Ops:       ops,
			ReadPct:   50,
			ScanPct:   20,
			ScanLimit: 64,
			Keys:      1024,
			Seed:      1,
		})
		if err != nil {
			t.Fatalf("%s/scan-mix: %v", spec, err)
		}
		if rep.Errors != 0 || rep.BadScans != 0 {
			t.Fatalf("%s/scan-mix: %d request errors, %d malformed pages: %s", spec, rep.Errors, rep.BadScans, rep)
		}
		if rep.ScanOps == 0 {
			t.Fatalf("%s/scan-mix: the 20%% scan share produced no scan pages", spec)
		}
		tel := srv.Telemetry().Delta(pre)
		ts.Close()
		if err := srv.Drain(); err != nil {
			t.Fatalf("%s/scan-mix: Drain: %v", spec, err)
		}
		rows = append(rows, serveBenchRow{
			Spec:      spec,
			Conns:     8,
			ReadPct:   50,
			Ops:       rep.Ops,
			Errors:    rep.Errors,
			OpsPerSec: rep.OpsPerSec,
			P50Ns:     rep.P50.Nanoseconds(),
			P99Ns:     rep.P99.Nanoseconds(),
			P999Ns:    rep.P999.Nanoseconds(),
			AbortRate: tel.AbortRate(),
			PrivRate:  tel.PrivRate(),
			ScanPct:   20,
			ScanOps:   rep.ScanOps,
			ScanP50Ns: rep.ScanP50.Nanoseconds(),
			ScanP99Ns: rep.ScanP99.Nanoseconds(),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Spec != rows[j].Spec {
			return rows[i].Spec < rows[j].Spec
		}
		if rows[i].Conns != rows[j].Conns {
			return rows[i].Conns < rows[j].Conns
		}
		if rows[i].ReadPct != rows[j].ReadPct {
			return rows[i].ReadPct < rows[j].ReadPct
		}
		return rows[i].ScanPct < rows[j].ScanPct
	})
	out, err := json.MarshalIndent(struct {
		Workload string          `json:"workload"`
		Results  []serveBenchRow `json:"results"`
	}{"http-serve", rows}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_serve.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_serve.json (%d rows)", len(rows))
}
