// Command figures regenerates every experiment of the reproduction
// (see DESIGN.md §4 and EXPERIMENTS.md): the model-checked verdicts for
// the paper's Figures 1(a), 1(b), 2, 3 and 6, the GCC fence-elision
// bug, most-general-client strong-opacity checking on the real TL2
// runtime, the fence-overhead table (after Yoo et al. [42]), the
// TL2-vs-global-lock scalability sweep, and the fence-implementation
// ablation, and the data-structure tables (E17 reclamation, E18 the
// list-vs-skiplist ordered-map contrast, E19 the snapshot-vs-windowed
// range-scan contrast, E20 the skiplist-vs-hash-map-vs-KV-store
// point-op contrast).
//
// Usage:
//
//	figures -exp all
//	figures -exp e1,e2,e9
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"safepriv/internal/core"
	"safepriv/internal/engine"
	"safepriv/internal/litmus"
	"safepriv/internal/mgc"
	"safepriv/internal/model"
	"safepriv/internal/opacity"
	"safepriv/internal/rcu"
	"safepriv/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (e1..e6,e9..e20) or 'all'")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	run := func(id string, f func()) {
		if all || want[id] {
			fmt.Printf("== %s ==\n", strings.ToUpper(id))
			f()
			fmt.Println()
		}
	}

	run("e1", func() {
		litmusTable(litmus.Fig1a(false), litmus.Fig1a(true), "postcondition l=committed ⇒ x=1", litmus.Fig1aPost)
	})
	run("e2", func() { doomedTable(litmus.Fig1b(false), litmus.Fig1b(true), model.FenceWaitAll) })
	run("e3", func() { alwaysTable(litmus.Fig2(), "l2=committed ∧ l≠0 ⇒ l=42", litmus.Fig2Post) })
	run("e4", func() { racyTable() })
	run("e5", func() { alwaysTable(litmus.Fig6(), "l1=committed ∧ l2≠0 ⇒ l3=42", litmus.Fig6Post) })
	run("e6", func() { mgcTable(*seed) })
	run("e9", func() { fenceOverheadTable(*seed) })
	run("e10", func() { gccBugTable() })
	run("e11", func() { fundamentalTable(*seed) })
	run("e13", func() { scalabilityTable(*seed) })
	run("e14", func() { fenceLatencyTable() })
	run("e15", func() { norecTable() })
	run("e16", func() { wtstmTable() })
	run("e17", func() { reclaimTable(*seed) })
	run("e18", func() { orderedMapTable(*seed) })
	run("e19", func() { scanTable(*seed) })
	run("e20", func() { hashMapTable(*seed) })
}

func verdict(b bool) string {
	if b {
		return "HOLDS"
	}
	return "VIOLATED"
}

// litmusTable: model-checked postcondition with/without fence under TL2
// and atomic models (E1 shape).
func litmusTable(noFence, withFence model.Program, post string, pred func(model.Final) bool) {
	fmt.Printf("property: %s\n", post)
	fmt.Printf("%-16s %-8s %-10s %-9s %s\n", "program", "model", "fence", "verdict", "states")
	rows := []struct {
		p     model.Program
		kind  model.TMKind
		fence string
	}{
		{noFence, model.TL2Kind, "none"},
		{withFence, model.TL2Kind, "correct"},
		{noFence, model.AtomicKind, "n/a"},
		{withFence, model.AtomicKind, "n/a"},
	}
	for _, r := range rows {
		viol, res, err := model.CheckAlways(model.Config{Prog: r.p, Model: r.kind}, pred)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		name := "TL2"
		if r.kind == model.AtomicKind {
			name = "atomic"
		}
		fmt.Printf("%-16s %-8s %-10s %-9s %d\n", r.p.Name, name, r.fence, verdict(viol == nil), res.States)
	}
	fmt.Println("expected: TL2+none VIOLATED (delayed commit); all others HOLD (paper Fig 1a)")
}

func doomedTable(noFence, withFence model.Program, fence model.FencePolicy) {
	fmt.Println("property: doomed transaction never diverges (¬Stuck[T2])")
	fmt.Printf("%-16s %-10s %-9s %s\n", "program", "fence", "verdict", "states")
	type row struct {
		p  model.Program
		fp model.FencePolicy
		fn string
	}
	for _, r := range []row{
		{noFence, model.FenceWaitAll, "none"},
		{withFence, fence, "correct"},
	} {
		viol, res, err := model.CheckAlways(
			model.Config{Prog: r.p, Model: model.TL2Kind, Fence: r.fp},
			func(f model.Final) bool { return !f.Stuck[2] },
		)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Printf("%-16s %-10s %-9s %d\n", r.p.Name, r.fn, verdict(viol == nil), res.States)
	}
	fmt.Println("expected: none VIOLATED (doomed loop on ν's write); correct HOLDS (paper Fig 1b)")
}

func alwaysTable(p model.Program, post string, pred func(model.Final) bool) {
	fmt.Printf("property: %s\n", post)
	for _, kind := range []model.TMKind{model.TL2Kind, model.AtomicKind} {
		viol, res, err := model.CheckAlways(model.Config{Prog: p, Model: kind}, pred)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		name := "TL2"
		if kind == model.AtomicKind {
			name = "atomic"
		}
		fmt.Printf("%-16s %-8s %-9s %d states\n", p.Name, name, verdict(viol == nil), res.States)
	}
	fmt.Println("expected: HOLDS under both models (the idiom is DRF)")
}

func racyTable() {
	p := litmus.Fig3()
	fmt.Println("property: x=l1 ⇒ y=l2 (paper Fig 3; the program is racy)")
	for _, kind := range []model.TMKind{model.TL2Kind, model.AtomicKind} {
		viol, res, err := model.CheckAlways(model.Config{Prog: p, Model: kind}, litmus.Fig3Post)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		name := "TL2"
		if kind == model.AtomicKind {
			name = "atomic"
		}
		fmt.Printf("%-16s %-8s %-9s %d states\n", p.Name, name, verdict(viol == nil), res.States)
	}
	fmt.Println("expected: TL2 VIOLATED (intermediate commit state observed); atomic HOLDS")
}

func gccBugTable() {
	fmt.Println("property: doomed read-only transaction never diverges (Zhou et al. GCC bug)")
	fmt.Printf("%-22s %-9s %s\n", "fence implementation", "verdict", "states")
	for _, r := range []struct {
		fp model.FencePolicy
		fn string
	}{
		{model.FenceWaitAll, "wait-all (correct)"},
		{model.FenceSkipReadOnly, "skip-read-only (GCC)"},
	} {
		viol, res, err := model.CheckAlways(
			model.Config{Prog: litmus.Fig1b(true), Model: model.TL2Kind, Fence: r.fp},
			func(f model.Final) bool { return !f.Stuck[2] },
		)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Printf("%-22s %-9s %d\n", r.fn, verdict(viol == nil), res.States)
	}
	fmt.Println("expected: wait-all HOLDS; skip-read-only VIOLATED")
}

func mgcTable(seed int64) {
	fmt.Println("most-general client on the concurrent TL2 runtime; every recorded")
	fmt.Println("history checked: well-formed, DRF, consistent, acyclic graph, witness ∈ Hatomic")
	fmt.Printf("%-6s %-9s %-7s %-8s %s\n", "seed", "actions", "txns", "nontxn", "verdict")
	for s := seed; s < seed+5; s++ {
		res, err := mgc.RunAndCheck(mgc.Config{
			Threads: 4, DataRegs: 4, TxnsPerThread: 30, OpsPerTxn: 3, Rounds: 6, Seed: s,
		})
		if err != nil {
			fmt.Printf("%-6d FAILED: %v\n", s, err)
			continue
		}
		fmt.Printf("%-6d %-9d %-7d %-8d PASS\n", s, res.Actions, res.Txns, res.NonTxn)
	}
}

func fundamentalTable(seed int64) {
	fmt.Println("Fundamental Property (Thm 5.3) on sampled TL2-model traces of DRF programs:")
	fmt.Printf("%-16s %-8s %-8s\n", "program", "traces", "verdict")
	for _, p := range []model.Program{litmus.Fig1a(true), litmus.Fig1b(true), litmus.Fig2(), litmus.Fig6()} {
		runs, err := model.Sample(model.Config{Prog: p, Model: model.TL2Kind, Fence: model.FenceWaitAll}, 200, seed)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		ok := true
		for _, r := range runs {
			wv := r.WVers
			if _, err := opacity.Check(r.Hist, opacity.Options{
				WVer: func(ti int) (int64, bool) { v, found := wv[ti]; return v, found },
			}); err != nil {
				ok = false
				fmt.Printf("  %s: %v\n", p.Name, err)
				break
			}
		}
		fmt.Printf("%-16s %-8d %-8s\n", p.Name, len(runs), verdict(ok))
	}
}

func fenceOverheadTable(seed int64) {
	threads := runtime.GOMAXPROCS(0)
	if threads > 8 {
		threads = 8
	}
	ops := 20000
	fmt.Printf("fence overhead (Yoo et al. [42] reproduction shape), %d threads, %d ops/thread\n", threads, ops)
	fmt.Printf("%-12s %-14s %-14s %-10s\n", "workload", "none", "conservative", "overhead")
	type wl struct {
		name string
		ops  int
		regs int
	}
	wls := []wl{
		{"shorttxn", ops, 64},
		{"counter", ops / 4, 1},
		{"bank", ops, 64},
		{"readmostly", ops, 256},
		{"pipeline", ops, 65},
	}
	for _, w := range wls {
		run, ok := workload.ByName(w.name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", w.name)
			return
		}
		var times [2]time.Duration
		for i, mode := range []workload.FenceMode{workload.FenceNone, workload.FenceAfterEveryTxn} {
			tm := engine.MustNewSpec("tl2", w.regs, threads+2, nil)
			if w.name == "bank" {
				for x := 0; x < w.regs; x++ {
					tm.Store(1, x, 100)
				}
			}
			start := time.Now()
			if _, err := run(tm, workload.Params{Threads: threads, Ops: w.ops, Mode: mode, Seed: seed}); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return
			}
			times[i] = time.Since(start)
		}
		over := float64(times[1]-times[0]) / float64(times[0]) * 100
		fmt.Printf("%-12s %-14s %-14s %+.0f%%\n", w.name, times[0].Round(time.Millisecond), times[1].Round(time.Millisecond), over)
	}
	fmt.Println("expected shape: conservative fencing costs tens of percent on average,")
	fmt.Println("worst on short uncontended transactions (paper cites 32% avg / 107% worst);")
	fmt.Println("on the heavily contended counter, fencing can even help by throttling aborts")
}

func scalabilityTable(seed int64) {
	maxT := runtime.GOMAXPROCS(0)
	if maxT > 16 {
		maxT = 16
	}
	const totalOps = 1_600_000 // fixed total work, divided among threads
	specs := []string{"tl2", "norec", "atomic", "baseline"}
	fmt.Printf("read-mostly throughput (ops/µs-scaled), %d total ops, 90%% read-only scans\n", totalOps)
	fmt.Printf("%-8s", "threads")
	for _, s := range specs {
		fmt.Printf(" %-12s", s)
	}
	fmt.Println()
	for th := 1; th <= maxT; th *= 2 {
		ops := totalOps / th
		fmt.Printf("%-8d", th)
		for _, spec := range specs {
			tm := engine.MustNewSpec(spec, 256, th+1, nil)
			start := time.Now()
			if _, err := workload.ReadMostly(tm, th, ops, 4, 90, workload.FenceNone, seed); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return
			}
			fmt.Printf(" %-12.2f", float64(totalOps)/float64(time.Since(start).Microseconds()))
		}
		fmt.Println()
	}
	fmt.Println("expected shape: TL2, NOrec and the striped 2PL runtime scale with threads")
	fmt.Println("on read-mostly; the global lock is flat")
	fmt.Println("(a TL2 read-only commit does not tick the global clock; Figure 9 as")
	fmt.Println(" printed ticks it on every commit)")
}

func fenceLatencyTable() {
	const n = 8
	fmt.Println("fence latency vs implementation (quiet system, no active txns)")
	fmt.Printf("%-8s %-12s\n", "impl", "ns/fence")
	for _, im := range []struct {
		name string
		q    rcu.Quiescer
	}{
		{"flags", rcu.NewFlags(n)},
		{"epochs", rcu.NewEpochs(n)},
	} {
		const iters = 200000
		start := time.Now()
		for i := 0; i < iters; i++ {
			im.q.Wait()
		}
		fmt.Printf("%-8s %-12.1f\n", im.name, float64(time.Since(start).Nanoseconds())/iters)
	}
}

// reclaimTable is E17, the Figure 7 story quantified (BENCH_ds.json's
// sweep as one command): set-churn footprint and throughput as the op
// count grows, per allocator/reclaim configuration. The bump column's
// footprint scales with the op count until the arena dies; the quiesce
// columns stay bounded by the live set; the batch columns additionally
// amortize one grace period over a whole magazine of frees (the
// batches column counts the grace-period registrations the run paid).
func reclaimTable(seed int64) {
	threads := runtime.GOMAXPROCS(0)
	if threads > 8 {
		threads = 8
	}
	specs := []string{"tl2+bump", "tl2+quiesce", "tl2+quiesce+batch", "tl2+defer+quiesce", "tl2+defer+quiesce+batch"}
	fmt.Printf("set-churn footprint vs ops (%d threads, live set 128): heap regs [ops/µs] (batches)\n", threads)
	fmt.Printf("%-8s", "ops/thr")
	for _, s := range specs {
		fmt.Printf(" %-26s", s)
	}
	fmt.Println()
	for _, ops := range []int{500, 1000, 2000} {
		fmt.Printf("%-8d", ops)
		for _, spec := range specs {
			start := time.Now()
			st, err := engine.RunWorkload(spec, "set-churn",
				workload.Params{Threads: threads, Ops: ops, Seed: seed, LiveSet: 128})
			dur := time.Since(start)
			if err != nil && !workload.IsOutOfSpace(err) {
				fmt.Fprintln(os.Stderr, "error:", err)
				return
			}
			cell := fmt.Sprintf("%d [%.1f]", st.HeapRegs,
				float64(threads)*float64(ops)/float64(dur.Microseconds()))
			if workload.IsOutOfSpace(err) {
				cell = "EXHAUSTED"
			} else if st.ReclaimBatches > 0 {
				cell += fmt.Sprintf(" (%d)", st.ReclaimBatches)
			}
			fmt.Printf(" %-26s", cell)
		}
		fmt.Println()
	}
	fmt.Println("expected shape: bump's footprint grows with ops (until EXHAUSTED on long")
	fmt.Println("runs); quiesce stays bounded near the live set; batch matches that bound")
	fmt.Println("with far fewer grace periods than frees (one per magazine, not per Free)")
}

// orderedMapTable is E18: the ordered-map contrast over the reclaiming
// heap — the same map-churn traffic on the O(n) sorted list and the
// O(log n) skiplist, per TM and live-set size. Each cell is churn-phase
// ns/op with the run's telemetry abort rate; prefill is untimed (the
// list's O(n²) prefill would bury the per-op numbers). The skiplist's
// shorter read sets pay off twice: fewer register reads per operation
// AND fewer validation aborts under concurrent churn.
func orderedMapTable(seed int64) {
	threads := runtime.GOMAXPROCS(0)
	if threads > 8 {
		threads = 8
	}
	if threads < 4 {
		threads = 4
	}
	const ops = 400
	fmt.Printf("map-churn ns/op (abort rate), %d threads, %d ops/thread, quiesce heap\n", threads, ops)
	fmt.Printf("%-10s %-6s", "tm", "size")
	for _, ds := range []string{"list", "skiplist"} {
		fmt.Printf(" %-22s", ds)
	}
	fmt.Println(" speedup")
	for _, tmName := range engine.TMs() {
		for _, size := range []int{256, 1024, 4096} {
			fmt.Printf("%-10s %-6d", tmName, size)
			var nsPerOp [2]float64
			for i, ds := range []string{"map", "skip"} {
				st, err := engine.RunWorkload(tmName+"+quiesce", "map-churn",
					workload.Params{Threads: threads, Ops: ops, Seed: seed, LiveSet: size, DS: ds})
				if err != nil {
					fmt.Fprintln(os.Stderr, "error:", err)
					return
				}
				total := float64(threads) * float64(ops)
				nsPerOp[i] = float64(st.Elapsed.Nanoseconds()) / total
				fmt.Printf(" %-22s", fmt.Sprintf("%.0f (%.4f)", nsPerOp[i], st.Telemetry.AbortRate()))
			}
			fmt.Printf(" %.1fx\n", nsPerOp[0]/nsPerOp[1])
		}
	}
	fmt.Println("expected shape: near parity at 256, the skiplist pulling far ahead as the")
	fmt.Println("size grows (O(log n) vs O(n) traversals), with no worse an abort rate")
}

// hashMapTable is E20: the point-op contrast between the three lookup
// structures — the O(log n) skiplist, the O(1) chained hash map over
// the splitting/coalescing heap (growing through incremental
// privatized rehash windows), and the sharded open-addressing KV
// store — per TM and live-set size. The skip and hash cells run the
// SAME map-churn traffic (60/20/20 get/put/delete over a reclaiming
// quiesce heap); the kv cell is the kvstore workload's read-heavy
// 70/20/10 mix on its fixed-geometry sharded table, so its column is
// a front-end reference point rather than a same-mix contender. Each
// cell is churn-phase ns/op with the abort rate in parentheses; the
// hash cell also reports how many rehash windows the run migrated
// (w=N), and the speedup column is hash over skiplist.
func hashMapTable(seed int64) {
	threads := runtime.GOMAXPROCS(0)
	if threads > 8 {
		threads = 8
	}
	if threads < 4 {
		threads = 4
	}
	const ops = 400
	fmt.Printf("point-op ns/op (abort rate), %d threads, %d ops/thread, quiesce heap\n", threads, ops)
	fmt.Printf("%-10s %-6s %-22s %-26s %-22s %s\n", "tm", "size", "skiplist", "hash", "kvstore", "speedup")
	for _, tmName := range engine.TMs() {
		for _, size := range []int{256, 4096} {
			fmt.Printf("%-10s %-6d", tmName, size)
			var nsPerOp [2]float64
			for i, wl := range []string{"map-churn", "hash-churn"} {
				ds := "skip"
				if wl == "hash-churn" {
					ds = "hash"
				}
				st, err := engine.RunWorkload(tmName+"+quiesce", wl,
					workload.Params{Threads: threads, Ops: ops, Seed: seed, LiveSet: size, DS: ds})
				if err != nil {
					fmt.Fprintln(os.Stderr, "error:", err)
					return
				}
				total := float64(threads) * float64(ops)
				nsPerOp[i] = float64(st.Elapsed.Nanoseconds()) / total
				cell := fmt.Sprintf("%.0f (%.4f)", nsPerOp[i], st.Telemetry.AbortRate())
				if wl == "hash-churn" {
					fmt.Printf(" %-26s", fmt.Sprintf("%s w=%d", cell, st.Telemetry.RehashWindows))
				} else {
					fmt.Printf(" %-22s", cell)
				}
			}
			st, err := engine.RunWorkload(tmName+"+quiesce", "kvstore",
				workload.Params{Threads: threads, Ops: ops, Seed: seed})
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return
			}
			total := float64(threads) * float64(ops)
			kvNs := float64(st.Elapsed.Nanoseconds()) / total
			fmt.Printf(" %-22s", fmt.Sprintf("%.0f (%.4f)", kvNs, st.Telemetry.AbortRate()))
			fmt.Printf(" %.1fx\n", nsPerOp[0]/nsPerOp[1])
		}
	}
	fmt.Println("expected shape: the hash map ahead of the skiplist everywhere and pulling")
	fmt.Println("away as the live set grows (1–2 chain nodes vs ~12 tower levels of")
	fmt.Println("instrumented reads per op), rehashing through windows, never a global pause")
}

// scanTable is E19: the range-scan contrast on the skiplist — one
// thread scanning the whole map in a loop while the rest churn it,
// scanning either as one read-only transaction per scan (snapshot) or
// through the privatized window iterator (window: flip a guard
// register odd, one fence, walk level 0 uninstrumented, publish).
// Each cell is the CHURNERS' throughput with the scanner's streaming
// rate and the churner-only abort rate in parentheses: the snapshot
// scan's long-lived read-only transaction is a grace-period hazard —
// on a reclaiming heap every fence must wait it out, so back-to-back
// snapshot scans collapse writer throughput — while the windowed
// scanner holds no transaction open during its walk.
func scanTable(seed int64) {
	threads := runtime.GOMAXPROCS(0)
	if threads > 8 {
		threads = 8
	}
	if threads < 4 {
		threads = 4
	}
	const ops = 2000
	fmt.Printf("scan-churn churn ops/ms [scan pairs/µs] (writer abort rate), %d threads, %d ops/churner, quiesce heap\n", threads, ops)
	fmt.Printf("%-10s %-6s", "tm", "size")
	for _, mode := range []string{"snapshot", "window"} {
		fmt.Printf(" %-26s", mode)
	}
	fmt.Println(" churn speedup")
	for _, tmName := range engine.TMs() {
		for _, size := range []int{1024, 4096} {
			fmt.Printf("%-10s %-6d", tmName, size)
			var churnRate [2]float64
			for i, mode := range []string{"snapshot", "window"} {
				st, err := engine.RunWorkload(tmName+"+quiesce", "scan-churn",
					workload.Params{Threads: threads, Ops: ops, Seed: seed, LiveSet: size, DS: "skip", Scan: mode})
				if err != nil {
					fmt.Fprintln(os.Stderr, "error:", err)
					return
				}
				total := float64(threads-1) * float64(ops)
				churnRate[i] = total * 1e6 / float64(st.Elapsed.Nanoseconds())
				pairsPerUs := float64(st.ScanPairs) * 1e3 / float64(st.Elapsed.Nanoseconds())
				fmt.Printf(" %-26s", fmt.Sprintf("%.1f [%.0f] (%.4f)", churnRate[i], pairsPerUs, st.WriterAbortRate))
			}
			fmt.Printf(" %.1fx\n", churnRate[1]/churnRate[0])
		}
	}
	fmt.Println("expected shape: comparable scan streaming rates, but windowed scanning")
	fmt.Println("leaves churn throughput an order of magnitude higher at 4096 pairs —")
	fmt.Println("the snapshot transaction stalls every reclamation grace period")
}

// norecTable is E15: fence-free privatization safety on NOrec.
func norecTable() {
	fmt.Println("NOrec (Dalessandro/Spear/Scott, paper ref [10]): privatization WITHOUT fences")
	const flag, x = 0, 1
	const iters = 2000
	violations := 0
	for i := 0; i < iters; i++ {
		tm := engine.MustNewSpec("norec", 2, 3, nil)
		var committed atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := core.Atomically(tm, 1, func(tx core.Txn) error {
				return tx.Write(flag, 1)
			}); err == nil {
				committed.Store(true)
				tm.Store(1, x, 1) // ν, no fence
			}
		}()
		go func() {
			defer wg.Done()
			core.Atomically(tm, 2, func(tx core.Txn) error {
				f, err := tx.Read(flag)
				if err != nil {
					return err
				}
				if f == 0 {
					return tx.Write(x, 42)
				}
				return nil
			})
		}()
		wg.Wait()
		if committed.Load() && tm.Load(1, x) != 1 {
			violations++
		}
	}
	fmt.Printf("Figure 1(a) idiom, fence OMITTED, %d runs: %d postcondition violations\n", iters, violations)
	fmt.Println("expected: 0 (NOrec's serialized commits + value validation are privatization-safe;")
	fmt.Println("on TL2 the same fence-free program is provably unsafe — see E1)")
}

// wtstmTable is E16: the delayed-abort anomaly of in-place TMs.
func wtstmTable() {
	fmt.Println("write-through (undo-log) TM: the in-place variant of the privatization hazard")
	const flag, x = 0, 1
	demo := func(unsafe bool) int64 {
		spec := "wtstm"
		if unsafe {
			spec = "wtstm+nofence"
		}
		tm := engine.MustNewSpec(spec, 2, 3, nil)
		t2 := tm.Begin(2)
		t2.Write(x, 42) // in place, lock held
		core.Atomically(tm, 1, func(tx core.Txn) error { return tx.Write(flag, 1) })
		if unsafe {
			tm.Fence(1) // no-op
			tm.Store(1, x, 7)
			t2.Read(flag) // doomed: rollback clobbers ν
		} else {
			done := make(chan struct{})
			go func() { tm.Fence(1); tm.Store(1, x, 7); close(done) }()
			t2.Read(flag) // doomed: rolls back BEFORE the fence releases ν
			<-done
		}
		return tm.Load(1, x)
	}
	fmt.Printf("%-18s x after ν=7\n", "fence")
	fmt.Printf("%-18s %d   (rollback of the doomed transaction clobbered ν)\n", "omitted", demo(true))
	fmt.Printf("%-18s %d   (fence waited out the rollback)\n", "correct", demo(false))
	fmt.Println("expected: omitted ⇒ 0 (ν lost), correct ⇒ 7")
}
