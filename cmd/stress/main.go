// Command stress runs the most-general-client workload (§7's proof
// device as a tester) on a real concurrent TM runtime and verifies
// every recorded history's strong-opacity obligations. Nonzero exit
// means a violation was found.
//
// The TM under test is selected by an engine specification (see
// internal/engine): any registered TM × clock × fence × quiescer
// configuration, e.g. -tm tl2, -tm tl2+gv4+epochs, -tm norec,
// -tm atomic.
//
// With -workload, stress instead drives a named workload from the
// internal/workload registry (kvstore, kv-scan, kv-zipfian, bank, …)
// on the selected TM and reports throughput and privatization counts.
//
// Usage:
//
//	stress -iters 20 -threads 4 -regs 4 -txns 50 -tm tl2+gv4
//	stress -tm norec -workload kvstore -threads 8 -wops 20000
//	stress -tm tl2 -workload kv-scan -shards 16 -privevery 100
//	stress -tm tl2 -fence combine -workload kv-scan -privevery 50
//	stress -tm tl2+quiesce -ds set -churn 256 -wops 50000
//	stress -tm tl2 -fence defer -alloc quiesce -ds queue
//	stress -tm tl2 -alloc quiesce -reclaim batch -ds set
//	stress -tm tl2 -alloc quiesce -ds skip -churn 4096
//	stress -tm tl2 -alloc quiesce -ds hash -churn 4096
//	stress -tm tl2+quiesce -workload rehash-storm -wops 2000
//	stress -tm norec -alloc quiesce -reclaim batch -ds map
//	stress -tm tl2+quiesce -workload scan-churn -churn 4096 -scan window
//	stress -tm list          # print the registered configurations
//	stress -workload list    # print the registered workloads
//
// -fence, -alloc and -reclaim append the fence-mode (wait, combine,
// defer), allocator (bump, quiesce) and reclaim-granularity (free,
// batch) modifiers to the -tm spec. -ds set|queue|map|skip|hash is
// shorthand for the data-structure workloads (set-churn, queue-pipe,
// and map-churn on the sorted-list Map, the skiplist SkipMap, or the
// chained HashMap with incremental privatized rehash) and
// -churn sets their live-set-size knob; on a quiesce spec the report
// includes the
// reclaim-latency quantiles and the steady-state register footprint
// (on a bump spec the footprint line shows the leak), and on a batch
// spec a magazine summary: how many grace periods the batched retires
// actually paid for the run's frees, and the blocks left cached in the
// per-thread magazines. KV workload reports include a p50/p99
// privatization-latency line.
//
// -workload scan-churn runs one scanning thread against churners;
// -scan window|snapshot picks its strategy (the SkipMap privatized
// window iterator vs one read-only transaction per scan) and the
// report gains a scan summary line (scans, windows, pairs streamed,
// and the churner-only abort rate).
//
// On a TM that carries a telemetry board the report ends with the
// board's abort, privatization and magazine-hit rates. -procs pins
// GOMAXPROCS for the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"safepriv/internal/engine"
	"safepriv/internal/mgc"
	"safepriv/internal/record"
	"safepriv/internal/workload"
)

// runWorkload is the -workload mode: one named workload on one TM.
func runWorkload(name, tmSpec string, threads, ops, shards, privEvery, liveSet int, dsImpl, scanMode string, seed int64) error {
	p := workload.Params{
		Threads:        threads,
		Ops:            ops,
		Mode:           workload.FenceSelective,
		Seed:           seed,
		Shards:         shards,
		PrivatizeEvery: privEvery,
		LiveSet:        liveSet,
		DS:             dsImpl,
		Scan:           scanMode,
	}
	start := time.Now()
	st, err := engine.RunWorkload(tmSpec, name, p)
	if err != nil {
		return err
	}
	dur := time.Since(start)
	total := int64(threads) * int64(ops)
	fmt.Printf("%s on %s: %d ops in %v (%.0f ops/sec), commits=%d aborts=%d privatize/fences=%d\n",
		name, tmSpec, total, dur.Round(time.Millisecond),
		float64(total)/dur.Seconds(), st.Commits, st.Aborts, st.Fences)
	if h := st.PrivLatency; h != nil && h.Count() > 0 {
		fmt.Printf("privatization latency: p50=%v p99=%v (%d privatizing ops)\n",
			h.Quantile(0.50), h.Quantile(0.99), h.Count())
	}
	if h := st.ReclaimLatency; h != nil && h.Count() > 0 {
		fmt.Printf("reclaim latency: p50=%v p99=%v (%d reclaimed blocks, %d allocs, footprint %d regs)\n",
			h.Quantile(0.50), h.Quantile(0.99), st.Frees, st.Allocs, st.HeapRegs)
	} else if st.HeapRegs > 0 {
		fmt.Printf("allocator footprint: %d regs (bump: removed nodes leak)\n", st.HeapRegs)
	}
	if st.ScanOps > 0 {
		fmt.Printf("scans: %d full scans (%d windows, %d pairs streamed), writer abort rate %.4f\n",
			st.ScanOps, st.ScanWindows, st.ScanPairs, st.WriterAbortRate)
	}
	if st.ReclaimBatches > 0 {
		fmt.Printf("magazines: %d frees in %d batch retires (%.1f frees/grace period), %d blocks still cached\n",
			st.Frees, st.ReclaimBatches, float64(st.Frees)/float64(st.ReclaimBatches), st.MagCached)
	}
	if tel := st.Telemetry; tel.Commits > 0 {
		fmt.Printf("telemetry: abort-rate=%.3f priv-rate=%.4f mag-hit-rate=%.3f\n",
			tel.AbortRate(), tel.PrivRate(), tel.MagHitRate())
	}
	return nil
}

// dsWorkload maps the -ds shorthand onto its workload name and — for
// the ordered-map values — the map-implementation axis (Params.DS).
func dsWorkload(ds string) (name, impl string, err error) {
	switch ds {
	case "":
		return "", "", nil
	case "set":
		return "set-churn", "", nil
	case "queue":
		return "queue-pipe", "", nil
	case "map":
		return "map-churn", "map", nil
	case "skip":
		return "map-churn", "skip", nil
	case "hash":
		return "map-churn", "hash", nil
	}
	return "", "", fmt.Errorf("stress: unknown -ds %q (want set, queue, map, skip or hash)", ds)
}

// dsFlagConflict rejects -ds alongside an explicit -workload, in the
// vocabulary the user typed: -ds IS a workload selection (set-churn,
// queue-pipe, map-churn), so combining the two would silently discard
// one of them.
func dsFlagConflict(ds, workloadName string) error {
	if ds == "" || workloadName == "" || workloadName == "list" {
		return nil
	}
	return fmt.Errorf("stress: -ds %s conflicts with -workload %s: -ds already selects the workload", ds, workloadName)
}

func main() {
	iters := flag.Int("iters", 10, "number of independent runs")
	threads := flag.Int("threads", 4, "worker threads")
	regs := flag.Int("regs", 4, "data registers")
	txns := flag.Int("txns", 40, "transactions per worker")
	ops := flag.Int("ops", 3, "max operations per transaction")
	rounds := flag.Int("rounds", 6, "privatize/publish rounds")
	seed := flag.Int64("seed", 1, "base seed")
	tmSpec := flag.String("tm", "tl2", "TM under test: an engine spec (or 'list' to print them)")
	fence := flag.String("fence", "", "fence mode modifier appended to -tm: wait, combine, or defer")
	alloc := flag.String("alloc", "", "allocator modifier appended to -tm: bump or quiesce")
	reclaim := flag.String("reclaim", "", "reclaim-granularity modifier appended to -tm: free or batch")
	wl := flag.String("workload", "", "run a named workload instead of the mgc checker (or 'list')")
	ds := flag.String("ds", "", "data-structure workload shorthand: set (set-churn), queue (queue-pipe), map, skip or hash (map-churn on the sorted list / the skiplist / the hash map)")
	churn := flag.Int("churn", 0, "live-set-size knob for the -ds workloads (0 = default)")
	wops := flag.Int("wops", 10000, "operations per worker in -workload mode")
	shards := flag.Int("shards", 0, "shard count for the KV workloads (0 = default)")
	privEvery := flag.Int("privevery", 0, "KV privatization cadence: scan every N ops (0 = workload default, <0 = never)")
	scanMode := flag.String("scan", "", "scan-churn scanner strategy: window (privatized windows, the default) or snapshot (one read-only transaction)")
	procs := flag.Int("procs", 0, "set GOMAXPROCS for the run (0 = leave the runtime default)")
	flag.Parse()

	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	if *tmSpec == "list" {
		for _, s := range engine.Specs() {
			fmt.Println(s)
		}
		return
	}
	if *fence != "" {
		// Appending keeps the engine's conflict rejection: -fence combine
		// with a spec that already names a fence mode is a usage error.
		*tmSpec += "+" + *fence
	}
	if *alloc != "" {
		*tmSpec += "+" + *alloc
	}
	if *reclaim != "" {
		*tmSpec += "+" + *reclaim
	}
	if *wl == "list" {
		for _, s := range workload.Names() {
			fmt.Println(s)
		}
		return
	}
	if err := dsFlagConflict(*ds, *wl); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	dsName, dsImpl, err := dsWorkload(*ds)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if dsName != "" {
		*wl = dsName
	}
	if *scanMode != "" && *wl != "scan-churn" {
		fmt.Fprintf(os.Stderr, "stress: -scan %s only applies to -workload scan-churn\n", *scanMode)
		os.Exit(2)
	}
	if *wl != "" {
		if err := runWorkload(*wl, *tmSpec, *threads, *wops, *shards, *privEvery, *churn, dsImpl, *scanMode, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	// Validate the spec upfront, including sink support (the harness
	// records histories), so a bad -tm is a usage error, not N FAILs.
	if _, err := engine.NewSpec(*tmSpec, 1, 1, record.NewRecorder()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	failures := 0
	for i := 0; i < *iters; i++ {
		res, err := mgc.RunAndCheck(mgc.Config{
			Threads:       *threads,
			DataRegs:      *regs,
			TxnsPerThread: *txns,
			OpsPerTxn:     *ops,
			Rounds:        *rounds,
			Seed:          *seed + int64(i),
			TM:            *tmSpec,
		})
		if err != nil {
			failures++
			fmt.Printf("run %d: FAIL: %v\n", i, err)
			continue
		}
		fmt.Printf("run %d: PASS (%d actions, %d txns, %d nontxn accesses)\n",
			i, res.Actions, res.Txns, res.NonTxn)
	}
	if failures > 0 {
		fmt.Printf("%d/%d runs failed\n", failures, *iters)
		os.Exit(1)
	}
	fmt.Printf("all %d runs passed strong-opacity checking\n", *iters)
}
