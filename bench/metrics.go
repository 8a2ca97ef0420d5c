package main

// metricDef describes one metric the benchmark reports. BENCHMARK.json
// lists the same names, units and directions (a test keeps the two in
// step) and adds the regression bound of each end-to-end metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// source is "slice" for a measurement of the measured slice itself,
	// "counters" for a delta read around it, "ladder" for a rung of the
	// ladder pass, "run" for the rest.
	source string
	// moves names the end-to-end metric and workload a change to this
	// layer metric should move (README.md has the full table).
	moves string
}

// endToEnd lists what a user of the system sees and a driver bounds,
// per workload. Three things the issue wanted here are not:
//
//   - failed_share is 0 on every accepted run, and a bound relative to a
//     median of 0 says nothing. Failures are reported as `failed` out of
//     `attempted` and make the command exit nonzero.
//   - op_p50_us, op_p99_us and scan_pairs_per_s are measured and printed
//     for every slice, but on the shared 2-CPU host the benchmark was
//     written on their run-to-run spread is 12–38 % (README.md, "Bounds"),
//     wider than any bound a driver accepts. By the issue's own rule a
//     metric that cannot be bounded is demoted to the per-layer list, not
//     kept with a loose bound.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "heap_regs", unit: "regs", better: "lower"},
}

var perLayer = []metricDef{
	{"op_p50_us", "us", "lower", "slice", "what a caller sees; demoted from the end-to-end list for its spread"},
	{"op_p99_us", "us", "lower", "slice", "what a caller sees; demoted from the end-to-end list for its spread"},
	{"scan_pairs_per_s", "1/s", "higher", "slice", "what worker 1 sees in the two scan workloads (0 elsewhere); demoted for its spread"},
	{"tl2.txn_ro_ns", "ns", "lower", "ladder", "ops_per_s, op_p50_us on store-read-heavy; not serve-point"},
	{"tl2.txn_rw_ns", "ns", "lower", "ladder", "ops_per_s, op_p50_us on store-read-heavy; not serve-point"},
	{"tl2.commits_per_op", "count", "lower", "counters", "ops_per_s on the churn workloads"},
	{"tl2.abort_rate", "share", "lower", "counters", "ops_per_s, op_p99_us on store-scan-churn, ds-churn, ds-range-churn"},
	{"tl2.backoff_share", "share", "lower", "counters", "op_p99_us on the churn workloads"},
	{"quiesce.fence_idle_ns", "ns", "lower", "ladder", "op_p99_us, scan_pairs_per_s on both scan workloads"},
	{"quiesce.fence_busy_us", "us", "lower", "ladder", "op_p99_us, scan_pairs_per_s on both scan workloads"},
	{"quiesce.fences_per_kop", "count", "lower", "counters", "ops_per_s on ds-range-churn, store-scan-churn"},
	{"quiesce.fence_wait_us_mean", "us", "lower", "counters", "ops_per_s on ds-range-churn, store-scan-churn"},
	{"quiesce.fence_wait_share", "share", "lower", "counters", "ops_per_s on ds-range-churn, store-scan-churn"},
	{"stmalloc.new_free_ns", "ns", "lower", "ladder", "ops_per_s on ds-range-churn"},
	{"stmalloc.new_free_mag_ns", "ns", "lower", "ladder", "ops_per_s on ds-churn"},
	{"stmalloc.frees_per_batch", "count", "higher", "counters", "ops_per_s on ds-churn"},
	{"stmalloc.mag_hit_rate", "share", "higher", "counters", "ops_per_s on ds-churn"},
	{"stmalloc.splits_per_kop", "count", "lower", "counters", "ops_per_s, heap_regs on ds-churn"},
	{"stmalloc.coalesces_per_kop", "count", "lower", "counters", "ops_per_s, heap_regs on ds-churn"},
	{"stmalloc.pending_frees_end", "count", "lower", "counters", "heap_regs on ds-churn, ds-range-churn"},
	{"stmds.hash_get_ns", "ns", "lower", "ladder", "ops_per_s on ds-churn"},
	{"stmds.hash_put_delete_ns", "ns", "lower", "ladder", "ops_per_s on ds-churn"},
	{"stmds.skip_get_ns", "ns", "lower", "ladder", "ops_per_s on ds-range-churn"},
	{"stmds.skip_put_delete_ns", "ns", "lower", "ladder", "ops_per_s on ds-range-churn"},
	{"stmds.skip_range_ns_per_pair", "ns", "lower", "ladder", "scan_pairs_per_s on ds-range-churn"},
	{"stmds.rehash_windows", "count", "lower", "counters", "setup_s, ops_per_s on ds-churn"},
	{"stmkv.get_ns", "ns", "lower", "ladder", "ops_per_s on store-read-heavy"},
	{"stmkv.put_ns", "ns", "lower", "ladder", "ops_per_s on store-scan-churn"},
	{"stmkv.delete_ns", "ns", "lower", "ladder", "ops_per_s on store-scan-churn"},
	{"stmkv.putbatch_ns_per_pair", "ns", "lower", "ladder", "none yet: no workload batches writes"},
	{"stmkv.scanpage_ns_per_pair", "ns", "lower", "ladder", "scan_pairs_per_s on store-scan-churn"},
	{"stmkv.pool_acquire_release_ns", "ns", "lower", "ladder", "op_p50_us on serve-point"},
	{"stmkv.privatizations_per_s", "1/s", "lower", "counters", "op_p99_us, ops_per_s on store-scan-churn"},
	{"stmkv.grows", "count", "lower", "counters", "setup_s on the store and serve workloads"},
	{"stmkv.scan_windows_per_page", "count", "lower", "counters", "scan_pairs_per_s on store-scan-churn"},
	{"kvserve.handler_get_ns", "ns", "lower", "ladder", "op_p50_us, ops_per_s on serve-point"},
	{"kvserve.handler_put_ns", "ns", "lower", "ladder", "op_p50_us, ops_per_s on serve-point"},
	{"kvserve.handler_scan_ns_per_pair", "ns", "lower", "ladder", "scan_pairs_per_s on serve-point"},
	{"kvserve.self_get_ns", "ns", "lower", "ladder", "op_p50_us, ops_per_s on serve-point"},
	{"http.roundtrip_get_us", "us", "lower", "ladder", "op_p50_us on serve-point"},
	{"http.self_get_us", "us", "lower", "ladder", "op_p50_us on serve-point"},
	{"ladder.unattributed_share", "share", "lower", "ladder", "the part of serve-point's op_p50_us the rungs do not explain"},
	{"process.allocs_per_op", "count", "lower", "counters", "op_p99_us, ops_per_s on serve-point"},
	{"process.bytes_per_op", "bytes", "lower", "counters", "op_p99_us, ops_per_s on serve-point"},
	{"process.gc_cycles", "count", "lower", "counters", "op_p99_us on serve-point"},
	{"process.gc_pause_share", "share", "lower", "counters", "op_p99_us on serve-point"},
	{"host.calib_mops", "Mops/s", "higher", "run", "context only"},
	{"host.calib_spread", "share", "lower", "run", "context only: above 0.10 the host was unsteady"},
	{"trace.overhead_share", "share", "lower", "run", "none: what recording spans costs"},
}

// ratio is a/b, or 0 when b is 0 (a rate of nothing is reported as 0,
// which a per-layer metric may be).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics turns the counters read before and after one measured
// slice into the per-layer counter metrics. ops is the number of point
// operations completed in the slice, busyNs the goroutine time it
// offered (goroutines × slice length), sliceS its length.
func counterMetrics(before, after counters, ops int64, busyNs, sliceS float64) map[string]float64 {
	tel := after.tel.Delta(before.tel)
	heapFrees := float64(after.heap.Frees - before.heap.Frees)
	n := float64(ops)
	return map[string]float64{
		"tl2.commits_per_op":          ratio(float64(tel.Commits), n),
		"tl2.abort_rate":              tel.AbortRate(),
		"tl2.backoff_share":           ratio(float64(tel.BackoffNs), busyNs),
		"quiesce.fences_per_kop":      ratio(float64(tel.Fences)*1000, n),
		"quiesce.fence_wait_us_mean":  ratio(float64(tel.FenceWaitNs)/1000, float64(tel.Fences)),
		"quiesce.fence_wait_share":    ratio(float64(tel.FenceWaitNs), busyNs),
		"stmalloc.frees_per_batch":    ratio(heapFrees, float64(after.heap.Batches-before.heap.Batches)),
		"stmalloc.mag_hit_rate":       tel.MagHitRate(),
		"stmalloc.splits_per_kop":     ratio(float64(after.heap.Splits-before.heap.Splits)*1000, n),
		"stmalloc.coalesces_per_kop":  ratio(float64(after.heap.Coalesces-before.heap.Coalesces)*1000, n),
		"stmalloc.pending_frees_end":  float64(after.heap.PendingFrees),
		"stmds.rehash_windows":        float64(tel.RehashWindows),
		"stmkv.privatizations_per_s":  ratio(float64(after.kv.Privatizations-before.kv.Privatizations), sliceS),
		"stmkv.grows":                 float64(after.kv.Grows), // since the build: growth is set-up's cost
		"stmkv.scan_windows_per_page": ratio(float64(tel.ScanWindows), float64(tel.Scans)),
		"process.allocs_per_op":       ratio(float64(after.mem.Mallocs-before.mem.Mallocs), n),
		"process.bytes_per_op":        ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), n),
		"process.gc_cycles":           float64(after.mem.NumGC - before.mem.NumGC),
		"process.gc_pause_share":      ratio(float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs), sliceS*1e9),
	}
}
