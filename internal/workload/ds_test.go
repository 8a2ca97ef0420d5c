package workload_test

import (
	"errors"
	"testing"

	"safepriv/internal/engine"
	"safepriv/internal/stmds"
	"safepriv/internal/workload"
)

// TestSetChurnAllTMs smokes the set-churn workload through the
// registry on both allocator axes, and on tl2 across the fence modes:
// every spec must complete the run, and on quiesce the allocator
// counters must balance against the residual live set in a footprint
// that does not grow with the op count.
func TestSetChurnAllTMs(t *testing.T) {
	ops := 400
	if testing.Short() {
		ops = 150
	}
	type row struct {
		spec            string
		reclaims, batch bool
	}
	var rows []row
	for _, tmName := range engine.TMs() {
		rows = append(rows,
			row{tmName + "+bump", false, false},
			row{tmName + "+quiesce", true, false},
			row{tmName + "+quiesce+batch", true, true})
	}
	rows = append(rows,
		row{"tl2+combine+quiesce", true, false},
		row{"tl2+defer+quiesce", true, false},
		row{"tl2+defer+quiesce+batch", true, true})
	for _, r := range rows {
		t.Run(r.spec, func(t *testing.T) {
			st, err := engine.RunWorkload(r.spec, "set-churn",
				workload.Params{Threads: 4, Ops: ops, Seed: 3, LiveSet: 64})
			if err != nil {
				t.Fatal(err)
			}
			if st.Commits != int64(4*ops) {
				t.Fatalf("commits %d, want %d", st.Commits, 4*ops)
			}
			if st.HeapRegs <= 0 {
				t.Fatalf("no footprint reported: %+v", st)
			}
			if r.reclaims {
				if st.Frees == 0 {
					t.Fatalf("quiesce run reclaimed nothing: %+v", st)
				}
				// The bump footprint of this traffic is ~2 regs per
				// insert; a reclaiming run stays under one per op.
				if st.HeapRegs > int64(4*ops) {
					t.Fatalf("quiesce footprint %d regs not bounded (%d ops)", st.HeapRegs, 4*ops)
				}
				// Per-free latency is sampled, so the histogram holds a
				// subset of the frees — but never more, and not zero on
				// a churn-scale run.
				if st.ReclaimLatency == nil || st.ReclaimLatency.Count() == 0 ||
					st.ReclaimLatency.Count() > st.Frees {
					t.Fatalf("reclaim latency samples %v, frees %d",
						st.ReclaimLatency.Count(), st.Frees)
				}
			}
			if r.batch {
				if st.ReclaimBatches == 0 || st.ReclaimBatches >= st.Frees {
					t.Fatalf("batch run shows no amortization: %d batches for %d frees",
						st.ReclaimBatches, st.Frees)
				}
			}
		})
	}
}

// TestMapChurnAllTMs smokes the map-churn workload through the
// registry on both ordered-map implementations (the sorted-list Map
// and the skiplist SkipMap) over the reclaiming allocator: every TM ×
// ds × reclaim axis (plus batched magazines over the deferred
// reclaimer on tl2) must complete with full commit counts and real
// reclamation — for the skiplist that means whole towers
// (multi-size-class blocks) cycling through the heap, for the hash map
// growth from its 16 initial buckets through rehash windows.
func TestMapChurnAllTMs(t *testing.T) {
	// Enough ops that the 20% delete share still fills at least one
	// thread's parked-free list on the batch axis.
	ops := 400
	if testing.Short() {
		ops = 200
	}
	for _, tmName := range append(engine.TMs(), "tl2+defer") {
		for _, alloc := range []string{"quiesce", "quiesce+batch"} {
			for _, ds := range []string{"map", "skip", "hash"} {
				spec := tmName + "+" + alloc
				t.Run(spec+"/ds="+ds, func(t *testing.T) {
					st, err := engine.RunWorkload(spec, "map-churn",
						workload.Params{Threads: 4, Ops: ops, Seed: 7, LiveSet: 64, DS: ds})
					if err != nil {
						t.Fatal(err)
					}
					if st.Commits != int64(4*ops) {
						t.Fatalf("commits %d, want %d", st.Commits, 4*ops)
					}
					if st.Frees == 0 {
						t.Fatalf("quiesce run reclaimed nothing: %+v", st)
					}
					if ds == "hash" && st.Telemetry.RehashWindows == 0 {
						t.Fatalf("hash churn from 16 buckets recorded no rehash windows: %+v", st.Telemetry)
					}
					if st.Allocs <= st.Frees-1 {
						t.Fatalf("counters inverted: allocs %d, frees %d", st.Allocs, st.Frees)
					}
					if alloc == "quiesce+batch" && st.ReclaimBatches == 0 {
						t.Fatalf("batch run retired no magazines: %+v", st)
					}
				})
			}
		}
	}
	// The bump contrast completes at this size (and leaks by design).
	st, err := engine.RunWorkload("tl2+bump", "map-churn",
		workload.Params{Threads: 2, Ops: 100, Seed: 7, LiveSet: 64, DS: "skip"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Frees != 0 || st.HeapRegs == 0 {
		t.Fatalf("bump run should leak into a growing footprint: %+v", st)
	}
}

// TestAxisVocabularyErrors pins the up-front Params.DS / Params.Scan
// validation: every workload that reads the axes rejects unknown
// strings before building anything, with the package's NAMED errors —
// so callers (cmd/stress) can errors.Is rather than match message text,
// and no unknown value can fall through to a silent default
// implementation.
func TestAxisVocabularyErrors(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		p        workload.Params
		want     error
	}{
		{"map-churn unknown ds", "map-churn", workload.Params{Threads: 1, Ops: 1, DS: "btree"}, workload.ErrUnknownDS},
		{"map-churn typo of hash", "map-churn", workload.Params{Threads: 1, Ops: 1, DS: "hashmap"}, workload.ErrUnknownDS},
		{"hash-churn wrong ds", "hash-churn", workload.Params{Threads: 1, Ops: 1, DS: "skip"}, workload.ErrUnknownDS},
		{"rehash-storm wrong ds", "rehash-storm", workload.Params{Threads: 1, Ops: 1, DS: "map"}, workload.ErrUnknownDS},
		{"scan-churn unknown ds", "scan-churn", workload.Params{Threads: 2, Ops: 1, DS: "hash"}, workload.ErrUnknownDS},
		{"scan-churn unknown scan", "scan-churn", workload.Params{Threads: 2, Ops: 1, Scan: "chunked"}, workload.ErrUnknownScan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := engine.RunWorkload("tl2+quiesce", tc.workload, tc.p)
			if err == nil {
				t.Fatalf("%s accepted %+v, want %v", tc.workload, tc.p, tc.want)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s rejected %+v with %v, not the named %v", tc.workload, tc.p, err, tc.want)
			}
		})
	}
	// The accepted vocabularies stay accepted (tiny runs).
	for _, ok := range []struct {
		workload string
		p        workload.Params
	}{
		{"map-churn", workload.Params{Threads: 1, Ops: 5, LiveSet: 8, DS: "hash"}},
		{"hash-churn", workload.Params{Threads: 1, Ops: 5, LiveSet: 8, DS: "hash"}},
		{"rehash-storm", workload.Params{Threads: 1, Ops: 5}},
	} {
		if _, err := engine.RunWorkload("tl2+quiesce", ok.workload, ok.p); err != nil {
			t.Fatalf("%s rejected valid params %+v: %v", ok.workload, ok.p, err)
		}
	}
}

// TestRehashStorm smokes the table-growth stress on the quiesce axes:
// the storm must actually rehash (telemetry windows recorded) and
// settle to exact accounting — every inserted pair live, plus one
// bucket array, with all the intermediate array generations freed.
func TestRehashStorm(t *testing.T) {
	ops := 500
	if testing.Short() {
		ops = 150
	}
	const threads = 4
	for _, spec := range []string{"tl2+quiesce", "norec+quiesce", "tl2+defer+quiesce+batch"} {
		t.Run(spec, func(t *testing.T) {
			st, err := engine.RunWorkload(spec, "rehash-storm",
				workload.Params{Threads: threads, Ops: ops, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if st.Commits != int64(threads*ops) {
				t.Fatalf("commits %d, want %d", st.Commits, threads*ops)
			}
			if st.Telemetry.RehashWindows == 0 {
				t.Fatalf("%d inserts from 16 buckets recorded no rehash windows: %+v", threads*ops, st.Telemetry)
			}
			if st.Frees == 0 {
				t.Fatalf("no freed array generations: %+v", st)
			}
			// Exact: live blocks = the inserted pairs + ONE bucket array.
			if live := st.Allocs - st.Frees; live != int64(threads*ops)+1 {
				t.Fatalf("allocs-frees = %d, want %d pairs + 1 array", live, threads*ops)
			}
		})
	}
}

// TestQueuePipeAllTMs smokes queue-pipe: all values stream through,
// and on quiesce the drained queue holds no live blocks.
func TestQueuePipeAllTMs(t *testing.T) {
	ops := 300
	if testing.Short() {
		ops = 100
	}
	for _, tmName := range engine.TMs() {
		t.Run(tmName+"+quiesce", func(t *testing.T) {
			st, err := engine.RunWorkload(tmName+"+quiesce", "queue-pipe",
				workload.Params{Threads: 4, Ops: ops, Seed: 5, LiveSet: 32})
			if err != nil {
				t.Fatal(err)
			}
			// 2 producers × ops enqueues + as many dequeues.
			if want := int64(2 * 2 * ops); st.Commits != want {
				t.Fatalf("commits %d, want %d", st.Commits, want)
			}
			if st.Allocs != st.Frees {
				t.Fatalf("drained pipe leaks: allocs %d, frees %d", st.Allocs, st.Frees)
			}
		})
	}
}

// TestChurnBoundedSpace is the PR's headline contrast, end to end: on
// the same small TM, the same churn traffic exhausts the bump
// allocator with the typed ErrOutOfSpace, while the quiesce allocator
// completes it in a bounded register footprint — the paper's
// privatization idiom is what makes long-running dynamic workloads
// possible at all.
func TestChurnBoundedSpace(t *testing.T) {
	const regs = 2048
	const threads, ops = 4, 2000 // ~4k inserts × 2 regs ≫ 2048 registers
	run := func(alloc string) (workload.Stats, error) {
		tm := engine.MustNewSpec("tl2", regs, threads+2, nil)
		return workload.SetChurn(tm,
			workload.Params{Threads: threads, Ops: ops, Seed: 9, Alloc: alloc, LiveSet: 64})
	}
	if _, err := run("bump"); !errors.Is(err, stmds.ErrOutOfSpace) {
		t.Fatalf("bump churn past the arena returned %v, want ErrOutOfSpace", err)
	}
	st, err := run("quiesce")
	if err != nil {
		t.Fatalf("quiesce churn failed where it must reclaim: %v", err)
	}
	if st.HeapRegs >= regs/2 {
		t.Fatalf("quiesce footprint %d regs is not bounded well below the %d-reg arena", st.HeapRegs, regs)
	}
	if st.Frees == 0 {
		t.Fatal("quiesce churn reclaimed nothing")
	}
	t.Logf("bump: ErrOutOfSpace; quiesce: %d ops in %d regs (allocs %d, frees %d)",
		threads*ops, st.HeapRegs, st.Allocs, st.Frees)
}

// TestSetChurnUnsafeFenceFallback: the nofence spec routes the quiesce
// allocator through its fully transactional fallback (no grace period
// to ride); the run must still complete with balanced accounting.
func TestSetChurnUnsafeFenceFallback(t *testing.T) {
	st, err := engine.RunWorkload("tl2+nofence+quiesce", "set-churn",
		workload.Params{Threads: 4, Ops: 200, Seed: 1, LiveSet: 32})
	if err != nil {
		t.Fatal(err)
	}
	if st.Frees == 0 {
		t.Fatalf("transactional-fallback run reclaimed nothing: %+v", st)
	}
}

// TestScanChurn smokes the range-scan-under-churn workload across
// structures and scan strategies: every run must complete at least one
// full scan, window runs must report a window fan-out, and the churners
// must commit their full op budget.
func TestScanChurn(t *testing.T) {
	ops := 200
	if testing.Short() {
		ops = 80
	}
	cases := []struct{ ds, scan string }{
		{"skip", "snapshot"},
		{"skip", "window"},
		{"map", "snapshot"},
		{"kv", "snapshot"},
		{"kv", "window"},
	}
	for _, tc := range cases {
		for _, spec := range []string{"tl2+quiesce", "norec+quiesce", "wtstm+quiesce", "tl2+combine+quiesce", "tl2+defer+quiesce", "tl2+quiesce+batch"} {
			t.Run(spec+"/"+tc.ds+"/"+tc.scan, func(t *testing.T) {
				st, err := engine.RunWorkload(spec, "scan-churn",
					workload.Params{Threads: 4, Ops: ops, Seed: 7, LiveSet: 64, DS: tc.ds, Scan: tc.scan})
				if err != nil {
					t.Fatal(err)
				}
				if st.Commits != int64(3*ops) { // 3 churners: thread 1 is the scanner
					t.Fatalf("churner commits %d, want %d", st.Commits, 3*ops)
				}
				if st.ScanOps == 0 || st.ScanPairs == 0 {
					t.Fatalf("no scans ran: %+v", st)
				}
				if tc.scan == "window" && st.ScanWindows < st.ScanOps {
					t.Fatalf("window run reports %d windows over %d scans", st.ScanWindows, st.ScanOps)
				}
				if st.WriterAbortRate < 0 || st.WriterAbortRate >= 1 {
					t.Fatalf("implausible writer abort rate %v", st.WriterAbortRate)
				}
			})
		}
	}
}

// TestScanChurnRejectsBadAxes pins the vocabulary errors: unknown scan
// mode, unknown structure, and windowed scans on the sorted list.
func TestScanChurnRejectsBadAxes(t *testing.T) {
	for _, p := range []workload.Params{
		{Threads: 2, Ops: 1, Scan: "chunked"},
		{Threads: 2, Ops: 1, DS: "btree"},
		{Threads: 2, Ops: 1, DS: "map", Scan: "window"},
		{Threads: 1, Ops: 1},
	} {
		if _, err := engine.RunWorkload("tl2+quiesce", "scan-churn", p); err == nil {
			t.Fatalf("params %+v accepted, want error", p)
		}
	}
}
