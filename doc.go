// Package safepriv is a reproduction of "Safe Privatization in
// Transactional Memory" (Khyzha, Attiya, Gotsman, Rinetzky; PPoPP
// 2018), grown into a layered STM system:
//
//   - Model layer: the paper's trace/history model (internal/spec),
//     happens-before/DRF machinery (internal/hb), the strong-opacity
//     checker with its graph characterization and witness construction
//     (internal/opacity), and an exhaustive interleaving model checker
//     (internal/model) for the litmus programs (internal/litmus).
//   - Runtime layer: five executable TMs (tl2, norec, wtstm, baseline,
//     atomictm) over shared primitives (stripe, vlock, vclock, oaset),
//     all constructed through the internal/engine registry's
//     specification strings (TM × clock × fence × quiescer; a spec
//     names a TM, and heaps are shaped by their own options).
//   - Quiescence layer: internal/rcu, one grace-period type every TM
//     fences through. It runs the paper's one fence — block until every
//     transaction active at the call has finished — with
//     scheduler-aware parked waits over pooled snapshot buffers, plus
//     the filtered fence that reproduces the GCC libitm bug.
//   - Telemetry layer: internal/telemetry cache-line-padded per-thread
//     counter boards on every TM (commits, aborts, fences,
//     privatizations, magazine traffic), read by kvserve's /stats and
//     bench/.
//   - Heap layer: internal/stmalloc, the quiescence-based safe memory
//     reclamation allocator (unlink transactionally, fence, reuse), with the typed ErrOutOfSpace exhaustion contract, a
//     per-thread magazine layer (stmalloc.WithMagazines) that
//     amortizes one grace period over a whole magazine of frees,
//     buddy-style splitting and coalescing across the power-of-two
//     size-class ladder (a freed large block splits into the small
//     blocks the next churn phase demands; freed buddies merge back
//     for the next large request), and RegsForDemand, which sizes
//     arenas from multi-size-class ClassDemand profiles.
//   - Application layer: internal/stmds dynamic structures (sorted set,
//     sorted map, FIFO queue, and the O(log n) SkipMap whose
//     variable-height towers span four heap size classes, whose
//     Delete retires a whole tower under one grace period, and whose
//     Range/RangeWindows stream bounded key windows through the
//     Figure 7 cycle — privatize a window, one fence, walk level 0
//     uninstrumented, publish — instead of one long read-only
//     snapshot transaction, and the O(1) HashMap/HashSet, chained
//     buckets whose bucket arrays are single large heap blocks and
//     whose every doubling is one Figure 7 cycle over the whole
//     table: a grow bit in the head word privatizes it, one fence,
//     every chain is unzipped uninstrumented into the doubled array,
//     and the new array's word publishes it) that free removed nodes
//     through the
//     allocator; internal/stmkv, the sharded privatization-safe KV
//     store whose shard tables are heap blocks and whose ScanPage
//     paginates privatized scans behind an opaque resumable cursor
//     with O(limit) buffering; the paper's timing workloads in
//     internal/workload (bank, counter, read-mostly, pipeline and
//     per-thread, driven by the E9 and E13 benchmarks); and the
//     cross-TM differential executor internal/txexec, whose windowed
//     data-structure mode interleaves scripted map operations
//     mid-transaction and replays the recorded order against plain Go
//     maps as the oracle.
//   - Serving layer: internal/kvserve, the HTTP front-end over the KV
//     store — a thread-id pool maps goroutine-per-connection serving
//     onto the TM's fixed thread contract, each request runs one store
//     operation, GET /scan streams ScanPage's paginated privatized
//     windows as chunked JSON with a resumable cursor, and Drain
//     settles the heap on shutdown. cmd/kvserver wraps it as an env-configured process
//     (Dockerfile included); cmd/kvload is the closed/open-loop load
//     driver reporting p50/p99/p999, with -scan mixing paginated
//     scans into the load under their own latency quantiles.
//
// See README.md for the package layout, the engine registry's
// configuration names, and how to run the examples, litmus tests, and
// benchmarks. The micro-benchmarks in bench_test.go time the
// quantitative experiments (E9, E13, E14 and the checker/model costs);
// `go run ./bench` is the repository's one end-to-end benchmark
// (BENCHMARK.json names its workloads and metrics).
package safepriv
