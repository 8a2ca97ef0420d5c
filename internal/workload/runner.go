package workload

import (
	"fmt"
	"sort"

	"safepriv/internal/core"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
	"safepriv/internal/stmkv"
)

// mapChurnMaxLive is the largest map-churn live-set size RegsFor sizes
// the heap for (cmd/stress -liveset up to this fits any map
// implementation).
const mapChurnMaxLive = 4096

// hashStormMaxKeys is the largest rehash-storm key total (threads×ops)
// RegsFor sizes the heap for.
const hashStormMaxKeys = 1 << 13

// Params sizes a named workload run. Workload-specific knobs (scan
// width, read percentage, pipeline rounds) take the defaults the
// experiment harnesses use; workloads that need others call the typed
// functions directly.
type Params struct {
	// Threads is the number of worker threads.
	Threads int
	// Ops is the operation count per worker.
	Ops int
	// Mode selects fence placement.
	Mode FenceMode
	// Seed makes randomized workloads reproducible.
	Seed int64
	// Rounds is the privatize/publish cycle count for pipeline
	// (0 = the default 20).
	Rounds int
	// Shards is the shard count for the KV workloads
	// (0 = KVDefaultShards).
	Shards int
	// PrivatizeEvery is the KV workloads' privatization cadence: each
	// worker scans (privatizing every shard) once per this many
	// operations. 0 selects the workload default: never for kvstore and
	// kv-zipfian, every 200 ops for kv-scan. Negative disables scans
	// even for kv-scan.
	PrivatizeEvery int
	// Alloc selects the allocator for the data-structure workloads
	// (set-churn, queue-pipe): "" or "bump" (append-only, leaks on
	// remove), or "quiesce" (the stmalloc reclaiming heap).
	// engine.RunWorkload fills it from the spec's allocator axis.
	Alloc string
	// Reclaim selects the quiesce allocator's reclamation granularity:
	// "" or "free" (one grace-period registration per Free), or
	// "batch" (the stmalloc magazine layer: per-thread caches, one
	// shared grace period per full magazine). engine.RunWorkload fills
	// it from the spec's reclaim axis; ignored on a bump allocator.
	Reclaim string
	// UnsafeFence tells a quiesce allocator that the TM's fence gives
	// no grace-period guarantee (nofence/skipro specs): reclamation
	// falls back to the fully transactional path.
	UnsafeFence bool
	// LiveSet is the data-structure workloads' live-set-size knob: the
	// target resident key count for set-churn and map-churn, the
	// queue-depth bound for queue-pipe (0 = workload default).
	LiveSet int
	// DS selects the ordered-map implementation for map-churn: "" or
	// "skip" (the O(log n) stmds.SkipMap), or "map" (the O(n)
	// sorted-list stmds.Map — the contrast configuration). cmd/stress
	// fills it from the -ds flag. scan-churn accepts "kv" too
	// (stmkv.Store behind the scanner).
	DS string
	// Scan selects the scan-churn scanner's strategy: "" or "window"
	// (privatized windows: SkipMap.RangeWindows / stmkv ScanPage), or
	// "snapshot" (one read-only transaction per structure or shard —
	// the contrast configuration).
	Scan string
}

// Runner executes a named workload against a TM.
type Runner func(tm core.TM, p Params) (Stats, error)

// runners is the workload registry. Keep RegsFor in sync.
// engine.RunWorkload is the one-call form that also constructs the TM
// from a specification string (it lives in engine to keep this package
// free of TM constructors).
var runners = map[string]Runner{
	"counter": func(tm core.TM, p Params) (Stats, error) {
		return Counter(tm, p.Threads, p.Ops, p.Mode)
	},
	"shorttxn": func(tm core.TM, p Params) (Stats, error) {
		return PerThread(tm, p.Threads, p.Ops, p.Mode)
	},
	"bank": func(tm core.TM, p Params) (Stats, error) {
		return Bank(tm, p.Threads, p.Ops, p.Mode, p.Seed)
	},
	"readmostly": func(tm core.TM, p Params) (Stats, error) {
		return ReadMostly(tm, p.Threads, p.Ops, 4, 90, p.Mode, p.Seed)
	},
	"pipeline": func(tm core.TM, p Params) (Stats, error) {
		rounds := p.Rounds
		if rounds == 0 {
			rounds = 20
		}
		return Pipeline(tm, p.Threads-1, p.Ops, rounds, p.Mode, p.Seed)
	},
	"kvstore": func(tm core.TM, p Params) (Stats, error) {
		return KVStore(tm, p.Threads, p.Ops, kvBase(p, KVConfig{Shards: p.Shards, ScanEvery: kvScanEvery(p, 0)}), p.Seed)
	},
	"kv-scan": func(tm core.TM, p Params) (Stats, error) {
		return KVStore(tm, p.Threads, p.Ops, kvBase(p, KVConfig{Shards: p.Shards, ScanEvery: kvScanEvery(p, kvDefaultScanEvery)}), p.Seed)
	},
	"kv-zipfian": func(tm core.TM, p Params) (Stats, error) {
		return KVStore(tm, p.Threads, p.Ops, kvBase(p, KVConfig{Shards: p.Shards, ReadPct: 90, DeletePct: 5, Zipfian: true, ScanEvery: kvScanEvery(p, 0)}), p.Seed)
	},
	"set-churn":  SetChurn,
	"queue-pipe": QueuePipe,
	"map-churn":  MapChurn,
	"scan-churn": ScanChurn,
	// hash-churn is map-churn pinned to the hash map: the same traffic
	// and prefill as the skip/map runs.
	"hash-churn": func(tm core.TM, p Params) (Stats, error) {
		if p.DS != "" && p.DS != "hash" {
			return Stats{}, fmt.Errorf("%w: hash-churn %q (hash-churn IS map-churn on the hash map)", ErrUnknownDS, p.DS)
		}
		p.DS = "hash"
		return MapChurn(tm, p)
	},
	"rehash-storm": RehashStorm,
}

// kvBase folds the spec-derived Params axes into a KVConfig: a batch
// reclaim spec gives the store's table heap per-thread magazines for
// the worker ids (unless the fence is unsafe — no grace period to
// amortize).
func kvBase(p Params, cfg KVConfig) KVConfig {
	if p.Reclaim == "batch" && !p.UnsafeFence {
		cfg.BatchThreads = p.Threads
	}
	return cfg
}

// kvScanEvery resolves Params.PrivatizeEvery against a workload
// default: 0 = the default, negative = no scans.
func kvScanEvery(p Params, dflt int) int {
	switch {
	case p.PrivatizeEvery > 0:
		return p.PrivatizeEvery
	case p.PrivatizeEvery < 0:
		return 0
	default:
		return dflt
	}
}

// RegsFor is the register count each named workload wants per worker
// count (the shapes the experiment harnesses always used).
func RegsFor(name string, threads int) int {
	switch name {
	case "counter":
		return 1
	case "readmostly":
		return 256
	case "pipeline":
		return 65
	case "kvstore", "kv-scan", "kv-zipfian":
		return stmkv.RegsNeeded(KVDefaultShards, KVDefaultSlots)
	case "set-churn", "queue-pipe":
		// Generous arena: the bump-allocator contrast keeps every node
		// ever allocated, so the default op counts must fit; the
		// reclaiming allocator uses a small bounded prefix of it.
		return 1 << 16
	case "map-churn", "hash-churn":
		// Demand-sized from the multi-size-class geometry at the largest
		// live set the harnesses sweep (4096 pairs, any implementation —
		// hash demand adds the bucket-array generations up to the final
		// doubling), with a floor wide enough for the bump-allocator
		// contrast, whose prefill+churn never reclaims.
		demand := append(stmds.MapDemand(mapChurnMaxLive), stmds.SkipMapDemand(mapChurnMaxLive)...)
		demand = append(demand, stmds.HashMapDemand(mapChurnMaxLive)...)
		regs := dsMapArena + stmalloc.RegsForDemand(8, threads, 0, demand)
		if regs < 1<<17 {
			regs = 1 << 17
		}
		return regs
	case "rehash-storm":
		// The storm inserts threads×ops distinct keys from an empty
		// 16-bucket table; size for hashStormMaxKeys resident pairs plus
		// every array generation on the way up.
		regs := dsMapArena + stmalloc.RegsForDemand(8, threads, 0, stmds.HashMapDemand(hashStormMaxKeys))
		if regs < 1<<17 {
			regs = 1 << 17
		}
		return regs
	case "scan-churn":
		// Covers every Params.DS the workload accepts: the ordered-map
		// geometry of map-churn, or the fixed kv-store geometry.
		regs := RegsFor("map-churn", threads)
		if kv := stmkv.RegsNeededBatch(scanChurnKVShards, scanChurnKVSlots, threads); kv > regs {
			regs = kv
		}
		return regs
	default: // shorttxn, bank: one cache line of registers per thread
		if threads < 8 {
			return 64
		}
		return threads * 8
	}
}

// Names lists the registered workloads, sorted.
func Names() []string {
	out := make([]string, 0, len(runners))
	for name := range runners {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ByName returns the named workload runner.
func ByName(name string) (Runner, bool) {
	r, ok := runners[name]
	return r, ok
}
