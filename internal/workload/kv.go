package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"safepriv/internal/core"
	"safepriv/internal/stmkv"
)

// Defaults for the named KV workloads. The TM sized by RegsFor hosts
// this geometry; KVStore derives the per-shard slot count from the TM's
// actual register count, so shard-count sweeps reuse one sizing.
const (
	// KVDefaultShards is the shard count the named workloads use.
	KVDefaultShards = 8
	// KVDefaultSlots is the per-shard slot arena backing RegsFor.
	KVDefaultSlots = 128
	// kvDefaultScanEvery is kv-scan's default privatization cadence
	// (one Scan per worker per this many operations).
	kvDefaultScanEvery = 200
)

// KVConfig tunes the KV workload beyond Params.
type KVConfig struct {
	// Shards is the store's shard count (must leave ≥1 slot per shard
	// within the TM's registers).
	Shards int
	// ReadPct is the percentage of operations that are Gets.
	ReadPct int
	// DeletePct is the percentage that are Deletes (the rest of the
	// non-read share are Puts).
	DeletePct int
	// ScanEvery makes each worker Scan the store every ScanEvery
	// operations (0 = never): the privatization-frequency knob. Auto
	// growth privatizes regardless, as the table fills.
	ScanEvery int
	// Zipfian draws keys from a Zipf distribution instead of uniform.
	Zipfian bool
	// Keyspace is the key range (1..Keyspace); 0 sizes it to half the
	// store's total slot capacity.
	Keyspace int64
	// BatchThreads builds the store's table heap with the stmalloc
	// magazine layer for thread ids 1..BatchThreads (the spec's batch
	// reclaim axis).
	BatchThreads int
}

// KVStore runs a concurrent key-value workload against a fresh
// stmkv.Store built over tm: `threads` workers (thread ids 1..threads)
// each perform `ops` operations per the mix in cfg. The returned Stats
// counts completed operations as commits (each is at least one
// committed transaction) and the store's privatize cycles as fences
// (each cycle issues exactly one transactional fence).
func KVStore(tm core.TM, threads, ops int, cfg KVConfig, seed int64) (Stats, error) {
	if cfg.Shards == 0 {
		cfg.Shards = KVDefaultShards
	}
	if cfg.ReadPct == 0 {
		cfg.ReadPct = 70
	}
	if cfg.DeletePct == 0 {
		cfg.DeletePct = 10
	}
	var kvOpts []stmkv.Option
	if cfg.BatchThreads > 0 {
		kvOpts = append(kvOpts, stmkv.WithBatchReclaim(cfg.BatchThreads))
	}
	store, err := stmkv.NewForTM(tm, cfg.Shards, kvOpts...)
	if err != nil {
		return Stats{}, err
	}
	if cfg.Keyspace == 0 {
		cfg.Keyspace = int64(cfg.Shards*store.SlotsPerShard()) / 2
		if cfg.Keyspace < 8 {
			cfg.Keyspace = 8
		}
	}
	c := newCounter(threads)
	lat := new(Hist) // privatization (scan) latency across all workers
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for th := 1; th <= threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(th)*131))
			var zipf *rand.Zipf
			if cfg.Zipfian {
				zipf = rand.NewZipf(r, 1.2, 1, uint64(cfg.Keyspace-1))
			}
			for i := 0; i < ops; i++ {
				var key int64
				if zipf != nil {
					key = 1 + int64(zipf.Uint64())
				} else {
					key = 1 + r.Int63n(cfg.Keyspace)
				}
				var err error
				p := r.Intn(100)
				switch {
				case p < cfg.ReadPct:
					_, _, err = store.Get(th, key)
				case p < cfg.ReadPct+cfg.DeletePct:
					_, err = store.Delete(th, key)
				default:
					err = store.Put(th, key, int64(i+1))
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d op %d: %w", th, i, err)
					return
				}
				c.slots[th].commits++
				if cfg.ScanEvery > 0 && (i+1)%cfg.ScanEvery == 0 {
					start := time.Now()
					if _, err := store.Scan(th); err != nil {
						errs <- err
						return
					}
					lat.Add(time.Since(start))
				}
			}
		}(th)
	}
	wg.Wait()
	close(errs)
	st := c.runStats(tm)
	st.PrivLatency = lat
	// Settle any deferred maintenance before reading the privatization
	// counters (and surface its errors like any worker error).
	if err := store.Drain(1); err != nil {
		return st, err
	}
	st.Fences += store.Stats().Privatizations
	for err := range errs {
		return st, err
	}
	return st, nil
}
