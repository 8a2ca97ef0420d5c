package engine

import (
	"fmt"

	"safepriv/internal/workload"
)

// RunWorkload constructs the TM named by the engine specification and
// runs the named workload (package workload's registry) on it: the
// one-call form for callers that need no handle on the TM (smoke
// tests, cmd/stress). Benchmarks that build the TM inside their timed
// loop (bench_test.go) construct via NewSpec and call workload.ByName
// directly.
//
// The specification's allocator axis (bump/quiesce), reclaim
// granularity (free/batch) and fence safety flow into the workload
// parameters: a churn workload on a "tl2+quiesce" spec builds its data
// structures over the stmalloc reclaiming heap (with the per-thread
// magazine layer on a batch spec), and on an unsafe-fence spec
// (nofence/skipro) the heap falls back to fully transactional
// reclamation.
func RunWorkload(tmSpec, name string, p workload.Params) (workload.Stats, error) {
	run, ok := workload.ByName(name)
	if !ok {
		return workload.Stats{}, fmt.Errorf("engine: unknown workload %q (have %v)", name, workload.Names())
	}
	cfg, err := Parse(tmSpec)
	if err != nil {
		return workload.Stats{}, err
	}
	// +2: thread 1 is the maintenance/privatizer slot in pipeline, and
	// every workload numbers workers from low ids; a spare id keeps the
	// harnesses' historical sizing.
	cfg.Regs, cfg.Threads = workload.RegsFor(name, p.Threads), p.Threads+2
	// Normalize before reading the data-structure axes, so axis
	// implications (batch ⇒ quiesce) flow into the workload parameters
	// by the same rule New applies — not a hand-kept copy of it.
	if err := cfg.normalize(); err != nil {
		return workload.Stats{}, err
	}
	p.Alloc = cfg.Alloc
	p.Reclaim = cfg.Reclaim
	p.UnsafeFence = cfg.UnsafeFence()
	tm, err := New(cfg)
	if err != nil {
		return workload.Stats{}, err
	}
	return run(tm, p)
}
