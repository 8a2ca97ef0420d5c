package mgc

import (
	"runtime"
	"strings"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/engine"
	"safepriv/internal/record"
)

// safeSinkSpecs returns every registered engine spec whose TM both
// supports a recording sink and has a correct fence — the
// configurations for which Theorem 5.3 promises that every recorded
// most-general-client history passes the strong-opacity pipeline.
// (wtstm has no sink; +nofence/+skipro are deliberately unsafe.)
func safeSinkSpecs(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, spec := range engine.Specs() {
		cfg, err := engine.Parse(spec)
		if err != nil {
			t.Fatalf("registered spec %q does not parse: %v", spec, err)
		}
		if cfg.Fence == "noop" || cfg.Fence == "skipro" {
			continue
		}
		if _, err := engine.NewSpec(spec, 1, 1, record.NewRecorder()); err != nil {
			continue // no sink support (wtstm)
		}
		out = append(out, spec)
	}
	if len(out) < 8 {
		t.Fatalf("only %d sink-capable safe specs: %v", len(out), out)
	}
	return out
}

// TestPropertyOpacityPerSpec is the registry-wide property test: for
// every sink-capable safe configuration, randomized most-general-client
// runs recorded on the live TM must pass the full strong-opacity
// pipeline (well-formedness, DRF, consistency, graph acyclicity,
// witness membership). Short mode bounds the seeds; the full run soaks.
// The registry once listed four heap-shape specs that built the same
// TMs as tl2 and norec; their rows pin that the harness now refuses
// them. It also listed norec+epochs and tl2+epochs, which spell out
// today's default grace period; their rows run that spelling.
func TestPropertyOpacityPerSpec(t *testing.T) {
	seeds := int64(6)
	shape := Config{Threads: 4, DataRegs: 4, TxnsPerThread: 20, OpsPerTxn: 3, Rounds: 4}
	if testing.Short() {
		seeds = 2
		shape = Config{Threads: 3, DataRegs: 3, TxnsPerThread: 8, OpsPerTxn: 2, Rounds: 2}
	}
	for _, spec := range []string{"norec+quiesce", "norec+quiesce+batch", "tl2+quiesce", "tl2+quiesce+batch"} {
		t.Run(spec, func(t *testing.T) {
			cfg := shape
			cfg.TM = spec
			if _, err := RunAndCheck(cfg); err == nil || !strings.Contains(err.Error(), "unknown modifier") {
				t.Fatalf("RunAndCheck on %q = %v, want an unknown-modifier error", spec, err)
			}
		})
	}
	for _, spec := range append(safeSinkSpecs(t), "norec+epochs", "tl2+epochs") {
		t.Run(spec, func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				cfg := shape
				cfg.Seed = seed * 997
				cfg.TM = spec
				res, err := RunAndCheck(cfg)
				if err != nil {
					t.Fatalf("seed %d: strong opacity violated: %v", seed, err)
				}
				if !res.Report.DRF {
					t.Fatalf("seed %d: protocol produced a racy history", seed)
				}
				if res.Txns == 0 || res.NonTxn == 0 {
					t.Fatalf("seed %d: degenerate run %+v", seed, res)
				}
			}
		})
	}
}

// yieldTM wraps a TM so every transactional and non-transactional
// operation yields the scheduler first: on single-CPU hosts the
// goroutines otherwise run to completion one at a time and the recorded
// histories are serial, hiding the races a missing fence admits (the
// same bias the tl2 fault-injection tests use).
type yieldTM struct{ core.TM }

func (y yieldTM) Begin(thread int) core.Txn { runtime.Gosched(); return yieldTxn{y.TM.Begin(thread)} }
func (y yieldTM) Load(thread, x int) int64  { runtime.Gosched(); return y.TM.Load(thread, x) }
func (y yieldTM) Store(thread, x int, v int64) {
	runtime.Gosched()
	y.TM.Store(thread, x, v)
}

type yieldTxn struct{ core.Txn }

func (t yieldTxn) Read(x int) (int64, error)  { runtime.Gosched(); return t.Txn.Read(x) }
func (t yieldTxn) Write(x int, v int64) error { runtime.Gosched(); return t.Txn.Write(x, v) }
func (t yieldTxn) Commit() error              { runtime.Gosched(); return t.Txn.Commit() }

// TestNoFenceRejectedByChecker is the negative control for the new
// quiescence plumbing: with the fence compiled out (tl2+nofence) the
// most-general-client protocol loses the happens-before edges its DRF
// discipline relies on, and the pipeline must reject at least one run —
// either as a racy history or as an outright opacity violation. If the
// unsafe spec sailed through every seed, the checker (or the recording
// of fences through rcu.Fence) would have gone blind.
func TestNoFenceRejectedByChecker(t *testing.T) {
	shape := Config{
		Threads: 4, DataRegs: 4, TxnsPerThread: 20, OpsPerTxn: 3, Rounds: 6,
		MakeTM: func(sink record.Sink, regs, threads int) core.TM {
			return yieldTM{engine.MustNewSpec("tl2+nofence", regs, threads, sink)}
		},
	}
	seeds := int64(40)
	if testing.Short() {
		seeds = 15
	}
	caught := 0
	for seed := int64(1); seed <= seeds; seed++ {
		cfg := shape
		cfg.Seed = seed * 131
		res, err := RunAndCheck(cfg)
		if err != nil || !res.Report.DRF {
			caught++
		}
	}
	if caught == 0 {
		t.Fatalf("tl2+nofence passed the full pipeline on all %d seeds", seeds)
	}
	t.Logf("tl2+nofence rejected on %d/%d seeds", caught, seeds)
}
