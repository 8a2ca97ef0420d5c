package txexec

import (
	"strings"
	"testing"

	"safepriv/internal/baseline"
	"safepriv/internal/engine"
	"safepriv/internal/model"
	"safepriv/internal/progen"
	"safepriv/internal/tl2"
)

// TestSerialSemantics pins the executor's semantics on a tiny
// handwritten program: sequential effects, committed locals, fences and
// non-transactional accesses.
func TestSerialSemantics(t *testing.T) {
	p := model.Program{
		Name: "tiny",
		Regs: 2,
		Threads: [][]model.Stmt{
			{
				model.Atomic{Lv: "l", Body: []model.Stmt{
					model.Write{X: 0, E: model.Const(7)},
					model.Read{Lv: "a", X: 0},
				}},
				model.FenceStmt{},
				model.Write{X: 1, E: model.Add{A: model.Var("a"), B: model.Const(1)}},
				model.Read{Lv: "b", X: 1},
			},
		},
	}
	f, err := Oracle(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Regs[0] != 7 || f.Regs[1] != 8 {
		t.Fatalf("regs = %v", f.Regs)
	}
	env := f.Locals[1]
	if env["l"] != model.ResCommitted || env["a"] != 7 || env["b"] != 8 {
		t.Fatalf("locals = %v", env)
	}
}

// TestAbortedAttemptLeavesNoLocals: locals merge only on commit, so a
// window that forces a retry must not leak the aborted attempt's reads.
func TestAbortedAttemptLeavesNoLocals(t *testing.T) {
	p := progenProgram(3)
	tm := engine.MustNewSpec("tl2", p.Regs, len(p.Threads), nil)
	f, err := Run(p, tm, Options{Seed: 5, Windows: true})
	if err != nil {
		t.Fatal(err)
	}
	o, err := Oracle(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(f, o) {
		t.Fatalf("tl2 diverged from oracle: %s", Diff(f, o))
	}
}

// progenProgram is the differential test's program shape: a privatizer
// plus three workers over a small data region.
func progenProgram(seed int64) model.Program {
	return progen.Generate(progen.Config{
		Threads:         4,
		DataRegs:        4,
		MaxOpsPerThread: 12,
		MaxOpsPerTxn:    4,
		DRF:             true,
		Privatize:       true,
	}, seed)
}

// schedSeeds is how many schedules each (program, TM) pair is tried
// under; correct TMs must match the oracle on every one.
const schedSeeds = 6

// diffAgainstOracle runs the differential loop for one spec: identical
// progen programs under identical schedule seeds must produce identical
// final registers and committed locals as the serial baseline oracle.
func diffAgainstOracle(t *testing.T, spec string, progSeeds int64) {
	t.Helper()
	windows := !strings.HasPrefix(spec, "baseline")
	for seed := int64(1); seed <= progSeeds; seed++ {
		p := progenProgram(seed)
		for ss := int64(0); ss < schedSeeds; ss++ {
			oracle, err := Oracle(p, ss)
			if err != nil {
				t.Fatalf("seed %d sched %d: oracle: %v", seed, ss, err)
			}
			tm, err := engine.NewSpec(spec, p.Regs, len(p.Threads), nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(p, tm, Options{Seed: ss, Windows: windows})
			if err != nil {
				t.Fatalf("seed %d sched %d: %s: %v", seed, ss, spec, err)
			}
			if !Equal(got, oracle) {
				t.Fatalf("seed %d sched %d: %s diverged from baseline: %s",
					seed, ss, spec, Diff(got, oracle))
			}
		}
	}
}

// TestDifferentialAllTMsMatchBaseline is the cross-TM differential
// test: all five registry TMs against the serial baseline oracle.
func TestDifferentialAllTMsMatchBaseline(t *testing.T) {
	progSeeds := int64(20)
	if testing.Short() {
		progSeeds = 8
	}
	for _, spec := range engine.TMs() {
		t.Run(spec, func(t *testing.T) { diffAgainstOracle(t, spec, progSeeds) })
	}
}

// TestDifferentialFlagsInjectedBugs is the negative test: the harness
// must reject the injected-bug TL2 variants on every program seed —
// each buggy variant diverges from the oracle on at least one of the
// tried schedules, 20/20.
func TestDifferentialFlagsInjectedBugs(t *testing.T) {
	bugs := map[string]tl2.Bug{
		"skip-commit-validation": tl2.BugSkipCommitValidation,
		"no-commit-locks":        tl2.BugNoCommitLocks,
	}
	progSeeds := int64(20)
	if testing.Short() {
		progSeeds = 8
	}
	// The bug only shows in schedules where a worker's guard read gets
	// windowed against a privatizer flag transaction; give the negative
	// test a bigger schedule budget than the equality test (runs are
	// sub-millisecond, and the loop exits at the first divergence).
	const bugSchedSeeds = 64
	for name, bug := range bugs {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= progSeeds; seed++ {
				p := progenProgram(seed)
				caught := false
				for ss := int64(0); ss < bugSchedSeeds && !caught; ss++ {
					oracle, err := Oracle(p, ss)
					if err != nil {
						t.Fatal(err)
					}
					tm := tl2.New(p.Regs, len(p.Threads), tl2.WithBug(bug))
					got, err := Run(p, tm, Options{Seed: ss, Windows: true})
					if err != nil {
						t.Fatal(err)
					}
					caught = !Equal(got, oracle)
				}
				if !caught {
					t.Errorf("program seed %d: %s variant matched the oracle on all %d schedules",
						seed, name, bugSchedSeeds)
				}
			}
		})
	}
}

// TestDeterministic: the executor is a function of (program, TM, seed).
func TestDeterministic(t *testing.T) {
	p := progenProgram(9)
	for _, windows := range []bool{false, true} {
		tm1 := engine.MustNewSpec("tl2", p.Regs, len(p.Threads), nil)
		tm2 := engine.MustNewSpec("tl2", p.Regs, len(p.Threads), nil)
		a, err := Run(p, tm1, Options{Seed: 3, Windows: windows})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(p, tm2, Options{Seed: 3, Windows: windows})
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(a, b) {
			t.Fatalf("windows=%v: nondeterministic: %s", windows, Diff(a, b))
		}
	}
}

// TestOracleIsBaselineRun: running the baseline through Run with
// Windows off is the oracle by definition.
func TestOracleIsBaselineRun(t *testing.T) {
	p := progenProgram(2)
	o, err := Oracle(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Run(p, baseline.New(p.Regs, len(p.Threads), nil), Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(o, g) {
		t.Fatal("oracle differs from a baseline run with the same seed")
	}
}
