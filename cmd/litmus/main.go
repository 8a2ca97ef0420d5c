// Command litmus model-checks one of the paper's litmus programs under
// a chosen TM model and fence policy and prints the distinct final
// outcomes. With -exec it instead runs the program (fig1a or
// read-privatize) concurrently on a *runtime* TM selected by engine
// specification, connecting the model-checked verdicts to observed
// behaviour of the real implementations.
//
// Usage:
//
//	litmus -prog fig1a -fence wait          # Figure 1(a) with fence
//	litmus -prog fig1a-nofence -model tl2   # exhibit delayed commit
//	litmus -prog fig1b -fence skipro        # the GCC fence bug
//	litmus -exec tl2+nofence -runs 5000     # delayed commit, live
//	litmus -exec norec -runs 5000           # fence-free safe on NOrec
//	litmus -prog read-privatize -exec tl2   # scan-window idiom, live
//	litmus -prog list                       # every program's name
//
// A live run that violates the postcondition on a spec whose fence is
// safe exits non-zero; on nofence/skipro violations are the point.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"safepriv/internal/core"
	"safepriv/internal/engine"
	"safepriv/internal/litmus"
	"safepriv/internal/model"
)

// liveRuns runs one of the live programs below `runs` times, each on a
// fresh 2-register TM built from spec, and prints how many runs
// violated the program's postcondition. Violations are the expected
// outcome on the unsafe fence specs (nofence, skipro) and an error on
// every other spec, so CI can run the safe ones as a check.
func liveRuns(name, spec string, runs int, violated func(tm core.TM) bool) error {
	cfg, err := engine.Parse(spec)
	if err != nil {
		return err
	}
	cfg.Regs, cfg.Threads = 2, 3
	violations := 0
	for i := 0; i < runs; i++ {
		tm, err := engine.New(cfg)
		if err != nil {
			return err
		}
		if violated(tm) {
			violations++
		}
	}
	fmt.Printf("%s on %s, %d runs: %d postcondition violations\n", name, spec, runs, violations)
	if violations > 0 && !cfg.UnsafeFence() {
		return fmt.Errorf("%s violated its postcondition on %s, whose fence is safe", name, spec)
	}
	return nil
}

// both runs the two threads of a live program to completion.
func both(th1, th2 func()) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); th1() }()
	go func() { defer wg.Done(); th2() }()
	wg.Wait()
}

// liveFig1a is one run of the Figure 1(a) privatization idiom (with the
// fence the spec's fence policy provides); the postcondition is
// l=committed ⇒ x=1.
func liveFig1a(tm core.TM) bool {
	const flagReg, x = litmus.RegFlag, litmus.RegX
	var committed atomic.Bool
	both(func() {
		if err := core.Atomically(tm, 1, func(tx core.Txn) error {
			return tx.Write(flagReg, 1)
		}); err == nil {
			committed.Store(true)
			tm.Fence(1) // a no-op under +nofence specs
			tm.Store(1, x, litmus.NuVal)
		}
	}, func() {
		core.Atomically(tm, 2, func(tx core.Txn) error {
			f, err := tx.Read(flagReg)
			if err != nil {
				return err
			}
			if f == 0 {
				return tx.Write(x, litmus.TxVal)
			}
			return nil
		})
	})
	return committed.Load() && tm.Load(1, x) != litmus.NuVal
}

// liveReadPrivatize is one run of the read-privatize program: thread 1
// read-privatizes x, fences, loads it uninstrumented and publishes;
// thread 2 writes x if it sees the flag clear, then reads x in a
// transaction that ignores the flag. The postcondition is
// l1=committed ∧ l3=committed ∧ f=0 ⇒ lx=42.
func liveReadPrivatize(tm core.TM) bool {
	const flagReg, x = litmus.RegFlag, litmus.RegX
	var privatized, wrote bool
	var lx int64
	both(func() {
		if err := core.Atomically(tm, 1, func(tx core.Txn) error {
			return tx.Write(flagReg, litmus.FlagReadPrivate)
		}); err != nil {
			return
		}
		privatized = true
		tm.Fence(1)
		lx = tm.Load(1, x)
		core.Atomically(tm, 1, func(tx core.Txn) error {
			return tx.Write(flagReg, litmus.FlagRepublished)
		})
	}, func() {
		err := core.Atomically(tm, 2, func(tx core.Txn) error {
			f, err := tx.Read(flagReg)
			if err != nil {
				return err
			}
			wrote = f == 0
			if wrote {
				return tx.Write(x, litmus.TxVal)
			}
			return nil
		})
		wrote = wrote && err == nil
		core.Atomically(tm, 2, func(tx core.Txn) error {
			_, err := tx.Read(x)
			return err
		})
	})
	return privatized && wrote && lx != litmus.TxVal
}

func main() {
	prog := flag.String("prog", "fig1a", "program name (fig1a, fig1a-nofence, fig1b, …), or 'list' to print them all")
	mk := flag.String("model", "tl2", "TM model: tl2 or atomic")
	fence := flag.String("fence", "wait", "fence policy (tl2 model): wait, skipro, noop")
	exec := flag.String("exec", "", "run -prog (fig1a or read-privatize) on a runtime TM by engine spec instead of model checking (or 'list')")
	runs := flag.Int("runs", 2000, "iterations for -exec")
	flag.Parse()

	progs := litmus.All()
	if *prog == "list" {
		for _, q := range progs {
			fmt.Println(q.Name)
		}
		return
	}
	if *exec != "" {
		if *exec == "list" {
			for _, s := range engine.Specs() {
				fmt.Println(s)
			}
			return
		}
		live, ok := map[string]func(core.TM) bool{
			"fig1a":          liveFig1a,
			"read-privatize": liveReadPrivatize,
		}[*prog]
		if !ok {
			fmt.Fprintf(os.Stderr, "program %q has no live runner\n", *prog)
			os.Exit(2)
		}
		if err := liveRuns(*prog, *exec, *runs, live); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(2)
		}
		return
	}

	var p model.Program
	for _, q := range progs {
		if q.Name == *prog {
			p = q
		}
	}
	if p.Name == "" {
		fmt.Fprintf(os.Stderr, "unknown program %q (-prog list prints them)\n", *prog)
		os.Exit(2)
	}
	cfg := model.Config{Prog: p}
	switch *mk {
	case "tl2":
		cfg.Model = model.TL2Kind
	case "atomic":
		cfg.Model = model.AtomicKind
	default:
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *mk)
		os.Exit(2)
	}
	switch *fence {
	case "wait":
		cfg.Fence = model.FenceWaitAll
	case "skipro":
		cfg.Fence = model.FenceSkipReadOnly
	case "noop":
		cfg.Fence = model.FenceNoOp
	default:
		fmt.Fprintf(os.Stderr, "unknown fence policy %q\n", *fence)
		os.Exit(2)
	}

	res, err := model.Explore(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Printf("%s under %s (fence=%s): %d states, %d distinct finals, %d deadlocks\n",
		p.Name, *mk, *fence, res.States, len(res.Finals), res.Deadlocks)
	for i, f := range res.Finals {
		fmt.Printf("final %d: regs=%v stuck=%v allDone=%v\n", i, f.Regs, f.Stuck[1:], f.AllDone)
		for t := 1; t < len(f.Locals); t++ {
			keys := make([]string, 0, len(f.Locals[t]))
			for k := range f.Locals[t] {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Printf("  thread %d:", t)
			for _, k := range keys {
				v := f.Locals[t][k]
				switch v {
				case model.ResCommitted:
					fmt.Printf(" %s=committed", k)
				case model.ResAborted:
					fmt.Printf(" %s=aborted", k)
				default:
					fmt.Printf(" %s=%d", k, v)
				}
			}
			fmt.Println()
		}
	}
}
