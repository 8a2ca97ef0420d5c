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
// Usage:
//
//	stress -iters 20 -threads 4 -regs 4 -txns 50 -tm tl2+gv4
//	stress -tm list          # print the registered configurations
package main

import (
	"flag"
	"fmt"
	"os"

	"safepriv/internal/engine"
	"safepriv/internal/mgc"
	"safepriv/internal/record"
)

func main() {
	iters := flag.Int("iters", 10, "number of independent runs")
	threads := flag.Int("threads", 4, "worker threads")
	regs := flag.Int("regs", 4, "data registers")
	txns := flag.Int("txns", 40, "transactions per worker")
	ops := flag.Int("ops", 3, "max operations per transaction")
	rounds := flag.Int("rounds", 6, "privatize/publish rounds")
	seed := flag.Int64("seed", 1, "base seed")
	tmSpec := flag.String("tm", "tl2", "TM under test: an engine spec (or 'list' to print them)")
	flag.Parse()

	if *tmSpec == "list" {
		for _, s := range engine.Specs() {
			fmt.Println(s)
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
