// Command bench is the repository's benchmark: five workloads from
// loopback HTTP down to the raw TM, measured in interleaved rounds with
// exact latency percentiles, checked for correctness, and attributed to
// layers by counters, spans and an outside-in cost ladder. README.md in
// this directory is the glossary; BENCHMARK.json at the repository root
// is the contract the driver checks it against.
//
//	go run ./bench                      every workload, 7 rounds x 3 s, then the traced pass
//	go run ./bench -workload ds-churn -seed 3 -seconds 18 -trace 0
//	                                    one workload; the last line is the driver's JSON
//	go run ./bench -smoke               1 round, 100 ms slices: does everything still run?
//	go run ./bench -out a.json          keep the full report ...
//	go run ./bench -compare a.json b.json    ... and compare two of them against the bounds
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// ladderRungs is how many rung lengths the ladder pass takes (some of
// its measurements time two phases, or restore state untimed).
const ladderRungs = 28

type options struct {
	workload string
	seed     uint64
	seconds  float64
	rounds   int
	trace    string
	smoke    bool
	out      string
	spans    string
}

// planFor turns the options into a time budget. With -trace 1 the same
// number of seconds is split between untraced slices, traced slices and
// the ladder, so a traced run takes as long as an untraced one.
func planFor(o options) (plan, error) {
	if o.smoke {
		return plan{rounds: 1, tracedRounds: 1, slice: 100 * time.Millisecond, warm: 20 * time.Millisecond, rung: 50 * time.Millisecond}, nil
	}
	if o.rounds < 1 || o.seconds <= 0 {
		return plan{}, fmt.Errorf("-rounds and -seconds must be positive")
	}
	total := time.Duration(o.seconds * float64(time.Second))
	p := plan{rounds: o.rounds, warm: 500 * time.Millisecond}
	switch o.trace {
	case "0":
		p.slice = total / time.Duration(p.rounds)
	case "1":
		p.rounds, p.tracedRounds = 2, 2
		p.slice = total * 55 / 100 / 4
		p.rung = total * 45 / 100 / ladderRungs
	case "":
		// Every workload by hand: the end-to-end rounds in full, then one
		// traced slice per workload and the ladder on top.
		p.slice = total / time.Duration(p.rounds)
		p.tracedRounds = 1
		p.rung = 500 * time.Millisecond
	default:
		return plan{}, fmt.Errorf("-trace takes 0 or 1, not %q", o.trace)
	}
	if p.warm > p.slice/2 {
		p.warm = p.slice / 2
	}
	return p, nil
}

func run(o options, stdout, log io.Writer) error {
	p, err := planFor(o)
	if err != nil {
		return err
	}
	specs := workloadSpecs
	if o.workload != "" {
		spec, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		specs = []workloadSpec{spec}
	}
	rep, err := runAll(specs, o.seed, p, o.spans, log)
	if err != nil {
		return err
	}
	rep.print(stdout)
	if o.out != "" {
		if err := rep.write(o.out); err != nil {
			return err
		}
	}
	if o.workload != "" {
		line, err := rep.contractLine(rep.Workloads[0], o.trace == "1")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if attempted, failed := rep.failures(); failed > 0 {
		return fmt.Errorf("%d of %d operations and checks failed", failed, attempted)
	}
	return nil
}

func main() {
	var o options
	var compareMode bool
	benchmarkPath := flag.String("benchmark", "BENCHMARK.json", "with -compare: the file that holds the bounds")
	flag.StringVar(&o.workload, "workload", "", "run only this workload and end with the driver's JSON line (default: all five, interleaved)")
	flag.Uint64Var(&o.seed, "seed", 1, "the only input: every op stream is drawn from it")
	flag.Float64Var(&o.seconds, "seconds", 21, "measured seconds per workload, split evenly over the rounds")
	flag.IntVar(&o.rounds, "rounds", 7, "rounds; a reported value is the median over them")
	flag.StringVar(&o.trace, "trace", "", "0: end-to-end metrics only; 1: the same seconds spent on per-layer metrics (counters, spans, ladder); unset: both")
	flag.BoolVar(&o.smoke, "smoke", false, "1 round, 100 ms slices, 50 ms ladder rungs")
	flag.StringVar(&o.out, "out", "", "also write the full report as JSON to this file")
	flag.StringVar(&o.spans, "spans", ".bench_out/spans.jsonl", "where traced slices write their spans as JSON lines (empty: nowhere)")
	flag.BoolVar(&compareMode, "compare", false, "compare two -out files given as arguments; exit 1 on a violated bound")
	flag.Parse()

	if compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(*benchmarkPath, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func compareFiles(benchmarkPath, pathA, pathB string) int {
	bf, err := readBenchmarkFile(benchmarkPath)
	var a, b *report
	if err == nil {
		a, err = readReport(pathA)
	}
	if err == nil {
		b, err = readReport(pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if compare(os.Stdout, a, b, bf) > 0 {
		return 1
	}
	return 0
}
