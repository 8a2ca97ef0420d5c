package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// plan is a run's time budget. Every workload gets the same slices.
type plan struct {
	rounds       int           // untraced rounds: the end-to-end numbers come from these
	tracedRounds int           // extra rounds with spans recorded
	slice        time.Duration // one measured slice
	warm         time.Duration // untimed warm-up before each slice
	rung         time.Duration // one ladder rung; 0 skips the ladder pass
}

// roundResult is what one build → warm-up → slice → checks cycle gave.
type roundResult struct {
	e2e      map[string]float64
	layer    map[string]float64
	latencyN int    // latency samples behind op_p50_us / op_p99_us
	tail     string // the highest percentile with ≥ minBeyond samples beyond it
	dropped  int64  // latency samples or spans that did not fit their buffer
	spans    []span
	tally
}

// runRound builds one fresh instance of the workload, warms it up, runs
// one measured slice and checks it.
func runRound(spec workloadSpec, seed uint64, p plan, traced bool) (res roundResult, err error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	runtime.GC() // start every set-up from a collected heap, so setup_s is comparable
	t0 := time.Now()
	in, err := spec.build(seed, tr)
	setup := time.Since(t0)
	if err != nil {
		return roundResult{}, fmt.Errorf("%s: set-up: %w", spec.name, err)
	}

	in.run(p.warm)
	in.trace(tr)
	before := in.snapshot()
	in.run(p.slice)
	after := in.snapshot()

	var ops int64
	var opsPerS, busyNs float64
	recs := make([]*recorder, len(in.points))
	for i, w := range in.points {
		ops += w.ops
		opsPerS += float64(w.ops) / w.elapsed.Seconds()
		busyNs += float64(w.elapsed)
		recs[i] = w.lat
		res.dropped += w.lat.dropped
	}
	lat := sortedSamples(recs...)
	res.latencyN = len(lat)
	if pp, beyond, ok := tail(len(lat)); ok {
		res.tail = fmt.Sprintf("p%g = %.2f us (%d samples beyond)", float64(pp)/100, float64(percentile(lat, pp))/1e3, beyond)
	}
	var scanRate float64
	if s := in.scanner; s != nil {
		scanRate = float64(s.pairs) / s.elapsed.Seconds()
		busyNs += float64(s.elapsed)
	}

	res.e2e = map[string]float64{
		"setup_s":   setup.Seconds(),
		"ops_per_s": opsPerS,
		"heap_regs": float64(in.finish()),
	}
	res.layer = counterMetrics(before, after, ops, busyNs, p.slice.Seconds())
	res.layer["op_p50_us"] = float64(percentile(lat, 5000)) / 1e3
	res.layer["op_p99_us"] = float64(percentile(lat, 9900)) / 1e3
	res.layer["scan_pairs_per_s"] = scanRate
	res.tally = in.totals()
	if tr != nil {
		res.spans = tr.recorded()
		res.dropped += tr.dropped.Load()
	}
	return res, nil
}

// calibrate times a fixed arithmetic loop and returns its speed in
// millions of steps per second: a reading of the host, not of the repo.
func calibrate() float64 {
	const steps = 1 << 22
	s := splitmix64(1)
	t0 := time.Now()
	var sink uint64
	for i := 0; i < steps; i++ {
		sink ^= s.next()
	}
	dt := time.Since(t0)
	if sink == 0 { // keeps the loop alive; never true in practice
		return 0
	}
	return steps / dt.Seconds() / 1e6
}

// fingerprint identifies the host and the settings of a run.
type fingerprint struct {
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Seed       uint64   `json:"seed"`
	Rounds     int      `json:"rounds"`
	SliceS     float64  `json:"slice_s"`
	WarmS      float64  `json:"warm_s"`
	Engine     string   `json:"engine"`
	Workers    int      `json:"workers"`
	Keyspace   int      `json:"keyspace"`
	KVGeometry string   `json:"kv_geometry"`
	Tags       []string `json:"tags,omitempty"`
}

func newFingerprint(seed uint64, p plan) fingerprint {
	f := fingerprint{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: seed, Rounds: p.rounds, SliceS: p.slice.Seconds(), WarmS: p.warm.Seconds(),
		Engine: engineSpec, Workers: workers, Keyspace: keyspace,
		KVGeometry: fmt.Sprintf("%dx%d", kvShards, kvSlots),
	}
	// A checkout that is not a git repository has no commit to name.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		f.Commit = strings.TrimSpace(string(out))
	}
	if f.NumCPU < workers {
		// Two workers on one CPU take turns: the numbers describe the
		// scheduler, so the run is tagged instead of passed off as data.
		f.Tags = append(f.Tags, "oversubscribed")
	}
	return f
}

// runAll runs the plan over the given workloads: the untraced rounds
// interleaved (each round visits every workload, so host drift spreads
// over all of them instead of landing on one), then the traced rounds,
// then the ladder pass. Progress goes to log.
func runAll(specs []workloadSpec, seed uint64, p plan, spansPath string, log io.Writer) (*report, error) {
	rep := &report{Fingerprint: newFingerprint(seed, p)}
	acc := make([]*workloadReport, len(specs))
	for i, s := range specs {
		acc[i] = newWorkloadReport(s.name)
		rep.Workloads = append(rep.Workloads, acc[i])
	}
	if spansPath != "" {
		if err := os.Remove(spansPath); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	var calib []float64
	for round := 0; round < p.rounds+p.tracedRounds; round++ {
		traced := round >= p.rounds
		runtime.GC() // the collector's background workers would share the CPUs with the loop
		calib = append(calib, calibrate())
		fmt.Fprintf(log, "round %d calibration %.1f Mops/s\n", round+1, calib[round])
		for i, s := range specs {
			// Each round draws its own op streams from the seed.
			res, err := runRound(s, seed+uint64(round)<<32, p, traced)
			if err != nil {
				return nil, err
			}
			acc[i].add(res, traced)
			mark := "      "
			if traced {
				mark = "traced"
			}
			fmt.Fprintf(log, "round %d %-17s %s ops/s=%.0f p50=%.2fus p99=%.2fus failed=%d/%d\n",
				round+1, s.name, mark,
				res.e2e["ops_per_s"], res.layer["op_p50_us"], res.layer["op_p99_us"], res.Failed, res.Attempted)
			if traced {
				acc[i].Attempted++
				if err := checkSpans(res.spans); err != nil {
					acc[i].fail("span file: %v", err)
				}
				acc[i].Spans = summariseSpans(res.spans)
				if spansPath != "" {
					if err := writeSpans(spansPath, s.name, round+1, res.spans); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	_, calibMed, _ := quartiles(calib)
	rep.Host = map[string]float64{"host.calib_mops": calibMed, "host.calib_spread": spread(calib)}
	if p.rung > 0 {
		ladder, t, err := runLadder(seed, p.rung)
		if err != nil {
			return nil, err
		}
		rep.Ladder = ladder
		rep.LadderTally = t
	}
	for _, w := range acc {
		w.summarise()
	}
	return rep, nil
}
