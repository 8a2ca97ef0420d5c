package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// summary is one metric over the rounds of a run: the median is the
// reported value, the quartiles its run-to-run spread.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarise(unit string, xs []float64) summary {
	q1, med, q3 := quartiles(xs)
	return summary{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(xs), Samples: xs}
}

// workloadReport is everything a run says about one workload.
type workloadReport struct {
	Name     string             `json:"name"`
	EndToEnd map[string]summary `json:"end_to_end"`
	PerLayer map[string]summary `json:"per_layer"`
	tally
	// LatencyN is the median number of latency samples behind op_p50_us
	// and op_p99_us in a slice, Beyond99 how many of them lie beyond the
	// p99, Tail the highest percentile the last slice's samples support.
	LatencyN int        `json:"latency_samples"`
	Beyond99 int        `json:"samples_beyond_p99"`
	Tail     string     `json:"tail,omitempty"`
	Dropped  int64      `json:"dropped_samples"`
	Spans    []spanStat `json:"spans,omitempty"`

	e2e, layer map[string][]float64
	tracedOps  []float64
	latN       []float64
}

func newWorkloadReport(name string) *workloadReport {
	return &workloadReport{Name: name, e2e: map[string][]float64{}, layer: map[string][]float64{}}
}

// add folds one round in. A traced round contributes its failures and
// its throughput (for trace.overhead_share) but no end-to-end sample:
// end-to-end numbers are measured with tracing off.
func (w *workloadReport) add(r roundResult, traced bool) {
	w.tally.add(r.tally)
	w.Dropped += r.dropped
	if traced {
		w.tracedOps = append(w.tracedOps, r.e2e["ops_per_s"])
		return
	}
	for k, v := range r.e2e {
		w.e2e[k] = append(w.e2e[k], v)
	}
	for k, v := range r.layer {
		w.layer[k] = append(w.layer[k], v)
	}
	w.latN = append(w.latN, float64(r.latencyN))
	w.Tail = r.tail
}

func (w *workloadReport) summarise() {
	w.EndToEnd = map[string]summary{}
	for _, m := range endToEnd {
		w.EndToEnd[m.name] = summarise(m.unit, w.e2e[m.name])
	}
	w.PerLayer = map[string]summary{}
	for _, m := range perLayer {
		if xs, ok := w.layer[m.name]; ok {
			w.PerLayer[m.name] = summarise(m.unit, xs)
		}
	}
	_, untraced, _ := quartiles(w.e2e["ops_per_s"])
	_, traced, _ := quartiles(w.tracedOps)
	overhead := 0.0
	if len(w.tracedOps) > 0 && untraced > 0 {
		overhead = 1 - traced/untraced
	}
	w.PerLayer["trace.overhead_share"] = summarise("share", []float64{overhead})
	_, n, _ := quartiles(w.latN)
	w.LatencyN = int(n)
	w.Beyond99 = w.LatencyN - 1 - rank(w.LatencyN, 9900)
}

// report is a whole run; -out writes it, -compare reads two of them.
type report struct {
	Fingerprint fingerprint        `json:"fingerprint"`
	Workloads   []*workloadReport  `json:"workloads"`
	Host        map[string]float64 `json:"host"`
	Ladder      map[string]float64 `json:"ladder,omitempty"`
	LadderTally tally              `json:"ladder_checks"`
}

// failures sums attempted and failed over the workloads and the ladder.
func (r *report) failures() (attempted, failed int64) {
	t := r.LadderTally
	for _, w := range r.Workloads {
		t.add(w.tally)
	}
	return t.Attempted, t.Failed
}

// layerValue looks a per-layer metric up wherever it lives: the ladder
// and the host readings are the same for every workload.
func (r *report) layerValue(w *workloadReport, name string) (float64, bool) {
	if v, ok := r.Ladder[name]; ok {
		return v, true
	}
	if v, ok := r.Host[name]; ok {
		return v, true
	}
	if s, ok := w.PerLayer[name]; ok {
		return s.Median, true
	}
	return 0, false
}

// print writes the human-readable report: every metric by name with its
// unit, median, quartiles and sample count.
func (r *report) print(out io.Writer) {
	f := r.Fingerprint
	fmt.Fprintf(out, "host: %d CPU, GOMAXPROCS %d, %s, commit %s\n", f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.Commit)
	fmt.Fprintf(out, "settings: engine %s, %d workers, %d keys, stmkv %s, seed %d, %d rounds x %.3gs slice (+%.3gs warm-up)\n",
		f.Engine, f.Workers, f.Keyspace, f.KVGeometry, f.Seed, f.Rounds, f.SliceS, f.WarmS)
	if len(f.Tags) > 0 {
		fmt.Fprintf(out, "tags: %s\n", strings.Join(f.Tags, ", "))
	}
	fmt.Fprintf(out, "host.calib_mops %.1f Mops/s, host.calib_spread %.3f\n", r.Host["host.calib_mops"], r.Host["host.calib_spread"])
	if r.Host["host.calib_spread"] > 0.10 {
		fmt.Fprintln(out, "WARNING: the calibration loop's spread exceeds 10 %: the host was unsteady during this run")
	}
	row := func(name string, s summary) {
		fmt.Fprintf(out, "  %-32s %14.6g %-7s q1 %-12.6g q3 %-12.6g n=%d\n", name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
	}
	for _, w := range r.Workloads {
		fmt.Fprintf(out, "\n== %s\n", w.Name)
		for _, m := range endToEnd {
			row(m.name, w.EndToEnd[m.name])
		}
		share := 0.0
		if w.Attempted > 0 {
			share = float64(w.Failed) / float64(w.Attempted)
		}
		fmt.Fprintf(out, "  %-32s %14.6g share   (%d failed of %d attempted)\n", "failed_share", share, w.Failed, w.Attempted)
		if w.FirstFailure != "" {
			fmt.Fprintf(out, "  first failure: %s\n", w.FirstFailure)
		}
		fmt.Fprintf(out, "  latency: %d samples a slice, %d beyond p99; tail %s; %d dropped\n", w.LatencyN, w.Beyond99, w.Tail, w.Dropped)
		names := make([]string, 0, len(w.PerLayer))
		for name := range w.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			row(name, w.PerLayer[name])
		}
		for _, s := range w.Spans {
			fmt.Fprintf(out, "  span %-27s %14.6g ns      self %-12.6g n=%d\n", s.Name, s.MedianNs, s.SelfNs, s.Count)
		}
	}
	if len(r.Ladder) > 0 {
		fmt.Fprintf(out, "\n== ladder (one worker, outside in)\n")
		for _, m := range perLayer {
			if v, ok := r.Ladder[m.name]; ok {
				fmt.Fprintf(out, "  %-32s %14.6g %-7s moves: %s\n", m.name, v, m.unit, m.moves)
			}
		}
		order := []string{"tl2.txn_ro_ns", "stmkv.get_ns", "kvserve.handler_get_ns", "http.roundtrip_get_us"}
		ok := r.Ladder[order[0]] < r.Ladder[order[1]] && r.Ladder[order[1]] < r.Ladder[order[2]] &&
			r.Ladder[order[2]] < r.Ladder[order[3]]*1e3
		fmt.Fprintf(out, "  rungs ordered %s: %v\n", strings.Join(order, " < "), ok)
		if t := r.LadderTally; t.Failed > 0 {
			fmt.Fprintf(out, "  ladder checks: %d failed of %d: %s\n", t.Failed, t.Attempted, t.FirstFailure)
		}
	}
}

// contractLine is the last line of standard output the driver reads:
// the end-to-end metrics of one workload, or with trace its per-layer
// metrics.
func (r *report) contractLine(w *workloadReport, trace bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace {
		for _, m := range perLayer {
			v, ok := r.layerValue(w, m.name)
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			metrics[m.name] = value{v, m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = value{w.EndToEnd[m.name].Median, m.unit}
		}
	}
	attempted, failed := r.failures()
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compare prints, for every workload and end-to-end metric, both runs'
// medians, how much worse b is than a as a share of a, and the metric's
// bound. A metric whose run-to-run spread (either run's interquartile
// range over its median) is wider than its bound is marked unresolved:
// the runs cannot tell a change of that size from noise. The per-layer
// metrics measured on the slice itself (latency, scan rate) follow
// without a bound, for the reader. It returns the number of violated
// bounds.
func compare(out io.Writer, a, b *report, bf *benchmarkFile) (violations int) {
	byName := map[string]*workloadReport{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	// row prints one comparison and returns how much worse b is and the
	// wider of the two spreads; ok is false when there is nothing to compare.
	row := func(workload, metric, better string, sa, sb summary, bound string) (worse, noise float64, ok bool) {
		if sa.N == 0 || sb.N == 0 || sa.Median == 0 {
			return 0, 0, false
		}
		worse = (sb.Median - sa.Median) / sa.Median
		if better == "higher" {
			worse = -worse
		}
		noise = max(spread(sa.Samples), spread(sb.Samples))
		fmt.Fprintf(out, "%-17s %-17s %14.6g %14.6g %+7.1f%% %6.1f%% %7s  ", workload, metric, sa.Median, sb.Median, worse*100, noise*100, bound)
		return worse, noise, true
	}
	fmt.Fprintf(out, "%-17s %-17s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "worse", "spread", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, m := range bf.EndToEnd {
			worse, noise, ok := row(wa.Name, m.Name, m.Better, wa.EndToEnd[m.Name], wb.EndToEnd[m.Name], fmt.Sprintf("%.1f%%", m.Bound*100))
			switch {
			case !ok:
			case worse > m.Bound:
				fmt.Fprintln(out, "VIOLATED")
				violations++
			case noise > m.Bound:
				fmt.Fprintln(out, "unresolved")
			default:
				fmt.Fprintln(out, "ok")
			}
		}
		for _, m := range perLayer {
			if m.source != "slice" {
				continue
			}
			if _, _, ok := row(wa.Name, m.name, m.better, wa.PerLayer[m.name], wb.PerLayer[m.name], "-"); ok {
				fmt.Fprintln(out, "not bounded")
			}
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(out, "%-17s failed: a %d of %d, b %d of %d  VIOLATED\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			violations++
		}
	}
	return violations
}
