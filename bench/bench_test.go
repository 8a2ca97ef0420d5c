package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs what `go run ./bench -smoke` runs: all five workloads,
// a traced slice of each and the ladder pass. It asserts that they
// execute, check clean and report every metric; it asserts nothing
// about speed.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.jsonl")
	out := filepath.Join(dir, "report.json")
	var stdout bytes.Buffer
	if err := run(options{smoke: true, seed: 1, spans: spans, out: out}, &stdout, io.Discard); err != nil {
		t.Fatalf("smoke run: %v\n%s", err, stdout.String())
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloadSpecs) {
		t.Fatalf("report has %d workloads, want %d", len(rep.Workloads), len(workloadSpecs))
	}
	for _, w := range rep.Workloads {
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d failed of %d attempted: %s", w.Name, w.Failed, w.Attempted, w.FirstFailure)
		}
		for _, m := range endToEnd {
			if s := w.EndToEnd[m.name]; s.N != 1 || s.Median <= 0 {
				t.Errorf("%s: %s = %v over %d rounds, want one positive value", w.Name, m.name, s.Median, s.N)
			}
		}
		for _, m := range perLayer {
			if _, ok := rep.layerValue(w, m.name); !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, m.name)
			}
		}
		if len(w.Spans) == 0 {
			t.Errorf("%s: the traced slice recorded no spans", w.Name)
		}
		if !strings.Contains(stdout.String(), "== "+w.Name) {
			t.Errorf("%s: missing from the printed report", w.Name)
		}
	}
	if rep.LadderTally.Failed != 0 {
		t.Errorf("ladder: %d checks failed: %s", rep.LadderTally.Failed, rep.LadderTally.FirstFailure)
	}

	// The span file: every child inside its parent and in its trace, and
	// serve-point's requests each parent a handler span.
	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type line struct {
		Workload string
		Round    int
		span
	}
	bySlice := map[string][]span{}
	handlers := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("span file: %v in %q", err, sc.Text())
		}
		bySlice[l.Workload] = append(bySlice[l.Workload], l.span)
		if l.Workload == "serve-point" && l.Name == spanHandler && l.Parent != 0 {
			handlers++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(bySlice) != len(workloadSpecs) {
		t.Errorf("span file covers %d workloads, want %d", len(bySlice), len(workloadSpecs))
	}
	for name, ss := range bySlice {
		if err := checkSpans(ss); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if handlers == 0 {
		t.Error("serve-point recorded no kvserve.handler span under a request")
	}
}

// TestContractLine checks the last line of output the driver parses, in
// both trace modes.
func TestContractLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout bytes.Buffer
		o := options{workload: "store-scan-churn", seed: 2, seconds: 0.3, rounds: 2, trace: trace}
		if err := run(o, &stdout, io.Discard); err != nil {
			t.Fatalf("-trace %s: %v", trace, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got struct {
			Correct   *bool
			Attempted *int64
			Failed    *int64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("-trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("-trace %s: correct/attempted/failed = %v/%v/%v", trace, got.Correct, got.Attempted, got.Failed)
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("-trace %s: %d metrics, want %d", trace, len(got.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := got.Metrics[m.name]
			if !ok || v.Value == nil || v.Unit != m.unit {
				t.Errorf("-trace %s: metric %s = %+v, want a value in %s", trace, m.name, v, m.unit)
			}
		}
	}
}

// wrongValue is a backend that returns one wrong value.
type wrongValue struct {
	backend
	key int64
}

func (b wrongValue) get(k int64) (int64, bool, error) {
	v, ok, err := b.backend.get(k)
	if k == b.key {
		v++
	}
	return v, ok, err
}

// TestOracleCatchesViolations injects the faults the oracle exists for:
// a read that returns a wrong value, a stored value nobody wrote, a key
// that vanished, and a leaked block.
func TestOracleCatchesViolations(t *testing.T) {
	in, err := buildStoreReadHeavy(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := in.points[0]
	w.b = wrongValue{w.b, 8}
	w.do(opGet, 16)
	if w.Failed != 0 {
		t.Fatalf("a correct read failed: %s", w.FirstFailure)
	}
	w.do(opGet, 8)
	if w.Failed != 1 {
		t.Fatalf("a wrong value went unnoticed (failed = %d)", w.Failed)
	}
	w.own.clear(3) // forget an own key that is stored
	w.do(opGet, 3)
	if w.Failed != 2 {
		t.Fatalf("a read that disagrees with the writer's record went unnoticed (failed = %d)", w.Failed)
	}
	w.own.set(3)

	// The contents check: one wrong stored value, one missing key.
	if err := in.store.Put(thAdmin, 24, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := in.store.Delete(thAdmin, 32); err != nil {
		t.Fatal(err)
	}
	in.finish()
	if in.checks.Failed == 0 {
		t.Fatal("wrong contents went unnoticed")
	}
	if !strings.Contains(in.checks.FirstFailure, "pairs") && !strings.Contains(in.checks.FirstFailure, "contents") {
		t.Fatalf("unexpected failure: %s", in.checks.FirstFailure)
	}

	// A clean instance passes, and a block held past the drain is a leak.
	clean, err := buildDSRangeChurn(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	settle := clean.settle
	clean.settle = func(live int) (int64, error) {
		want, err := settle(live)
		return want + 1, err
	}
	clean.finish()
	if clean.checks.Failed != 1 || !strings.Contains(clean.checks.FirstFailure, "live blocks") {
		t.Fatalf("a leak went unnoticed: %d failed: %s", clean.checks.Failed, clean.checks.FirstFailure)
	}
}

// TestBenchmarkFile keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadSpecs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if got := bf.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the benchmark", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark has %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, want %s in %s, %s is better", i, got, m.name, m.unit, m.better)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, got.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark has %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, want %s in %s, %s is better", i, got, m.name, m.unit, m.better)
		}
	}
}

func TestCompare(t *testing.T) {
	bf := &benchmarkFile{}
	if err := json.Unmarshal([]byte(`{"end_to_end":[
		{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1},
		{"name":"op_p50_us","unit":"us","better":"lower","bound":0.1}]}`), bf); err != nil {
		t.Fatal(err)
	}
	mk := func(ops, p50 []float64) *report {
		w := &workloadReport{Name: "w", tally: tally{Attempted: 1}, EndToEnd: map[string]summary{
			"ops_per_s": summarise("1/s", ops), "op_p50_us": summarise("us", p50),
		}}
		return &report{Workloads: []*workloadReport{w}}
	}
	steady := []float64{100, 101, 99, 100, 100}
	tests := []struct {
		name           string
		a, b           *report
		wantViolations int
		wantVerdicts   []string
	}{
		{"same", mk(steady, steady), mk(steady, steady), 0, []string{"ok", "ok"}},
		{"higher-is-better metric dropped 20 %", mk(steady, steady), mk([]float64{80, 80, 80}, steady), 1, []string{"VIOLATED", "ok"}},
		{"lower-is-better metric rose 20 %", mk(steady, steady), mk(steady, []float64{120, 120, 120}), 1, []string{"ok", "VIOLATED"}},
		{"improvements are not violations", mk(steady, steady), mk([]float64{150, 150, 150}, []float64{50, 50, 50}), 0, []string{"ok", "ok"}},
		{"spread wider than the bound", mk([]float64{60, 100, 140, 100, 100}, steady), mk(steady, steady), 0, []string{"unresolved", "ok"}},
	}
	for _, tc := range tests {
		var out bytes.Buffer
		if got := compare(&out, tc.a, tc.b, bf); got != tc.wantViolations {
			t.Errorf("%s: %d violations, want %d\n%s", tc.name, got, tc.wantViolations, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
		for i, want := range tc.wantVerdicts {
			if i >= len(lines) || !strings.HasSuffix(lines[i], want) {
				t.Errorf("%s: row %d of\n%s\nwant verdict %s", tc.name, i, out.String(), want)
			}
		}
	}
}
