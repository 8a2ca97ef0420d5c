package workload_test

import (
	"testing"
	"time"

	"safepriv/internal/workload"
)

func TestHistQuantiles(t *testing.T) {
	var h workload.Hist
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not zero")
	}
	// 90 fast samples (~1µs) and 10 slow ones (~1ms): p50 stays in the
	// fast bucket's range, p99 reaches the slow one.
	for i := 0; i < 90; i++ {
		h.Add(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Add(time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if p50 < time.Microsecond || p50 > 4*time.Microsecond {
		t.Fatalf("p50 = %v, want ~1–2µs", p50)
	}
	if p99 < time.Millisecond || p99 > 4*time.Millisecond {
		t.Fatalf("p99 = %v, want ~1–2ms", p99)
	}
	if p50 > p99 {
		t.Fatalf("p50 %v > p99 %v", p50, p99)
	}
	var m workload.Hist
	m.Merge(&h)
	m.Merge(nil)
	if m.Count() != 100 || m.Quantile(0.99) != p99 {
		t.Fatal("merge lost samples")
	}
	h.Add(0) // non-positive durations must not panic
	h.Add(-time.Second)
}

// TestHistQuantileEdgeCases pins the contract at the boundaries the
// serve bench and kvload lean on: empty histograms report 0 (not a
// panic or a sentinel), out-of-range q clamps to the extreme samples,
// and a single sample answers every quantile with its own bucket top.
func TestHistQuantileEdgeCases(t *testing.T) {
	var empty workload.Hist
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty.Quantile(%v) = %v, want 0", q, got)
		}
	}

	// One sample at ~100ns: bucket [64,128), so the reported upper
	// bound is 128ns for every q — including q outside (0,1], which
	// clamps to the only sample rather than running off either end.
	var one workload.Hist
	one.Add(100 * time.Nanosecond)
	for _, q := range []float64{-1, 0, 1e-9, 0.5, 1, 1.5} {
		if got := one.Quantile(q); got != 128*time.Nanosecond {
			t.Fatalf("one.Quantile(%v) = %v, want 128ns", q, got)
		}
	}

	// Two distant samples: q≤0 clamps to the fastest, q>1 to the
	// slowest — the same answers as the legal extremes next to them.
	var two workload.Hist
	two.Add(100 * time.Nanosecond)
	two.Add(time.Millisecond)
	if got := two.Quantile(0); got != two.Quantile(0.5) {
		t.Fatalf("Quantile(0) = %v, want the fastest sample's bucket %v", got, two.Quantile(0.5))
	}
	if got := two.Quantile(2); got != two.Quantile(1) {
		t.Fatalf("Quantile(2) = %v, want the slowest sample's bucket %v", got, two.Quantile(1))
	}
	if two.Quantile(1) <= two.Quantile(0.5) {
		t.Fatalf("p100 %v not above p50 %v", two.Quantile(1), two.Quantile(0.5))
	}
}
