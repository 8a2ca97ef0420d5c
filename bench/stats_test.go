package main

import (
	"math"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	tests := []struct {
		name       string
		n          int
		wantOK     bool
		wantPP     int
		wantBeyond int
	}{
		{"empty", 0, false, 0, 0},
		{"one sample", 1, false, 0, 0},
		{"just below the median threshold", 19, false, 0, 0},
		{"median threshold", 20, true, 5000, 10},
		{"just below the p90 threshold", 99, true, 5000, 49},
		{"p90 threshold", 100, true, 9000, 10},
		{"just below the p99 threshold", 999, true, 9000, 99},
		{"p99 threshold", 1000, true, 9900, 10},
		{"just above the p99 threshold", 1001, true, 9900, 10},
		{"just below the p99.9 threshold", 9999, true, 9900, 99},
		{"p99.9 threshold", 10000, true, 9990, 10},
		{"p99.99 threshold", 100000, true, 9999, 10},
	}
	for _, tc := range tests {
		pp, beyond, ok := tail(tc.n)
		if ok != tc.wantOK || pp != tc.wantPP || beyond != tc.wantBeyond {
			t.Errorf("%s: tail(%d) = p%d with %d beyond, ok=%v; want p%d with %d beyond, ok=%v",
				tc.name, tc.n, pp, beyond, ok, tc.wantPP, tc.wantBeyond, tc.wantOK)
		}
	}
}

func TestPercentile(t *testing.T) {
	hundred := make([]uint32, 100)
	for i := range hundred {
		hundred[i] = uint32(i + 1)
	}
	tests := []struct {
		name   string
		sorted []uint32
		pp     int
		want   uint32
	}{
		{"empty", nil, 5000, 0},
		{"one sample is every percentile", []uint32{7}, 9900, 7},
		{"ties", []uint32{5, 5, 5, 5}, 5000, 5},
		{"ties at the tail", []uint32{1, 9, 9, 9}, 9900, 9},
		{"median of 1..100", hundred, 5000, 50},
		{"p99 of 1..100", hundred, 9900, 99},
		{"p99.99 of 1..100", hundred, 9999, 100},
		{"even count takes the lower middle", []uint32{1, 2, 3, 4}, 5000, 2},
	}
	for _, tc := range tests {
		if got := percentile(tc.sorted, tc.pp); got != tc.want {
			t.Errorf("%s: percentile(pp=%d) = %d, want %d", tc.name, tc.pp, got, tc.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, which is what the driver uses for its spreads.
func TestQuartilesMatchPython(t *testing.T) {
	tests := []struct {
		xs           []float64
		q1, med, q3  float64
		wantSpreadOf float64
	}{
		{nil, 0, 0, 0, 0},
		{[]float64{3}, 3, 3, 3, 0},
		{[]float64{2, 1}, 0.75, 1.5, 2.25, 1},
		{[]float64{7, 1, 4, 2, 6, 3, 5}, 2, 4, 6, 1},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1},
		{[]float64{5, 5, 5, 5}, 5, 5, 5, 0},
	}
	for _, tc := range tests {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
		if got := spread(tc.xs); math.Abs(got-tc.wantSpreadOf) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.xs, got, tc.wantSpreadOf)
		}
	}
}

func TestRecorderNeverGrows(t *testing.T) {
	r := newRecorder(2)
	r.add(5 * time.Nanosecond)
	r.add(10 * time.Second) // saturates
	r.add(time.Nanosecond)  // no room
	if len(r.ns) != 2 || cap(r.ns) != 2 || r.dropped != 1 {
		t.Fatalf("recorder holds %d samples (cap %d), dropped %d; want 2, 2, 1", len(r.ns), cap(r.ns), r.dropped)
	}
	if got := sortedSamples(r, r); len(got) != 4 || got[0] != 5 || got[3] != math.MaxUint32 {
		t.Fatalf("sortedSamples = %v", got)
	}
	r.reset()
	if len(r.ns) != 0 || r.dropped != 0 {
		t.Fatalf("reset left %d samples, %d dropped", len(r.ns), r.dropped)
	}
}
