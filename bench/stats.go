package main

import (
	"math"
	"slices"
	"time"
)

// recorder keeps exact latency samples in a buffer allocated before the
// measured loop starts. Percentiles come from sorting the samples, so
// they carry no bucket error (workload.Hist's power-of-two buckets
// report every serve row as p50 = 65 536 ns).
type recorder struct {
	ns      []uint32 // nanoseconds, saturating at ~4.29 s
	dropped int64    // samples that arrived after the buffer filled
}

func newRecorder(capacity int) *recorder {
	return &recorder{ns: make([]uint32, 0, capacity)}
}

func (r *recorder) reset() {
	r.ns = r.ns[:0]
	r.dropped = 0
}

// add never allocates: a full buffer counts the sample as dropped.
func (r *recorder) add(d time.Duration) {
	if len(r.ns) == cap(r.ns) {
		r.dropped++
		return
	}
	switch {
	case d < 0:
		d = 0
	case d > math.MaxUint32:
		d = math.MaxUint32
	}
	r.ns = append(r.ns, uint32(d))
}

// sortedSamples returns the recorded samples of all recorders, merged
// and sorted ascending, in nanoseconds.
func sortedSamples(recs ...*recorder) []uint32 {
	n := 0
	for _, r := range recs {
		n += len(r.ns)
	}
	all := make([]uint32, 0, n)
	for _, r := range recs {
		all = append(all, r.ns...)
	}
	slices.Sort(all)
	return all
}

// rank is the 0-based nearest-rank index of the pp/10000 quantile in a
// sorted sample of n values; n-1-rank samples lie beyond it.
func rank(n, pp int) int {
	if n == 0 {
		return -1
	}
	r := (n*pp+9999)/10000 - 1
	if r < 0 {
		r = 0
	}
	return r
}

// percentile is the nearest-rank pp/10000 quantile of sorted, or 0 for
// an empty sample.
func percentile(sorted []uint32, pp int) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), pp)]
}

// tailLadder lists the percentiles a report may quote, in pp/10000.
var tailLadder = []int{5000, 9000, 9900, 9990, 9999}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer, and the value is set by a handful of outliers.
const minBeyond = 10

// tail picks the highest percentile of tailLadder that has at least
// minBeyond samples beyond it in a sample of n, and returns it with
// that count. ok is false when not even the median qualifies.
func tail(n int) (pp, beyond int, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		if b := n - 1 - rank(n, p); b >= minBeyond {
			return p, b, true
		}
	}
	return 0, 0, false
}

// quartiles returns the first quartile, median and third quartile of
// xs by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so a spread computed here equals the one the
// driver computes over the same values. One value is its own
// quartiles; none gives zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}
