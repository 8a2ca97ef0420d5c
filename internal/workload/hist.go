package workload

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist is a concurrency-safe power-of-two latency histogram: bucket i
// counts samples in [2^i, 2^(i+1)) nanoseconds. kvserve's load
// generator reports its per-op and per-scan latency quantiles through
// it without retaining per-sample slices.
type Hist struct {
	buckets [64]atomic.Int64
}

// Add records one duration (non-positive durations land in bucket 0).
func (h *Hist) Add(d time.Duration) {
	ns := d.Nanoseconds()
	i := 0
	if ns > 0 {
		i = bits.Len64(uint64(ns)) - 1
	}
	h.buckets[i].Add(1)
}

// Count returns the number of recorded samples.
func (h *Hist) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1): the
// top of the bucket the nearest-rank (ceil(q·n)) sample falls in, so
// Quantile(0.99) of ten samples reports the slowest one, not the ninth.
// Zero samples yield 0.
func (h *Hist) Quantile(q float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i >= 62 {
				return time.Duration(1<<63 - 1)
			}
			return time.Duration(int64(1) << (i + 1))
		}
	}
	return time.Duration(1<<63 - 1)
}
