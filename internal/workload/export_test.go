package workload

// FenceSelective is the mode no timing benchmark runs; the Pipeline
// tests drive it.
const FenceSelective = fenceSelective

// Merge adds o's samples into h.
func (h *Hist) Merge(o *Hist) {
	if o == nil {
		return
	}
	for i := range h.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
}
