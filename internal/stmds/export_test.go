package stmds

// WindowPairs exports windowPairs, the most pairs a SkipMap scan
// window walks, to the external test package.
const WindowPairs = windowPairs

// Buckets returns the table's bucket count, 0 before the first Put. It
// reads the head word uninstrumented: call it with no op in flight.
func (s *HashMap) Buckets(th int) int {
	w := s.tm.Load(th, s.head)
	if w == nilPtr {
		return 0
	}
	_, mask := unpackArr(w)
	return int(mask) + 1
}

// BucketOf returns k's bucket in a table of the given bucket count.
func BucketOf(k int64, buckets int) int { return int(hashOf(k) & uint64(buckets-1)) }
