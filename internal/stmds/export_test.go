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

// LevelStream returns fresh tower-height streams for thread ids
// 0..threads, as a new SkipMap draws them: each call draws thread th's
// next height.
func LevelStream(threads int) func(th int) int { return newLevels(threads).next }

// TowerRegs exports towerRegs, a tower's register footprint, to the
// external test package.
func TowerRegs(height int) int { return towerRegs(height) }

// SkipMaxLevel, HashInitialBuckets and HintMax export skipMaxLevel,
// hashInitialBuckets and hintMax (the clamp of a SkipMap link's key
// hint) to the external test package.
const (
	SkipMaxLevel       = skipMaxLevel
	HashInitialBuckets = hashInitialBuckets
	HintMax            = hintMax
)

// Range streams every pair with from <= key <= to into fn in ascending
// key order through a windowed scan with no span cap (each window
// still walks at most windowPairs pairs); fn returning false stops the
// scan early. The per-window atomicity contract applies — see the
// SkipMap type comment.
func (s *SkipMap) Range(th int, from, to int64, fn func(k, v int64) bool) error {
	it := s.RangeWindows(from, to, 0)
	for {
		pairs, more, err := it.Next(th)
		if err != nil {
			return err
		}
		for _, kv := range pairs {
			if !fn(kv.Key, kv.Val) {
				return nil
			}
		}
		if !more {
			return nil
		}
	}
}
