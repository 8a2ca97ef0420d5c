// Package stmds builds transactional data structures on top of the
// core TM API, the way STAMP-style applications use an STM: registers
// serve as words of a transactional heap, an internal/stmalloc heap
// hands out nodes, and every operation is one atomic block.
//
// Two structures are provided, one per benchmark workload that drives
// them: SkipMap, an O(log n) ordered skiplist map whose range scans
// privatize bounded key windows, and HashMap (with the HashSet wrapper),
// an O(1) chained hash map whose doublings privatize the whole table.
// Both work on any core.TM (TL2, NOrec, wtstm, the 2PL runtime,
// global-lock) and satisfy OrderedMap, so tests run one script against
// either and against a plain Go map.
//
// Structures free an unlinked node only after the unlinking
// transaction commits, and stmalloc's Free is the paper's
// privatization idiom (unlink transactionally, ride the fence, reuse),
// so churn workloads run indefinitely in bounded register space.
package stmds

// nilPtr is the null node pointer. Register index 0 is never allocated
// to a node, so 0 can encode nil (it is also VInit, giving zeroed
// next-pointers the right meaning).
const nilPtr int64 = 0

// KV is one key-value pair returned by Snapshot and the range scans.
type KV struct {
	Key, Val int64
}

// OrderedMap is the interface SkipMap and HashMap satisfy (HashMap's
// Snapshot sorts): what property tests need to run the same script
// against either, or against a plain map[int64]int64 oracle.
type OrderedMap interface {
	Get(th int, k int64) (v int64, ok bool, err error)
	Put(th int, k, v int64) (added bool, err error)
	Delete(th int, k int64) (removed bool, err error)
	Snapshot(th int) ([]KV, error)
	Len(th int) (int, error)
}

var (
	_ OrderedMap = (*SkipMap)(nil)
	_ OrderedMap = (*HashMap)(nil)
)
