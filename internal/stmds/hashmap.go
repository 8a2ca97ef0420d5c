package stmds

import (
	"errors"
	"math/bits"
	"sort"

	"safepriv/internal/core"
	"safepriv/internal/region"
	"safepriv/internal/stmalloc"
	"safepriv/internal/telemetry"
)

// hashNodeRegs is the register footprint of a hash-map chain node:
// node+0 = key, node+1 = value, node+2 = next.
const hashNodeRegs = 3

// The head register holds a PACKED word: the bucket array's first
// register in the low 40 bits, log2(bucket count) in the top bits, and
// the grow bit, set while a doubling holds the table private. One
// transactional read therefore yields the pointer, the index mask AND
// whether the table may be touched, so routing is a single register
// (and TL2 pays per read twice: once at the load, once validating at
// commit). 0 reads as "table uninitialized".
const (
	hashSizeShift = 48        // log2(bucket count) lives above this bit
	hashGrowBit   = 1 << 40   // a doubling holds the table private
	hashPtrBits   = 1<<40 - 1 // low bits: the array's first register
)

func packArr(ptr int64, buckets int) int64 {
	return ptr | int64(bits.TrailingZeros(uint(buckets)))<<hashSizeShift
}

func unpackArr(w int64) (ptr int64, mask uint64) {
	return w & hashPtrBits, 1<<uint(w>>hashSizeShift) - 1
}

// HashHeadRegs is the register footprint of a HashMap head block: the
// packed head word.
const HashHeadRegs = 1

// hashInitialBuckets is the bucket count of a freshly initialized
// table (installed lazily by the first Put, inside that Put's own
// transaction — small enough to zero transactionally).
const hashInitialBuckets = 16

// hashGrowChain is the chain-length grow trigger: a Put that makes its
// bucket chain this long asks the wrapper to double the table. Chain
// length is transactionally-read state, so the trigger is as
// deterministic as the schedule — no shared counter register that
// every writer would conflict on.
const hashGrowChain = 8

// HashMapDemand is the stmalloc demand profile of a HashMap holding up
// to `keys` live entries: one node class plus one large block per
// bucket-array generation. Every generation from the initial table to
// the final doubling is budgeted — an old array freed at the end of a
// doubling may still be riding its grace period (or parked in a
// magazine) when the next generation is allocated.
func HashMapDemand(keys int) []stmalloc.ClassDemand {
	final := hashInitialBuckets
	for final < 2*keys && final < stmalloc.MaxBlockRegs {
		final *= 2
	}
	d := []stmalloc.ClassDemand{{Regs: hashNodeRegs, Count: keys + keys/8 + 16}}
	for n := hashInitialBuckets; n <= final; n *= 2 {
		d = append(d, stmalloc.ClassDemand{Regs: n, Count: 1})
	}
	return d
}

// HashMap is a transactional chained hash map from int64 keys to int64
// values: the O(1) unordered point-op contrast to SkipMap's O(log n)
// ordered walks. Layout over TM registers:
//
//   - The head block is the one register `head` (the packed word
//     above). It must start zeroed (VInit), which reads as "table
//     uninitialized".
//   - A bucket array of 2^b buckets is one 2^b-register stmalloc block
//     (each array size is its own size class; HashMapDemand budgets one
//     block of every class the table passes through);
//     bucket i's register holds the head pointer of i's chain.
//   - A chain node occupies hashNodeRegs registers: key, value, next.
//
// Every point op hashes its key, routes to one bucket, and walks one
// expected-O(1) chain — a transactional read set of a handful of
// registers, against SkipMap's O(log n) tower descent.
//
// # Privatized doubling
//
// A Put whose bucket chain reaches hashGrowChain asks its wrapper to
// double the table (Grow), in one run of the paper's Fig. 7 cycle
// (conf_ppopp_KhyzhaAGR18) over the whole table — the shape
// stmkv's shard grow has, taken and published through the same
// region.Owner. The new array is allocated and zeroed while still
// unreachable; a transaction sets the grow bit in the head word (the
// privatization); ONE transactional fence waits out every
// transaction that saw the bit clear; every old chain is unzipped into
// new buckets i and i+oldSize with uninstrumented loads and stores; a
// publishing transaction installs the new array's word, bit clear, and
// the old array goes back to the allocator through FreeQuiesced, since
// the doubling's fence has already quiesced it.
//
// Every op reads the head word first, so an op born after the
// privatization sees the bit and parks on the publish gate before it
// touches a bucket — reads included: the grower relinks next-pointers
// with plain stores, which no TM's validation can see. (This relies on
// a real fence; the engine's nofence anomaly specs void the warranty.)
//
// The trade-off: a doubling stalls every op on the map for one O(n)
// relink. No benchmark workload grows the table in its measured slice
// (stmds.rehash_windows is 0 there), so the cost is paid in setup.
type HashMap struct {
	tm         core.TM
	head       int
	alloc      *stmalloc.Heap
	maxBuckets int

	// own privatizes and publishes the table for a doubling (package
	// region); ops that found the grow bit set wait on its gate.
	own *region.Owner

	board *telemetry.Board
}

// NewHashMap returns a hash map whose head block occupies registers
// [head, head+HashHeadRegs) and whose nodes and bucket arrays come
// from alloc. The head registers must start zeroed (VInit).
func NewHashMap(tm core.TM, head int, alloc *stmalloc.Heap) *HashMap {
	s := &HashMap{tm: tm, head: head, alloc: alloc, maxBuckets: alloc.MaxBlock(), own: region.NewOwner(tm)}
	if p, ok := tm.(telemetry.Provider); ok {
		s.board = p.TelemetryBoard()
	}
	return s
}

// hashOf is the bucket hash: the splitmix64 finalizer, a bijective
// mixer, so consecutive keys spread across buckets and every TM hashes
// identically (the differential suites rely on it).
func hashOf(k int64) uint64 { return splitmix64(uint64(k)) }

// tableTx reads the head word: the bucket array and its index mask,
// empty=true when the table has no array yet. Returns region.ErrPrivate
// while a doubling holds the table; the caller parks on the publish
// gate and retries.
func (s *HashMap) tableTx(tx core.Txn) (arr int64, mask uint64, empty bool, err error) {
	w, err := tx.Read(s.head)
	switch {
	case err != nil:
		return 0, 0, false, err
	case w == nilPtr:
		return 0, 0, true, nil
	case w&hashGrowBit != 0:
		return 0, 0, false, region.ErrPrivate
	}
	arr, mask = unpackArr(w)
	return arr, mask, false, nil
}

// routeTx returns the register holding the head pointer of k's bucket;
// see tableTx for empty and the errors.
func (s *HashMap) routeTx(tx core.Txn, k int64) (reg int, empty bool, err error) {
	arr, mask, empty, err := s.tableTx(tx)
	return int(arr) + int(hashOf(k)&mask), empty, err
}

// findTx walks k's chain from the bucket register reg. It returns the
// chain's first node, k's node (nilPtr when k is absent), the register
// that points at k's node, and the number of nodes before it.
func (s *HashMap) findTx(tx core.Txn, reg int, k int64) (first, cur int64, prev, n int, err error) {
	if first, err = tx.Read(reg); err != nil {
		return 0, 0, 0, 0, err
	}
	for prev, cur = reg, first; cur != nilPtr; n++ {
		key, err := tx.Read(int(cur))
		if err != nil || key == k {
			return first, cur, prev, n, err
		}
		prev = int(cur) + 2
		if cur, err = tx.Read(prev); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	return first, nilPtr, prev, n, nil
}

// GetTx is Get inside a caller-owned transaction.
func (s *HashMap) GetTx(tx core.Txn, k int64) (v int64, ok bool, err error) {
	reg, empty, err := s.routeTx(tx, k)
	if err != nil || empty {
		return 0, false, err
	}
	_, cur, _, _, err := s.findTx(tx, reg, k)
	if err != nil || cur == nilPtr {
		return 0, false, err
	}
	v, err = tx.Read(int(cur) + 1)
	return v, err == nil, err
}

// PutTx is Put inside a caller-owned transaction. Reports whether k
// was absent, and needGrow when the insert's chain hit hashGrowChain:
// the post-commit wrapper should then call Grow. The first Put
// installs the initial hashInitialBuckets-bucket array inside its own
// transaction (allocated and zeroed transactionally, so aborts leak
// nothing); doublings go through Grow's privatized cycle instead,
// since zeroing and relinking a large array transactionally would
// dwarf every TM's comfortable write set.
func (s *HashMap) PutTx(tx core.Txn, th int, k, v int64) (added, needGrow bool, err error) {
	reg, empty, err := s.routeTx(tx, k)
	if err != nil {
		return false, false, err
	}
	if empty {
		arr, err := s.alloc.New(tx, th, hashInitialBuckets)
		if err != nil {
			return false, false, err
		}
		// Recycled blocks keep a stale free-list link in register 0;
		// zero every bucket explicitly.
		for i := 0; i < hashInitialBuckets; i++ {
			if err := tx.Write(int(arr)+i, nilPtr); err != nil {
				return false, false, err
			}
		}
		if err := tx.Write(s.head, packArr(arr, hashInitialBuckets)); err != nil {
			return false, false, err
		}
		reg = int(arr) + int(hashOf(k)&uint64(hashInitialBuckets-1))
	}
	headPtr, cur, _, chain, err := s.findTx(tx, reg, k)
	if err != nil {
		return false, false, err
	}
	if cur != nilPtr {
		return false, false, tx.Write(int(cur)+1, v) // update in place
	}
	node, err := s.alloc.New(tx, th, hashNodeRegs)
	if err != nil {
		return false, false, err
	}
	if err := tx.Write(int(node), k); err != nil {
		return false, false, err
	}
	if err := tx.Write(int(node)+1, v); err != nil {
		return false, false, err
	}
	if err := tx.Write(int(node)+2, headPtr); err != nil {
		return false, false, err
	}
	if err := tx.Write(reg, node); err != nil {
		return false, false, err
	}
	return true, chain+1 >= hashGrowChain, nil
}

// DeleteTx is Delete inside a caller-owned transaction: it unlinks the
// node and returns it for the caller to free AFTER the transaction
// commits (the Fig. 7 cycle — the allocator rides the fence before the
// registers are reused). victimRegs is the block size to pass to
// stmalloc's Free.
func (s *HashMap) DeleteTx(tx core.Txn, k int64) (removed bool, victim int64, victimRegs int, err error) {
	reg, empty, err := s.routeTx(tx, k)
	if err != nil || empty {
		return false, 0, 0, err
	}
	_, cur, prev, _, err := s.findTx(tx, reg, k)
	if err != nil || cur == nilPtr {
		return false, 0, 0, err
	}
	next, err := tx.Read(int(cur) + 2)
	if err != nil {
		return false, 0, 0, err
	}
	if err := tx.Write(prev, next); err != nil {
		return false, 0, 0, err
	}
	return true, cur, hashNodeRegs, nil
}

// SnapshotTx returns the pairs (sorted by key, for stable comparison
// against ordered oracles) inside a caller-owned transaction.
func (s *HashMap) SnapshotTx(tx core.Txn) ([]KV, error) {
	var out []KV
	err := s.walkTx(tx, func(k, v int64) {
		out = append(out, KV{k, v})
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// LenTx counts the pairs inside a caller-owned transaction.
func (s *HashMap) LenTx(tx core.Txn) (int, error) {
	n := 0
	err := s.walkTx(tx, func(k, v int64) { n++ })
	return n, err
}

// walkTx visits every pair, bucket by bucket.
func (s *HashMap) walkTx(tx core.Txn, fn func(k, v int64)) error {
	arr, mask, empty, err := s.tableTx(tx)
	if err != nil || empty {
		return err
	}
	for i := 0; i <= int(mask); i++ {
		cur, err := tx.Read(int(arr) + i)
		for err == nil && cur != nilPtr {
			var key, val int64
			if key, err = tx.Read(int(cur)); err != nil {
				break
			}
			if val, err = tx.Read(int(cur) + 1); err != nil {
				break
			}
			fn(key, val)
			cur, err = tx.Read(int(cur) + 2)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Get returns the value stored under k; ok reports presence. A get
// that finds a doubling in progress parks on the publish gate and
// retries.
func (s *HashMap) Get(th int, k int64) (v int64, ok bool, err error) {
	err = s.own.Retry(th, func(tx core.Txn) (err error) {
		v, ok, err = s.GetTx(tx, k)
		return err
	})
	return v, ok, err
}

// Put inserts or updates k↦v, reporting whether k was absent. When the
// insert's chain hit the grow trigger, the wrapper doubles the table
// after the commit. The doubling is best-effort: one that cannot get
// its bigger array (or lost the race to another grower) leaves chains
// longer, and the Put has committed either way.
func (s *HashMap) Put(th int, k, v int64) (bool, error) {
	var added, needGrow bool
	err := s.own.Retry(th, func(tx core.Txn) (err error) {
		added, needGrow, err = s.PutTx(tx, th, k, v)
		return err
	})
	if err != nil {
		return false, err
	}
	if needGrow {
		_, _ = s.Grow(th)
	}
	return added, nil
}

// Delete removes k, reporting whether it was present; the unlinked
// node goes back to the allocator after the removing transaction
// commits.
func (s *HashMap) Delete(th int, k int64) (bool, error) {
	var removed bool
	var victim int64
	var victimRegs int
	err := s.own.Retry(th, func(tx core.Txn) (err error) {
		removed, victim, victimRegs, err = s.DeleteTx(tx, k)
		return err
	})
	if err != nil {
		return false, err
	}
	if removed {
		s.alloc.Free(th, victim, victimRegs)
	}
	return removed, nil
}

// Snapshot returns the pairs sorted by key, read in one transaction.
func (s *HashMap) Snapshot(th int) ([]KV, error) {
	var out []KV
	err := s.own.Retry(th, func(tx core.Txn) (err error) {
		out, err = s.SnapshotTx(tx)
		return err
	})
	return out, err
}

// Len returns the pair count, read in one transaction.
func (s *HashMap) Len(th int) (int, error) {
	n := 0
	err := s.own.Retry(th, func(tx core.Txn) (err error) {
		n, err = s.LenTx(tx)
		return err
	})
	return n, err
}

// errGrowLost aborts the privatizing transaction of a Grow that found
// the table already grown, or growing, by another thread.
var errGrowLost = errors.New("stmds: another thread grew the table first")

// Grow doubles the table in one privatize→fence→relink→publish cycle,
// reporting whether it did: false when the table is empty (the first
// Put installs it), already being doubled, at the allocator's
// block-size cap, or grown by another thread first. The new array is
// allocated in one transaction and zeroed with uninstrumented stores
// while still unreachable (nothing can touch it: the allocator's own
// grace period has quiesced the block's prior life), which keeps the
// big zeroing pass out of every TM's write set.
func (s *HashMap) Grow(th int) (bool, error) {
	var w int64
	err := core.Atomically(s.tm, th, func(tx core.Txn) (err error) {
		w, err = tx.Read(s.head)
		return err
	})
	if err != nil || w == nilPtr || w&hashGrowBit != 0 {
		return false, err
	}
	old, mask := unpackArr(w)
	oldSize := int(mask) + 1
	newSize := 2 * oldSize
	if newSize > s.maxBuckets {
		return false, nil // at capacity: chains lengthen gracefully
	}
	var arr int64
	err = core.Atomically(s.tm, th, func(tx core.Txn) (err error) {
		arr, err = s.alloc.New(tx, th, newSize)
		return err
	})
	if err != nil {
		return false, err
	}
	tm := s.tm
	for i := 0; i < newSize; i++ {
		tm.Store(th, int(arr)+i, nilPtr)
	}
	// Privatize. The packed word covers both the geometry and the grow
	// bit, so one compare detects that another thread grew first.
	err = s.own.Privatize(th, func(tx core.Txn) error {
		cur, err := tx.Read(s.head)
		switch {
		case err != nil:
			return err
		case cur != w:
			return errGrowLost
		}
		return tx.Write(s.head, w|hashGrowBit)
	})
	if err != nil {
		// The orphan array was never reachable and is already quiescent,
		// so it needs no grace period.
		s.alloc.FreeQuiesced(th, arr, newSize)
		if errors.Is(err, errGrowLost) {
			err = nil
		}
		return false, err
	}
	if sl := s.board.Slot(th); sl != nil {
		sl.RehashWindows.Add(1)
	}
	// The fence waited out every transaction that saw the grow bit
	// clear, and every later one parks before touching a bucket, so the
	// table is private: unzip old chain i into new buckets i and
	// i+oldSize with plain loads and stores.
	for i := 0; i < oldSize; i++ {
		lo, hi := nilPtr, nilPtr
		for cur := tm.Load(th, int(old)+i); cur != nilPtr; {
			next := tm.Load(th, int(cur)+2)
			if hashOf(tm.Load(th, int(cur)))&uint64(oldSize) == 0 {
				tm.Store(th, int(cur)+2, lo)
				lo = cur
			} else {
				tm.Store(th, int(cur)+2, hi)
				hi = cur
			}
			cur = next
		}
		tm.Store(th, int(arr)+i, lo)
		tm.Store(th, int(arr)+i+oldSize, hi)
	}
	err = s.own.Publish(th, func(tx core.Txn) error {
		return tx.Write(s.head, packArr(arr, newSize))
	})
	if err != nil {
		return false, err
	}
	// The doubling's fence already waited out every transaction that
	// could hold a pointer into the old array, and every later one parked
	// before touching a bucket, so the array is quiescent: a doubling
	// runs one fence, not two.
	s.alloc.FreeQuiesced(th, old, oldSize)
	return true, nil
}

// DrainRehash is a no-op: a doubling finishes inside the Grow that
// starts it, so there is never rehash work left to drain. It remains
// only because the benchmark's ds-churn settle step calls it.
func (s *HashMap) DrainRehash(th int) error { return nil }

// HashSet is a thin set wrapper over HashMap: membership only, values
// pinned to zero.
type HashSet struct {
	m *HashMap
}

// NewHashSet returns a hash set whose head block occupies registers
// [head, head+HashHeadRegs) and whose storage comes from alloc; budget
// it with HashMapDemand (same nodes, same arrays).
func NewHashSet(tm core.TM, head int, alloc *stmalloc.Heap) *HashSet {
	return &HashSet{m: NewHashMap(tm, head, alloc)}
}

// Insert adds k, reporting whether it was absent.
func (s *HashSet) Insert(th int, k int64) (bool, error) { return s.m.Put(th, k, 0) }

// Remove deletes k, reporting whether it was present.
func (s *HashSet) Remove(th int, k int64) (bool, error) { return s.m.Delete(th, k) }

// Contains reports membership.
func (s *HashSet) Contains(th int, k int64) (bool, error) {
	_, ok, err := s.m.Get(th, k)
	return ok, err
}

// Snapshot returns the members in sorted order.
func (s *HashSet) Snapshot(th int) ([]int64, error) {
	pairs, err := s.m.Snapshot(th)
	if err != nil {
		return nil, err
	}
	keys := make([]int64, len(pairs))
	for i, kv := range pairs {
		keys[i] = kv.Key
	}
	return keys, nil
}

// Len returns the member count.
func (s *HashSet) Len(th int) (int, error) { return s.m.Len(th) }
