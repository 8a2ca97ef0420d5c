// Package stmds builds transactional data structures on top of the
// core TM API, the way STAMP-style applications use an STM: registers
// serve as words of a transactional heap, an allocator hands out
// nodes, and every operation is one atomic block.
//
// Provided structures: a sorted linked-list set (the classic STM
// microbenchmark), a sorted-list map, an O(log n) skiplist map
// (SkipMap, the multi-size-class heap client), and a FIFO queue. All
// work on any core.TM (TL2, NOrec, wtstm, the 2PL runtime,
// global-lock) and are exercised by cross-implementation tests and
// benchmarks.
//
// Allocation goes through the Allocator interface. Two implementations
// exist: the append-only bump Alloc in this package (removals leak —
// the arena is sized for the run, the seed's STAMP posture) and the
// reclaiming internal/stmalloc heap, whose Free is the paper's
// privatization idiom (unlink transactionally, ride the fence, reuse).
// Structures free unlinked nodes after the unlinking transaction
// commits, so churn workloads run indefinitely in bounded register
// space on a reclaiming allocator where the bump allocator dies with
// ErrOutOfSpace.
package stmds

import (
	"fmt"

	"safepriv/internal/core"
	"safepriv/internal/stmalloc"
)

// nilPtr is the null node pointer. Register index 0 is never allocated
// to a node, so 0 can encode nil (it is also VInit, giving zeroed
// next-pointers the right meaning).
const nilPtr int64 = 0

// ErrOutOfSpace is returned by allocators when no space can serve a
// request; it aliases stmalloc.ErrOutOfSpace so errors.Is matches
// across both allocator implementations.
var ErrOutOfSpace = stmalloc.ErrOutOfSpace

// Allocator hands out and reclaims blocks of TM registers for the data
// structures in this package.
//
// New allocates n consecutive registers inside tx: aborted
// transactions must leak nothing. Free returns the n-register block at
// ptr; it is called only after the transaction that unlinked the block
// committed, and the allocator decides when the block may actually be
// reused (stmalloc rides the transactional fence; the bump Alloc
// ignores Free and leaks).
type Allocator interface {
	New(tx core.Txn, th, n int) (int64, error)
	Free(th int, ptr int64, n int)
}

// Alloc is a transactional bump allocator over a TM's registers:
// register `counter` holds the next free register index. Allocation is
// transactional, so aborted transactions leak no memory — their
// allocations are rolled back with everything else. Free is a no-op:
// removed nodes leak until the arena is exhausted (New then returns
// ErrOutOfSpace). Use internal/stmalloc for reclaiming workloads.
type Alloc struct {
	counter int
	limit   int
}

// NewAlloc returns an allocator whose arena is [first, limit) and whose
// bump counter lives in register `counter`. The caller must initialize
// the counter register to `first` (non-transactionally, before use).
func NewAlloc(tm core.TM, counter, first, limit int) *Alloc {
	tm.Store(1, counter, int64(first))
	return &Alloc{counter: counter, limit: limit}
}

// New allocates n consecutive registers inside tx and returns the index
// of the first. Exhaustion is a typed error: errors.Is(err,
// ErrOutOfSpace) — the caller's transaction is aborted by Atomically
// and the error surfaces instead of retrying forever.
func (a *Alloc) New(tx core.Txn, th, n int) (int64, error) {
	next, err := tx.Read(a.counter)
	if err != nil {
		return 0, err
	}
	if int(next)+n > a.limit {
		return 0, fmt.Errorf("stmds: bump arena exhausted (%d+%d > %d): %w", next, n, a.limit, ErrOutOfSpace)
	}
	if err := tx.Write(a.counter, next+int64(n)); err != nil {
		return 0, err
	}
	return next, nil
}

// Free implements Allocator; the bump allocator cannot reclaim, so
// removed nodes leak (the contrast configuration to a reclaiming
// heap).
func (a *Alloc) Free(th int, ptr int64, n int) {}

// setNodeRegs is the register footprint of a set/queue node
// (key/value, next); mapNodeRegs of a map node (key, value, next).
const (
	setNodeRegs = 2
	mapNodeRegs = 3
)

// Set is a sorted singly-linked-list set of int64 keys. The list head
// pointer lives in register `head`; each node occupies two registers:
// node+0 = key, node+1 = next.
type Set struct {
	tm    core.TM
	head  int
	alloc Allocator
}

// NewSet returns a set with its head pointer in register head.
func NewSet(tm core.TM, head int, alloc Allocator) *Set {
	return &Set{tm: tm, head: head, alloc: alloc}
}

// find positions the traversal at the first node with key >= k,
// returning (prevPtrReg, nodePtr): prevPtrReg is the register holding
// the pointer to node (the head register or a next field).
func (s *Set) find(tx core.Txn, k int64) (int, int64, error) {
	prevReg := s.head
	cur, err := tx.Read(prevReg)
	if err != nil {
		return 0, 0, err
	}
	for cur != nilPtr {
		key, err := tx.Read(int(cur))
		if err != nil {
			return 0, 0, err
		}
		if key >= k {
			break
		}
		prevReg = int(cur) + 1
		if cur, err = tx.Read(prevReg); err != nil {
			return 0, 0, err
		}
	}
	return prevReg, cur, nil
}

// Contains reports membership, running its own transaction in thread
// th.
func (s *Set) Contains(th int, k int64) (bool, error) {
	var found bool
	err := core.Atomically(s.tm, th, func(tx core.Txn) error {
		_, cur, err := s.find(tx, k)
		if err != nil {
			return err
		}
		if cur != nilPtr {
			key, err := tx.Read(int(cur))
			if err != nil {
				return err
			}
			found = key == k
		} else {
			found = false
		}
		return nil
	})
	return found, err
}

// Insert adds k, reporting whether it was absent.
func (s *Set) Insert(th int, k int64) (bool, error) {
	var added bool
	err := core.Atomically(s.tm, th, func(tx core.Txn) error {
		added = false
		prevReg, cur, err := s.find(tx, k)
		if err != nil {
			return err
		}
		if cur != nilPtr {
			key, err := tx.Read(int(cur))
			if err != nil {
				return err
			}
			if key == k {
				return nil // already present
			}
		}
		node, err := s.alloc.New(tx, th, setNodeRegs)
		if err != nil {
			return err
		}
		if err := tx.Write(int(node), k); err != nil {
			return err
		}
		if err := tx.Write(int(node)+1, cur); err != nil {
			return err
		}
		if err := tx.Write(prevReg, node); err != nil {
			return err
		}
		added = true
		return nil
	})
	return added, err
}

// Remove deletes k, reporting whether it was present. The unlinked
// node is returned to the allocator after the removing transaction
// commits — on a reclaiming allocator this is the paper's idiom:
// unlink transactionally, then the allocator rides the fence before
// the registers are reused.
func (s *Set) Remove(th int, k int64) (bool, error) {
	var removed bool
	var victim int64
	err := core.Atomically(s.tm, th, func(tx core.Txn) error {
		removed = false
		prevReg, cur, err := s.find(tx, k)
		if err != nil {
			return err
		}
		if cur == nilPtr {
			return nil
		}
		key, err := tx.Read(int(cur))
		if err != nil {
			return err
		}
		if key != k {
			return nil
		}
		next, err := tx.Read(int(cur) + 1)
		if err != nil {
			return err
		}
		if err := tx.Write(prevReg, next); err != nil {
			return err
		}
		removed = true
		victim = cur
		return nil
	})
	if err == nil && removed {
		s.alloc.Free(th, victim, setNodeRegs)
	}
	return removed, err
}

// Snapshot returns the keys in order, read in one transaction.
func (s *Set) Snapshot(th int) ([]int64, error) {
	var out []int64
	err := core.Atomically(s.tm, th, func(tx core.Txn) error {
		out = out[:0]
		cur, err := tx.Read(s.head)
		if err != nil {
			return err
		}
		for cur != nilPtr {
			key, err := tx.Read(int(cur))
			if err != nil {
				return err
			}
			out = append(out, key)
			if cur, err = tx.Read(int(cur) + 1); err != nil {
				return err
			}
		}
		return nil
	})
	return out, err
}

// KV is one key-value pair returned by Map.Snapshot.
type KV struct {
	Key, Val int64
}

// Map is a sorted singly-linked-list map from int64 keys to int64
// values. The list head pointer lives in register `head`; each node
// occupies three registers: node+0 = key, node+1 = value, node+2 =
// next.
type Map struct {
	tm    core.TM
	head  int
	alloc Allocator
}

// NewMap returns a map with its head pointer in register head.
func NewMap(tm core.TM, head int, alloc Allocator) *Map {
	return &Map{tm: tm, head: head, alloc: alloc}
}

// find positions the traversal at the first node with key >= k (see
// Set.find; next fields sit at node+2 here).
func (m *Map) find(tx core.Txn, k int64) (int, int64, error) {
	prevReg := m.head
	cur, err := tx.Read(prevReg)
	if err != nil {
		return 0, 0, err
	}
	for cur != nilPtr {
		key, err := tx.Read(int(cur))
		if err != nil {
			return 0, 0, err
		}
		if key >= k {
			break
		}
		prevReg = int(cur) + 2
		if cur, err = tx.Read(prevReg); err != nil {
			return 0, 0, err
		}
	}
	return prevReg, cur, nil
}

// GetTx is Get inside a caller-owned transaction (the windowed
// executor drives these Tx-level methods under its own Begin/Commit;
// the th-less wrappers below stay the application API).
func (m *Map) GetTx(tx core.Txn, k int64) (v int64, ok bool, err error) {
	_, cur, err := m.find(tx, k)
	if err != nil || cur == nilPtr {
		return 0, false, err
	}
	key, err := tx.Read(int(cur))
	if err != nil || key != k {
		return 0, false, err
	}
	if v, err = tx.Read(int(cur) + 1); err != nil {
		return 0, false, err
	}
	return v, true, nil
}

// PutTx is Put inside a caller-owned transaction. Reports whether k was
// absent.
func (m *Map) PutTx(tx core.Txn, th int, k, v int64) (bool, error) {
	prevReg, cur, err := m.find(tx, k)
	if err != nil {
		return false, err
	}
	if cur != nilPtr {
		key, err := tx.Read(int(cur))
		if err != nil {
			return false, err
		}
		if key == k {
			return false, tx.Write(int(cur)+1, v) // update in place
		}
	}
	node, err := m.alloc.New(tx, th, mapNodeRegs)
	if err != nil {
		return false, err
	}
	if err := tx.Write(int(node), k); err != nil {
		return false, err
	}
	if err := tx.Write(int(node)+1, v); err != nil {
		return false, err
	}
	if err := tx.Write(int(node)+2, cur); err != nil {
		return false, err
	}
	if err := tx.Write(prevReg, node); err != nil {
		return false, err
	}
	return true, nil
}

// DeleteTx is Delete inside a caller-owned transaction: it unlinks the
// node and returns it for the caller to free AFTER the transaction
// commits. victimRegs is the block size to pass to Allocator.Free.
func (m *Map) DeleteTx(tx core.Txn, k int64) (removed bool, victim int64, victimRegs int, err error) {
	prevReg, cur, err := m.find(tx, k)
	if err != nil || cur == nilPtr {
		return false, 0, 0, err
	}
	key, err := tx.Read(int(cur))
	if err != nil || key != k {
		return false, 0, 0, err
	}
	next, err := tx.Read(int(cur) + 2)
	if err != nil {
		return false, 0, 0, err
	}
	if err := tx.Write(prevReg, next); err != nil {
		return false, 0, 0, err
	}
	return true, cur, mapNodeRegs, nil
}

// SnapshotTx returns the pairs in key order inside a caller-owned
// transaction.
func (m *Map) SnapshotTx(tx core.Txn) ([]KV, error) {
	var out []KV
	cur, err := tx.Read(m.head)
	if err != nil {
		return nil, err
	}
	for cur != nilPtr {
		key, err := tx.Read(int(cur))
		if err != nil {
			return nil, err
		}
		val, err := tx.Read(int(cur) + 1)
		if err != nil {
			return nil, err
		}
		out = append(out, KV{key, val})
		if cur, err = tx.Read(int(cur) + 2); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// LenTx counts the pairs inside a caller-owned transaction.
func (m *Map) LenTx(tx core.Txn) (int, error) {
	n := 0
	cur, err := tx.Read(m.head)
	if err != nil {
		return 0, err
	}
	for cur != nilPtr {
		n++
		if cur, err = tx.Read(int(cur) + 2); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// Get returns the value stored under k; ok reports presence.
func (m *Map) Get(th int, k int64) (v int64, ok bool, err error) {
	err = core.Atomically(m.tm, th, func(tx core.Txn) error {
		v, ok, err = m.GetTx(tx, k)
		return err
	})
	return v, ok, err
}

// Put inserts or updates k↦v, reporting whether k was absent.
func (m *Map) Put(th int, k, v int64) (bool, error) {
	var added bool
	err := core.Atomically(m.tm, th, func(tx core.Txn) (err error) {
		added, err = m.PutTx(tx, th, k, v)
		return err
	})
	return added, err
}

// Delete removes k, reporting whether it was present, and frees the
// unlinked node after the removing transaction commits.
func (m *Map) Delete(th int, k int64) (bool, error) {
	var removed bool
	var victim int64
	var victimRegs int
	err := core.Atomically(m.tm, th, func(tx core.Txn) (err error) {
		removed, victim, victimRegs, err = m.DeleteTx(tx, k)
		return err
	})
	if err == nil && removed {
		m.alloc.Free(th, victim, victimRegs)
	}
	return removed, err
}

// Snapshot returns the pairs in key order, read in one transaction.
func (m *Map) Snapshot(th int) ([]KV, error) {
	var out []KV
	err := core.Atomically(m.tm, th, func(tx core.Txn) (err error) {
		out, err = m.SnapshotTx(tx)
		return err
	})
	return out, err
}

// Len returns the pair count, read in one transaction.
func (m *Map) Len(th int) (int, error) {
	n := 0
	err := core.Atomically(m.tm, th, func(tx core.Txn) (err error) {
		n, err = m.LenTx(tx)
		return err
	})
	return n, err
}

// OrderedMap is the interface both ordered-map implementations (the
// sorted-list Map and the skiplist SkipMap) satisfy: what property
// tests need to run the same script against either, or against
// a plain map[int64]int64 oracle.
type OrderedMap interface {
	Get(th int, k int64) (v int64, ok bool, err error)
	Put(th int, k, v int64) (added bool, err error)
	Delete(th int, k int64) (removed bool, err error)
	Snapshot(th int) ([]KV, error)
	Len(th int) (int, error)
}

var (
	_ OrderedMap = (*Map)(nil)
	_ OrderedMap = (*SkipMap)(nil)
)

// Queue is a FIFO queue of int64 values: register head points at the
// oldest node, tail at the newest; each node is (value, next).
type Queue struct {
	tm         core.TM
	head, tail int
	alloc      Allocator
}

// NewQueue returns a queue with head/tail pointers in the given
// registers.
func NewQueue(tm core.TM, head, tail int, alloc Allocator) *Queue {
	return &Queue{tm: tm, head: head, tail: tail, alloc: alloc}
}

// Enqueue appends v.
func (q *Queue) Enqueue(th int, v int64) error {
	return core.Atomically(q.tm, th, func(tx core.Txn) error {
		node, err := q.alloc.New(tx, th, setNodeRegs)
		if err != nil {
			return err
		}
		if err := tx.Write(int(node), v); err != nil {
			return err
		}
		if err := tx.Write(int(node)+1, nilPtr); err != nil {
			return err
		}
		tailPtr, err := tx.Read(q.tail)
		if err != nil {
			return err
		}
		if tailPtr == nilPtr {
			if err := tx.Write(q.head, node); err != nil {
				return err
			}
		} else if err := tx.Write(int(tailPtr)+1, node); err != nil {
			return err
		}
		return tx.Write(q.tail, node)
	})
}

// Dequeue removes and returns the oldest value; ok=false on empty. The
// dequeued node is freed after the transaction commits.
func (q *Queue) Dequeue(th int) (int64, bool, error) {
	var v int64
	var ok bool
	var victim int64
	err := core.Atomically(q.tm, th, func(tx core.Txn) error {
		ok = false
		headPtr, err := tx.Read(q.head)
		if err != nil {
			return err
		}
		if headPtr == nilPtr {
			return nil
		}
		if v, err = tx.Read(int(headPtr)); err != nil {
			return err
		}
		next, err := tx.Read(int(headPtr) + 1)
		if err != nil {
			return err
		}
		if err := tx.Write(q.head, next); err != nil {
			return err
		}
		if next == nilPtr {
			if err := tx.Write(q.tail, nilPtr); err != nil {
				return err
			}
		}
		ok = true
		victim = headPtr
		return nil
	})
	if err == nil && ok {
		q.alloc.Free(th, victim, setNodeRegs)
	}
	return v, ok, err
}
