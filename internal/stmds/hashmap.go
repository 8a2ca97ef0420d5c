package stmds

import (
	"math/bits"
	"sort"

	"safepriv/internal/core"
	"safepriv/internal/pubgate"
	"safepriv/internal/stmalloc"
	"safepriv/internal/telemetry"
)

// hashNodeRegs is the register footprint of a hash-map chain node:
// node+0 = key, node+1 = value, node+2 = next.
const hashNodeRegs = 3

// Head-block register offsets, relative to `head`. The guard triple
// (flag, lo, hi) is the rehash analogue of SkipMap's scan guard: while
// hashGFlag is odd, the OLD-array buckets with index in [lo, hi) — and
// their two target buckets in the new array — are private to the
// migrating thread.
const (
	hashGFlag  = 0 // migration epoch: even = shared, odd = stripe private
	hashGLo    = 1 // active stripe's first old-bucket index (inclusive)
	hashGHi    = 2 // active stripe's last old-bucket index (exclusive)
	hashOldArr = 3 // old bucket array, packed; 0 = no rehash in progress
	hashArr    = 4 // current bucket array, packed; 0 = table uninitialized
	hashCursor = 5 // old buckets below this index have been migrated
	// Registers 6 and 7 are reserved (the packed array words made the
	// separate mask registers redundant).
)

// The array registers hold a PACKED word: the array's first register
// in the low 40 bits, log2(bucket count) in the top bits, and — in
// hashArr only — a rehash-in-progress flag at hashRehashBit. One
// transactional read therefore yields the pointer, the index mask, AND
// whether the slow routing path applies, collapsing steady-state
// routing to a single register (and TL2 pays per read twice: once at
// the load, once validating at commit).
const (
	hashSizeShift = 48        // log2(bucket count) lives above this bit
	hashRehashBit = 1 << 40   // hashArr only: a rehash is in progress
	hashPtrBits   = 1<<40 - 1 // low bits: the array's first register
)

func packArr(ptr int64, buckets int) int64 {
	return ptr | int64(bits.TrailingZeros(uint(buckets)))<<hashSizeShift
}

func unpackArr(w int64) (ptr int64, mask uint64) {
	return w & hashPtrBits, 1<<uint(w>>hashSizeShift) - 1
}

// HashHeadRegs is the register footprint of a HashMap head block.
const HashHeadRegs = 8

// HashInitialBuckets is the bucket count of a freshly initialized
// table (installed lazily by the first Put, inside that Put's own
// transaction — small enough to zero transactionally).
const HashInitialBuckets = 16

// hashGrowChain is the chain-length grow trigger: a Put that makes its
// bucket chain this long asks the wrapper to double the table. Chain
// length is transactionally-read state, so the trigger is as
// deterministic as the schedule — no shared counter register that
// every writer would conflict on.
const hashGrowChain = 8

// hashStripe is the number of old buckets migrated per rehash window:
// wide enough that one fence amortizes over dozens of bucket chains,
// narrow enough that a window privatizes a small slice of the table.
const hashStripe = 64

// HashMapDemand is the stmalloc demand profile of a HashMap holding up
// to `keys` live entries: one node class plus one large block per
// bucket-array generation. Every generation from the initial table to
// the final doubling is budgeted — an old array freed at the end of a
// rehash may still be riding its grace period (or parked in a
// magazine) when the next generation is allocated.
func HashMapDemand(keys int) []stmalloc.ClassDemand {
	final := HashInitialBuckets
	for final < 2*keys && final < stmalloc.MaxBlockRegs {
		final *= 2
	}
	d := []stmalloc.ClassDemand{{Regs: hashNodeRegs, Count: keys + keys/8 + 16}}
	for n := HashInitialBuckets; n <= final; n *= 2 {
		d = append(d, stmalloc.ClassDemand{Regs: n, Count: 1})
	}
	return d
}

// HashMap is a transactional chained hash map from int64 keys to int64
// values: the O(1) unordered point-op contrast to SkipMap's O(log n)
// ordered walks. Layout over TM registers:
//
//   - The head block is HashHeadRegs consecutive registers starting at
//     `head` (see the offset constants above). It must start zeroed
//     (VInit), which reads as "table uninitialized".
//   - A bucket array of 2^b buckets is one 2^b-register stmalloc block
//     (the variable-size demand the buddy split/coalesce layer serves);
//     bucket i's register holds the head pointer of i's chain.
//   - A chain node occupies hashNodeRegs registers: key, value, next.
//
// Every point op hashes its key, routes to one bucket, and walks one
// expected-O(1) chain — a transactional read set of a handful of
// registers, against SkipMap's O(log n) tower descent.
//
// # Incremental privatized rehash
//
// Growth never stops the world. A Put whose bucket chain reaches
// hashGrowChain asks its wrapper to double the table: the new array is
// allocated and zeroed while still unreachable, then installed in one
// transaction (old array, masks, cursor = 0). From then on ops route
// by the migration cursor — old buckets below it have moved to the new
// array, the rest still live in the old one — and each subsequent
// write op migrates one stripe of hashStripe old buckets through the
// paper's Fig. 7 cycle (conf_ppopp_KhyzhaAGR18): a transaction flips
// the guard odd and records the stripe bounds (the privatization), ONE
// transactional fence quiesces every transaction that saw the guard
// even, the stripe's chains are unzipped into the new array with
// uninstrumented loads and stores, and a publishing transaction flips
// the guard back even and advances the cursor. The table doubles while
// churners keep committing; only ops that hash into the active stripe
// stall, parking on the publish gate exactly like SkipMap's writers.
//
// The stripe's uninstrumented writes are protocol-private: old bucket
// i feeds exactly new buckets i and i+oldSize (newIdx & oldMask ==
// oldIdx), and any op on those buckets routes through old index i,
// which the guard blocks. Ops consult the guard before touching any
// bucket whenever a rehash is in progress — including reads: the
// migrator relinks node next-pointers with plain stores, which no
// TM's validation can see, so the fence-plus-guard protocol is the
// only thing keeping a transactional chain walk off a stripe being
// unzipped. Steady-state ops skip the guard read entirely; see routeTx
// for why that is safe. (Like SkipMap's windowed scans this relies on
// a real fence; the engine's nofence anomaly specs void the warranty.)
//
// When the last stripe publishes, the old array is freed through the
// normal grace-period Free — a doomed reader may still hold a pointer
// into it — and the buddy layer splits the recycled block into
// node-sized pieces for the next churn phase.
type HashMap struct {
	tm         core.TM
	head       int
	alloc      Allocator
	maxBuckets int

	// gate is opened on every stripe publish; ops routed into the
	// stripe being migrated wait on it (retryWindow).
	gate pubgate.Gate

	board *telemetry.Board
}

// HashHint is the out-of-band result of a mutating Tx-level call: what
// the post-commit wrapper should do for table maintenance. It is
// derived from transactionally-read state of the committed attempt.
type HashHint struct {
	Rehashing bool // a rehash is in progress; advance it one window
	NeedGrow  bool // the insert's chain hit hashGrowChain; double the table
}

// NewHashMap returns a hash map whose head block occupies registers
// [head, head+HashHeadRegs) and whose nodes and bucket arrays come
// from alloc. The head registers must start zeroed (VInit).
func NewHashMap(tm core.TM, head int, alloc Allocator) *HashMap {
	s := &HashMap{tm: tm, head: head, alloc: alloc, maxBuckets: stmalloc.MaxBlockRegs}
	if mb, ok := alloc.(interface{ MaxBlock() int }); ok {
		s.maxBuckets = mb.MaxBlock()
	}
	if p, ok := tm.(telemetry.Provider); ok {
		s.board = p.TelemetryBoard()
	}
	return s
}

// hashOf is the bucket hash: the splitmix64 finalizer, a bijective
// mixer, so consecutive keys spread across buckets and every TM hashes
// identically (the differential suites rely on it).
func hashOf(k int64) uint64 { return splitmix64(uint64(k)) }

// routeTx returns the register holding the head pointer of k's bucket
// under the rehash protocol. The steady-state fast path is ONE read:
// the packed hashArr word, whose hashRehashBit is clear when no rehash
// is in progress. Skipping the guard read on that path is safe because
// a migration stripe only exists mid-rehash: the migrator's fence
// quiesces every live transaction regardless of what it has read, so
// any transaction that loaded a clear rehash bit before the
// privatization is waited out (committed or doomed) before the first
// uninstrumented store; any transaction born during a window
// necessarily observes the bit set (Grow's install sets it before the
// first window, the final publish clears it after the last) and takes
// the slow path below, which reads the guard before touching any
// bucket; and hashArr's version is bumped at both transitions, so a
// stale clear-bit read cannot validate. The slow path still consults
// the guard first — the migrator relinks chains with plain stores no
// TM's validation can see, so fence-plus-guard is the only thing
// keeping a chain walk off an active stripe (wtstm additionally writes
// in place).
//
// rehashing reports the slow path, telling mutators to advance the
// migration post-commit without re-reading table state; empty=true
// when the table has no array yet. Returns errWindowPrivate when k's
// old bucket is inside the active stripe; the caller parks on the
// publish gate and retries.
func (s *HashMap) routeTx(tx core.Txn, k int64) (reg int, rehashing, empty bool, err error) {
	arrW, err := tx.Read(s.head + hashArr)
	if err != nil || arrW == nilPtr {
		return 0, false, true, err
	}
	if arrW&hashRehashBit == 0 {
		arr, mask := unpackArr(arrW)
		return int(arr) + int(hashOf(k)&mask), false, false, nil
	}
	gf, err := tx.Read(s.head + hashGFlag)
	if err != nil {
		return 0, true, false, err
	}
	oldW, err := tx.Read(s.head + hashOldArr)
	if err != nil {
		return 0, true, false, err
	}
	old, oldMask := unpackArr(oldW)
	oldIdx := int64(hashOf(k) & oldMask)
	if gf&1 == 1 {
		lo, err := tx.Read(s.head + hashGLo)
		if err != nil {
			return 0, true, false, err
		}
		hi, err := tx.Read(s.head + hashGHi)
		if err != nil {
			return 0, true, false, err
		}
		if oldIdx >= lo && oldIdx < hi {
			return 0, true, false, errWindowPrivate
		}
	}
	cursor, err := tx.Read(s.head + hashCursor)
	if err != nil {
		return 0, true, false, err
	}
	if oldIdx < cursor {
		arr, mask := unpackArr(arrW)
		return int(arr) + int(hashOf(k)&mask), true, false, nil
	}
	return int(old) + int(oldIdx), true, false, nil
}

// GetTx is Get inside a caller-owned transaction. Unlike SkipMap's
// scans, hash reads DO consult the guard (via routeTx): a stripe being
// unzipped is written uninstrumented, which validation cannot catch.
func (s *HashMap) GetTx(tx core.Txn, k int64) (v int64, ok bool, err error) {
	reg, _, empty, err := s.routeTx(tx, k)
	if err != nil || empty {
		return 0, false, err
	}
	cur, err := tx.Read(reg)
	if err != nil {
		return 0, false, err
	}
	for cur != nilPtr {
		key, err := tx.Read(int(cur))
		if err != nil {
			return 0, false, err
		}
		if key == k {
			if v, err = tx.Read(int(cur) + 1); err != nil {
				return 0, false, err
			}
			return v, true, nil
		}
		if cur, err = tx.Read(int(cur) + 2); err != nil {
			return 0, false, err
		}
	}
	return 0, false, nil
}

// PutTx is Put inside a caller-owned transaction. Reports whether k
// was absent, plus the maintenance hint for the post-commit wrapper.
// The first Put installs the initial HashInitialBuckets-bucket array
// inside its own transaction (allocated and zeroed transactionally, so
// aborts leak nothing); doublings go through Grow's unreachable-then-
// install protocol instead, since zeroing a large array transactionally
// would dwarf every TM's comfortable write set.
func (s *HashMap) PutTx(tx core.Txn, th int, k, v int64) (added bool, hint HashHint, err error) {
	reg, rehashing, empty, err := s.routeTx(tx, k)
	if err != nil {
		return false, hint, err
	}
	hint.Rehashing = rehashing
	if empty {
		arr, err := s.alloc.New(tx, th, HashInitialBuckets)
		if err != nil {
			return false, hint, err
		}
		// Recycled blocks keep a stale free-list link in register 0;
		// zero every bucket explicitly.
		for i := 0; i < HashInitialBuckets; i++ {
			if err := tx.Write(int(arr)+i, nilPtr); err != nil {
				return false, hint, err
			}
		}
		if err := tx.Write(s.head+hashArr, packArr(arr, HashInitialBuckets)); err != nil {
			return false, hint, err
		}
		reg = int(arr) + int(hashOf(k)&uint64(HashInitialBuckets-1))
	}
	headPtr, err := tx.Read(reg)
	if err != nil {
		return false, hint, err
	}
	chain := 0
	for cur := headPtr; cur != nilPtr; {
		key, err := tx.Read(int(cur))
		if err != nil {
			return false, hint, err
		}
		if key == k {
			return false, hint, tx.Write(int(cur)+1, v) // update in place
		}
		chain++
		if cur, err = tx.Read(int(cur) + 2); err != nil {
			return false, hint, err
		}
	}
	node, err := s.alloc.New(tx, th, hashNodeRegs)
	if err != nil {
		return false, hint, err
	}
	if err := tx.Write(int(node), k); err != nil {
		return false, hint, err
	}
	if err := tx.Write(int(node)+1, v); err != nil {
		return false, hint, err
	}
	if err := tx.Write(int(node)+2, headPtr); err != nil {
		return false, hint, err
	}
	if err := tx.Write(reg, node); err != nil {
		return false, hint, err
	}
	hint.NeedGrow = chain+1 >= hashGrowChain
	return true, hint, nil
}

// DeleteTx is Delete inside a caller-owned transaction: it unlinks the
// node and returns it for the caller to free AFTER the transaction
// commits (the Fig. 7 cycle — the allocator rides the fence before the
// registers are reused). victimRegs is the block size to pass to
// Allocator.Free.
func (s *HashMap) DeleteTx(tx core.Txn, k int64) (removed bool, victim int64, victimRegs int, hint HashHint, err error) {
	reg, rehashing, empty, err := s.routeTx(tx, k)
	if err != nil || empty {
		return false, 0, 0, hint, err
	}
	hint.Rehashing = rehashing
	prevReg := reg
	cur, err := tx.Read(prevReg)
	if err != nil {
		return false, 0, 0, hint, err
	}
	for cur != nilPtr {
		key, err := tx.Read(int(cur))
		if err != nil {
			return false, 0, 0, hint, err
		}
		if key == k {
			next, err := tx.Read(int(cur) + 2)
			if err != nil {
				return false, 0, 0, hint, err
			}
			if err := tx.Write(prevReg, next); err != nil {
				return false, 0, 0, hint, err
			}
			return true, cur, hashNodeRegs, hint, nil
		}
		prevReg = int(cur) + 2
		if cur, err = tx.Read(prevReg); err != nil {
			return false, 0, 0, hint, err
		}
	}
	return false, 0, 0, hint, nil
}

// SnapshotTx returns the pairs (sorted by key, for stable comparison
// against ordered oracles) inside a caller-owned transaction. A
// whole-table read overlaps any active stripe, so it parks while the
// guard is odd.
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

// walkTx visits every pair, routing buckets by the migration cursor.
// Old bucket i's entries live in new buckets i and i+oldSize once the
// cursor has passed i, in old bucket i before that. Like routeTx it
// reads the guard only when hashArr's rehash bit is set (same safety
// argument: the fence quiesces this walk before any stripe unzips, and
// a walk born during a window sees the bit set).
func (s *HashMap) walkTx(tx core.Txn, fn func(k, v int64)) error {
	arrW, err := tx.Read(s.head + hashArr)
	if err != nil || arrW == nilPtr {
		return err
	}
	if arrW&hashRehashBit == 0 {
		arr, mask := unpackArr(arrW)
		for i := int64(0); i <= int64(mask); i++ {
			if err := s.walkChainTx(tx, int(arr)+int(i), fn); err != nil {
				return err
			}
		}
		return nil
	}
	gf, err := tx.Read(s.head + hashGFlag)
	if err != nil {
		return err
	}
	if gf&1 == 1 {
		return errWindowPrivate
	}
	oldW, err := tx.Read(s.head + hashOldArr)
	if err != nil {
		return err
	}
	arr, _ := unpackArr(arrW)
	old, oldMask := unpackArr(oldW)
	cursor, err := tx.Read(s.head + hashCursor)
	if err != nil {
		return err
	}
	oldSize := int64(oldMask) + 1
	for i := int64(0); i <= int64(oldMask); i++ {
		if i < cursor {
			if err := s.walkChainTx(tx, int(arr)+int(i), fn); err != nil {
				return err
			}
			if err := s.walkChainTx(tx, int(arr)+int(i+oldSize), fn); err != nil {
				return err
			}
		} else if err := s.walkChainTx(tx, int(old)+int(i), fn); err != nil {
			return err
		}
	}
	return nil
}

// walkChainTx visits one bucket chain.
func (s *HashMap) walkChainTx(tx core.Txn, reg int, fn func(k, v int64)) error {
	cur, err := tx.Read(reg)
	if err != nil {
		return err
	}
	for cur != nilPtr {
		key, err := tx.Read(int(cur))
		if err != nil {
			return err
		}
		val, err := tx.Read(int(cur) + 1)
		if err != nil {
			return err
		}
		fn(key, val)
		if cur, err = tx.Read(int(cur) + 2); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the value stored under k; ok reports presence. A get
// that hashes into the active migration stripe parks on the publish
// gate and retries.
func (s *HashMap) Get(th int, k int64) (v int64, ok bool, err error) {
	err = s.retryWindow(th, func(tx core.Txn) (err error) {
		v, ok, err = s.GetTx(tx, k)
		return err
	})
	return v, ok, err
}

// Put inserts or updates k↦v, reporting whether k was absent. After
// the commit the wrapper does the table's cooperative maintenance:
// doubling when the insert's chain hit the grow trigger, and advancing
// an in-progress rehash by one stripe window — so migration cost is
// spread across the writers that create the load.
func (s *HashMap) Put(th int, k, v int64) (bool, error) {
	var added bool
	var hint HashHint
	err := s.retryWindow(th, func(tx core.Txn) (err error) {
		added, hint, err = s.PutTx(tx, th, k, v)
		return err
	})
	if err != nil {
		return false, err
	}
	s.afterWrite(th, hint)
	return added, nil
}

// Delete removes k, reporting whether it was present; the unlinked
// node goes back to the allocator after the removing transaction
// commits. Deletes advance an in-progress rehash like Puts do.
func (s *HashMap) Delete(th int, k int64) (bool, error) {
	var removed bool
	var victim int64
	var victimRegs int
	var hint HashHint
	err := s.retryWindow(th, func(tx core.Txn) (err error) {
		removed, victim, victimRegs, hint, err = s.DeleteTx(tx, k)
		return err
	})
	if err != nil {
		return false, err
	}
	if removed {
		s.alloc.Free(th, victim, victimRegs)
	}
	s.afterWrite(th, hint)
	return removed, nil
}

// afterWrite is the cooperative maintenance step run after every
// committed mutation. Both halves are best-effort: a lost grow race or
// a stripe already held by another thread just means someone else is
// doing the work.
func (s *HashMap) afterWrite(th int, hint HashHint) {
	if hint.NeedGrow {
		if started, err := s.Grow(th); err == nil && started {
			hint.Rehashing = true
		}
	}
	if hint.Rehashing {
		s.MigrateWindow(th)
	}
}

// Snapshot returns the pairs sorted by key, read in one transaction
// (parked while a migration stripe is active).
func (s *HashMap) Snapshot(th int) ([]KV, error) {
	var out []KV
	err := s.retryWindow(th, func(tx core.Txn) (err error) {
		out, err = s.SnapshotTx(tx)
		return err
	})
	return out, err
}

// Len returns the pair count, read in one transaction.
func (s *HashMap) Len(th int) (int, error) {
	n := 0
	err := s.retryWindow(th, func(tx core.Txn) (err error) {
		n, err = s.LenTx(tx)
		return err
	})
	return n, err
}

// retryWindow runs body transactionally, waiting on the publish gate
// while it reports the migration stripe privatized.
func (s *HashMap) retryWindow(th int, body func(core.Txn) error) error {
	return s.gate.Retry(s.tm, th, errWindowPrivate, body)
}

// Grow doubles the table (or installs the initial array on an empty
// one), reporting whether it started anything: false when a rehash is
// already running, the table is at the allocator's block-size cap, or
// another thread's grow won the install race. The new array is
// allocated in one transaction, zeroed with uninstrumented stores
// while still unreachable (nothing can touch it: the allocator's own
// grace period has quiesced the block's prior life), then installed in
// a second transaction that re-validates the geometry it read — the
// unreachable-then-install shape that keeps the big zeroing pass out
// of every TM's write set. Ops route to the old array until migration
// windows (MigrateWindow) move their buckets.
func (s *HashMap) Grow(th int) (bool, error) {
	var curW int64
	err := core.Atomically(s.tm, th, func(tx core.Txn) error {
		var err error
		curW, err = tx.Read(s.head + hashArr)
		return err
	})
	if err != nil || curW&hashRehashBit != 0 {
		return false, err // a rehash is already running
	}
	if curW == nilPtr {
		// Empty table: install the initial array transactionally, like
		// the first Put does.
		installed := false
		err := core.Atomically(s.tm, th, func(tx core.Txn) error {
			installed = false
			arr, err := tx.Read(s.head + hashArr)
			if err != nil || arr != nilPtr {
				return err
			}
			if arr, err = s.alloc.New(tx, th, HashInitialBuckets); err != nil {
				return err
			}
			for i := 0; i < HashInitialBuckets; i++ {
				if err := tx.Write(int(arr)+i, nilPtr); err != nil {
					return err
				}
			}
			if err := tx.Write(s.head+hashArr, packArr(arr, HashInitialBuckets)); err != nil {
				return err
			}
			installed = true
			return nil
		})
		return installed, err
	}
	_, curMask := unpackArr(curW)
	newSize := int(curMask+1) * 2
	if newSize > s.maxBuckets {
		return false, nil // at capacity: chains lengthen gracefully
	}
	var arr int64
	err = core.Atomically(s.tm, th, func(tx core.Txn) error {
		var err error
		arr, err = s.alloc.New(tx, th, newSize)
		return err
	})
	if err != nil {
		return false, err
	}
	for i := 0; i < newSize; i++ {
		s.tm.Store(th, int(arr)+i, nilPtr)
	}
	installed := false
	err = core.Atomically(s.tm, th, func(tx core.Txn) error {
		installed = false
		a, err := tx.Read(s.head + hashArr)
		if err != nil {
			return err
		}
		if a != curW {
			// Another thread grew first: the packed word covers both the
			// geometry and the rehash bit, so one compare detects the race.
			return nil
		}
		if err := tx.Write(s.head+hashOldArr, curW); err != nil {
			return err
		}
		if err := tx.Write(s.head+hashArr, packArr(arr, newSize)|hashRehashBit); err != nil {
			return err
		}
		if err := tx.Write(s.head+hashCursor, 0); err != nil {
			return err
		}
		installed = true
		return nil
	})
	if err != nil || !installed {
		// The orphan array was never reachable and is already quiescent;
		// the extra grace period Free runs is harmless.
		s.alloc.Free(th, arr, newSize)
	}
	return installed, err
}

// MigrateWindow advances an in-progress rehash by one stripe — the
// paper's privatize→fence→operate→publish cycle applied to hashStripe
// old buckets. Reports whether the rehash still has work left (true
// also when another thread held the stripe — the work exists, someone
// else is doing it). When the last stripe publishes, the old array
// goes back to the allocator through the normal grace-period Free.
func (s *HashMap) MigrateWindow(th int) (more bool, err error) {
	var oldArr, arr, arrW, lo, hi int64
	var oldMask, mask uint64
	var busy, idle bool
	err = core.Atomically(s.tm, th, func(tx core.Txn) error {
		busy, idle = false, false
		gf, err := tx.Read(s.head + hashGFlag)
		if err != nil {
			return err
		}
		if gf&1 == 1 {
			busy = true
			return nil
		}
		oldW, err := tx.Read(s.head + hashOldArr)
		if err != nil {
			return err
		}
		if oldW == nilPtr {
			idle = true
			return nil
		}
		if arrW, err = tx.Read(s.head + hashArr); err != nil {
			return err
		}
		oldArr, oldMask = unpackArr(oldW)
		arr, mask = unpackArr(arrW)
		cursor, err := tx.Read(s.head + hashCursor)
		if err != nil {
			return err
		}
		lo = cursor
		hi = lo + hashStripe
		if hi > int64(oldMask)+1 {
			hi = int64(oldMask) + 1
		}
		if err := tx.Write(s.head+hashGFlag, gf+1); err != nil {
			return err
		}
		if err := tx.Write(s.head+hashGLo, lo); err != nil {
			return err
		}
		return tx.Write(s.head+hashGHi, hi)
	})
	if err != nil {
		return false, err
	}
	if idle {
		return false, nil
	}
	if busy {
		return true, nil
	}
	if sl := s.board.Slot(th); sl != nil {
		sl.Privatizations.Add(1)
		sl.RehashWindows.Add(1)
	}
	s.tm.Fence(th)
	// The fence quiesced every transaction that saw the guard even, and
	// ops that see it odd stall before touching a stripe bucket — old
	// bucket i and new buckets i, i+oldSize all route through old index
	// i — so the stripe's chains are private: unzip them with plain
	// uninstrumented loads and stores.
	tm := s.tm
	oldSize := int64(oldMask) + 1
	for oldIdx := lo; oldIdx < hi; oldIdx++ {
		loHead, hiHead := nilPtr, nilPtr
		cur := tm.Load(th, int(oldArr)+int(oldIdx))
		for cur != nilPtr {
			next := tm.Load(th, int(cur)+2)
			k := tm.Load(th, int(cur))
			if int64(hashOf(k)&mask) == oldIdx {
				tm.Store(th, int(cur)+2, loHead)
				loHead = cur
			} else {
				tm.Store(th, int(cur)+2, hiHead)
				hiHead = cur
			}
			cur = next
		}
		tm.Store(th, int(arr)+int(oldIdx), loHead)
		tm.Store(th, int(arr)+int(oldIdx+oldSize), hiHead)
		tm.Store(th, int(oldArr)+int(oldIdx), nilPtr)
	}
	finished := hi > int64(oldMask)
	err = core.Atomically(s.tm, th, func(tx core.Txn) error {
		gf, err := tx.Read(s.head + hashGFlag)
		if err != nil {
			return err
		}
		if err := tx.Write(s.head+hashGFlag, gf+1); err != nil {
			return err
		}
		if err := tx.Write(s.head+hashCursor, hi); err != nil {
			return err
		}
		if !finished {
			return nil
		}
		// Back to the steady state: clear the rehash bit (hashArr is
		// stable mid-rehash — Grow refuses while the bit is set — so the
		// word captured at privatization is current) and drop the old
		// array pointer.
		if err := tx.Write(s.head+hashArr, arrW&^hashRehashBit); err != nil {
			return err
		}
		return tx.Write(s.head+hashOldArr, nilPtr)
	})
	if err != nil {
		return true, err
	}
	s.gate.Open()
	if finished {
		s.alloc.Free(th, oldArr, int(oldSize))
		return false, nil
	}
	return true, nil
}

// DrainRehash drives MigrateWindow until no rehash work remains — for
// tests and quiesced phases that want the table settled on one array.
func (s *HashMap) DrainRehash(th int) error {
	for {
		more, err := s.MigrateWindow(th)
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
	}
}

// HashMap satisfies OrderedMap — Snapshot sorts — so property tests
// and differential harnesses drive it through the same interface as
// Map and SkipMap.
var _ OrderedMap = (*HashMap)(nil)

// HashSet is a thin set wrapper over HashMap: membership only, values
// pinned to zero.
type HashSet struct {
	m *HashMap
}

// HashSetDemand is the stmalloc demand profile of a HashSet holding up
// to `keys` members (identical to the map's — same nodes, same
// arrays).
func HashSetDemand(keys int) []stmalloc.ClassDemand { return HashMapDemand(keys) }

// NewHashSet returns a hash set whose head block occupies registers
// [head, head+HashHeadRegs) and whose storage comes from alloc.
func NewHashSet(tm core.TM, head int, alloc Allocator) *HashSet {
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

// Map exposes the underlying HashMap (rehash control, Tx-level ops).
func (s *HashSet) Map() *HashMap { return s.m }
