package tl2

import (
	"runtime"
	"sort"

	"safepriv/internal/core"
	"safepriv/internal/oaset"
	"safepriv/internal/vlock"
)

// spinYield backs off a spin loop.
func spinYield() { runtime.Gosched() }

// wentry is one write-set entry.
type wentry struct {
	x int
	v int64
}

// lockedStripe records one lock stripe acquired during commit together
// with the version the stripe carried before we locked it (needed on
// the abort path, and for validating reads of registers whose stripe we
// hold).
type lockedStripe struct {
	s   int
	old int64
}

// txn is a TL2 transaction (the per-transaction metadata of Figure 9:
// rset, wset, rver, wver). It is reused across a thread's transactions;
// the sets are insertion-ordered slices — write and read sets are small
// in practice, so linear scans beat maps and avoid per-transaction
// allocation entirely after warm-up.
type txn struct {
	tm     *TM
	thread int
	live   bool

	rver int64
	wver int64

	// Write-set (Figure 9's Map<Register,Value> wset), insertion order.
	wset []wentry
	// widx indexes wset by register once the write-set grows past
	// smallSet (long transactions would otherwise pay O(n²) lookups).
	// It is an open-addressing index with O(1) generation reset, so it
	// is allocated once per thread and reused, unlike the map it
	// replaced, which was reallocated by every long transaction.
	widx   oaset.Index
	useIdx bool
	// Read-set: registers read non-locally (Figure 9's rset). It may
	// contain duplicates — revalidating a register twice is harmless
	// and appending beats any dedup structure on real workloads.
	rset []int
	// locked is the list of stripes acquired during commit, in
	// acquisition order. Distinct write-set registers may share a
	// stripe (package stripe), so this list, not the write-set, is what
	// commit locks and unlocks.
	locked []lockedStripe
	// sidx indexes locked by stripe once the write-set grows past
	// smallSet, mirroring widx.
	sidx oaset.Index
}

// smallSet is the size up to which read/write sets use plain linear
// scans; beyond it an open-addressing index is engaged. Typical
// transactions stay small (zero allocation and no index bookkeeping);
// list traversals and other long transactions stay O(n).
const smallSet = 32

// wsetLookup returns the buffered value for x.
func (tx *txn) wsetLookup(x int) (int64, bool) {
	if tx.useIdx {
		if i, ok := tx.widx.Get(x); ok {
			return tx.wset[i].v, true
		}
		return 0, false
	}
	for i := range tx.wset {
		if tx.wset[i].x == x {
			return tx.wset[i].v, true
		}
	}
	return 0, false
}

// wsetPut inserts or updates the buffered value for x.
func (tx *txn) wsetPut(x int, v int64) {
	if tx.useIdx {
		if i, ok := tx.widx.Get(x); ok {
			tx.wset[i].v = v
			return
		}
		tx.wset = append(tx.wset, wentry{x, v})
		tx.widx.Put(x, len(tx.wset)-1)
		return
	}
	for i := range tx.wset {
		if tx.wset[i].x == x {
			tx.wset[i].v = v
			return
		}
	}
	tx.wset = append(tx.wset, wentry{x, v})
	if len(tx.wset) > smallSet {
		tx.widx.Reset()
		for i := range tx.wset {
			tx.widx.Put(tx.wset[i].x, i)
		}
		tx.useIdx = true
	}
}

// rsetAdd records a non-local read of x.
func (tx *txn) rsetAdd(x int) {
	tx.rset = append(tx.rset, x)
}

// reset clears the transaction for reuse.
func (tx *txn) reset() {
	tx.rver, tx.wver = 0, 0
	tx.wset = tx.wset[:0]
	tx.rset = tx.rset[:0]
	tx.locked = tx.locked[:0]
	tx.useIdx = false
	tx.tm.hasWrite[tx.thread].clear()
}

// finish ends the transaction: clear the active flag after the
// response has been recorded (the abort/commit handlers of Figure 9
// lines 57–63).
func (tx *txn) finish() {
	tx.live = false
	tx.tm.hasWrite[tx.thread].clear()
	tx.tm.fence.Exit(tx.thread)
}

// Read implements core.Txn (Figure 9 lines 14–24).
func (tx *txn) Read(x int) (int64, error) {
	tm := tx.tm
	if !tx.live {
		panic("tl2: Read on finished transaction")
	}
	// A transaction that has written nothing cannot hit its write set.
	if len(tx.wset) != 0 {
		if v, ok := tx.wsetLookup(x); ok {
			// Write-set hit: a local read.
			if s := tm.cfg.sink; s != nil {
				s.ReadOK(tx.thread, x, v)
			}
			return v, nil
		}
	}
	l := tm.table.LockFor(x)
	w1 := l.Raw()
	v := tm.table.Load(x)
	w2 := l.Raw()
	ts, locked := vlock.RawVersion(w2)
	if tm.cfg.bug == bugSkipReadValidation {
		locked, w1, ts = false, w2, 0 // injected bug: accept anything
	}
	if locked || w1 != w2 || tx.rver < ts {
		if s := tm.cfg.sink; s != nil {
			s.ReadAborted(tx.thread, x)
		}
		tx.finish()
		return 0, core.ErrAborted
	}
	tx.rsetAdd(x)
	if s := tm.cfg.sink; s != nil {
		s.ReadOK(tx.thread, x, v)
	}
	return v, nil
}

// Write implements core.Txn (Figure 9 lines 26–28): writes are buffered
// and never abort.
func (tx *txn) Write(x int, v int64) error {
	if !tx.live {
		panic("tl2: Write on finished transaction")
	}
	tx.wsetPut(x, v)
	tx.tm.hasWrite[tx.thread].set()
	if s := tx.tm.cfg.sink; s != nil {
		s.Write(tx.thread, x, v)
	}
	return nil
}

// stripeOldVer returns the pre-lock version of a stripe this
// transaction holds (s must be in tx.locked).
func (tx *txn) stripeOldVer(s int) int64 {
	if tx.useIdx {
		if j, ok := tx.sidx.Get(s); ok {
			return tx.locked[j].old
		}
		return 0
	}
	for j := range tx.locked {
		if tx.locked[j].s == s {
			return tx.locked[j].old
		}
	}
	return 0
}

// unlockAbort releases every stripe acquired so far, restoring pre-lock
// versions (the commit abort path).
func (tx *txn) unlockAbort() {
	tm := tx.tm
	for j := range tx.locked {
		tm.table.Lock(tx.locked[j].s).AbortUnlock(tx.locked[j].old)
	}
}

// Commit implements core.Txn (Figure 9 txcommit, lines 30–55), with
// the two departures from the figure that the package doc argues safe:
// an empty write set commits at once — no lock, no clock tick, no
// revalidation — and a writer whose exclusive tick drew rver+1 skips
// the revalidation (Figure 9 as printed ticks and revalidates always).
// Everything else — lock acquisition, the tick, write-back, version
// install and unlock, the handlers clearing the active flag last — is
// the figure.
func (tx *txn) Commit() error {
	tm := tx.tm
	if !tx.live {
		panic("tl2: Commit on finished transaction")
	}
	if s := tm.cfg.sink; s != nil {
		s.TxCommitReq(tx.thread)
	}
	if len(tx.wset) == 0 {
		// Every read was validated against rver when it was made, so
		// the read set is a consistent snapshot at rver and the
		// transaction serializes there; it owns no write timestamp.
		if s := tm.cfg.sink; s != nil {
			s.Committed(tx.thread, 0)
		}
		tx.finish()
		return nil
	}

	if tm.cfg.bug == BugNoCommitLocks {
		// Injected bug: unguarded write-back; version bumps are dropped
		// too, so readers cannot even detect the interleaving.
		tx.wver, _ = tm.clock.Tick()
		for i := range tx.wset {
			tm.table.Store(tx.wset[i].x, tx.wset[i].v)
		}
		if s := tm.cfg.sink; s != nil {
			s.Committed(tx.thread, tx.wver)
		}
		tx.finish()
		return nil
	}

	if tm.cfg.sortedLocks {
		// Sort by stripe first: locks are per stripe, so only stripe
		// order is a global acquisition order once registers alias
		// (Stripes < Regs). Register order breaks ties for determinism.
		sort.Slice(tx.wset, func(i, j int) bool {
			si, sj := tm.table.StripeOf(tx.wset[i].x), tm.table.StripeOf(tx.wset[j].x)
			if si != sj {
				return si < sj
			}
			return tx.wset[i].x < tx.wset[j].x
		})
		tx.useIdx = false // insertion-order index invalidated
	}

	// Acquire write locks (lines 31–39), deduplicated by stripe: with a
	// striped lock table distinct registers may share a lock, and the
	// versioned locks are not reentrant. Record prior versions for the
	// abort path.
	if tx.useIdx {
		tx.sidx.Reset()
	}
	for i := range tx.wset {
		s := tm.table.StripeOf(tx.wset[i].x)
		if tm.table.Lock(s).OwnedBy(tx.thread) {
			continue // an aliased write-set register already locked it
		}
		old, ok := tm.table.Lock(s).TryLockVersioned(tx.thread)
		if !ok {
			tx.unlockAbort()
			return tx.abortCommit()
		}
		tx.locked = append(tx.locked, lockedStripe{s, old})
		if tx.useIdx {
			tx.sidx.Put(s, len(tx.locked)-1)
		}
	}

	// Generate the write timestamp (line 40).
	var exclusive bool
	tx.wver, exclusive = tm.clock.Tick()
	if tm.cfg.debugInvariants {
		if tx.wver <= tx.rver {
			panic("tl2: INV.7(a) violated: wver <= rver")
		}
	}

	// Validate the read-set (lines 41–50): abort if a read register is
	// locked by another transaction or its version exceeds rver. The
	// paper keeps ver[x] readable while lock[x] is held; our combined
	// lock word hides it, so for stripes the transaction itself has
	// locked we validate the version captured at lock time. After an
	// exclusive tick to rver+1 the clock did not move since rver, and
	// there is nothing to revalidate (see the package doc).
	if tm.cfg.bug == BugSkipCommitValidation {
		tx.rset = tx.rset[:0] // injected bug: nothing to validate
	}
	if !exclusive || tx.wver != tx.rver+1 {
		for _, x := range tx.rset {
			ts, locked, owner := tm.table.LockFor(x).Sample()
			if locked && owner == tx.thread {
				locked = false
				ts = tx.stripeOldVer(tm.table.StripeOf(x))
			}
			if locked || tx.rver < ts {
				tx.unlockAbort()
				return tx.abortCommit()
			}
		}
	}

	// The commit is decided. Committed is recorded before the write-back
	// makes any value visible: an uninstrumented Load sees a register as
	// soon as it is stored, a transactional Read once its stripe
	// unlocks, and neither read's response may enter the history ahead
	// of the committed action it depends on.
	if s := tm.cfg.sink; s != nil {
		s.Committed(tx.thread, tx.wver)
	}

	// Write back and release (lines 51–54): reg[x] := v for every
	// write-set register, then ver := wver and unlock per stripe — the
	// last two are one store of the combined word.
	for i := range tx.wset {
		x, v := tx.wset[i].x, tx.wset[i].v
		if tm.cfg.debugInvariants {
			if _, locked, owner := tm.table.LockFor(x).Sample(); !locked || owner != tx.thread {
				panic("tl2: write-back without holding the lock")
			}
		}
		tm.table.Store(x, v)
	}
	for j := range tx.locked {
		if tm.cfg.debugInvariants && tx.locked[j].old >= tx.wver {
			panic("tl2: register version not monotonic")
		}
		tm.table.Lock(tx.locked[j].s).Unlock(tx.wver)
	}
	tx.finish()
	return nil
}

// abortCommit finishes an abort decided during txcommit.
func (tx *txn) abortCommit() error {
	if s := tx.tm.cfg.sink; s != nil {
		s.Aborted(tx.thread)
	}
	tx.finish()
	return core.ErrAborted
}

// Live implements core.Txn.
func (tx *txn) Live() bool { return tx.live }

// Abort implements core.Txn: a voluntary abort, modeled as an aborting
// commit (the paper's language has no explicit abort; see core.Txn).
func (tx *txn) Abort() {
	if !tx.live {
		panic("tl2: Abort on finished transaction")
	}
	if s := tx.tm.cfg.sink; s != nil {
		s.TxCommitReq(tx.thread)
		s.Aborted(tx.thread)
	}
	tx.finish()
}
