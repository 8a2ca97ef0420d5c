// Package vlock implements the versioned write-locks of TL2 (Figure 9
// of the paper: per-register ver[x] and lock[x]). As in mature TL2
// implementations, the version number and the lock bit share one atomic
// word, so a reader's "ts1 = ts2 ∧ ¬locked" validation is a pair of
// loads of a single word:
//
//	word = version << 1        (unlocked)
//	word = owner  << 1 | 1     (locked; owner is 1-based)
//
// The paper's lock[x] stores the owning transaction (Lock = ⊥ ⊎ Txn);
// the owner field here serves the same role: commit-time validation
// must not abort on registers the transaction itself has locked.
package vlock

import (
	"fmt"
	"sync/atomic"
)

// VLock is a versioned write-lock. The zero value is unlocked with
// version 0 (the initial version of every register).
type VLock struct {
	word atomic.Uint64
}

// Sample atomically reads the lock word, returning the version and
// whether the lock is held (and by whom). When locked, version is not
// meaningful and owner is the locker's 1-based thread id.
func (l *VLock) Sample() (version int64, locked bool, owner int) {
	w := l.word.Load()
	if w&1 != 0 {
		return 0, true, int(w >> 1)
	}
	return int64(w >> 1), false, 0
}

// OwnedBy reports whether the lock is currently held by owner
// (1-based). With a striped lock table this is the self-ownership test
// commit paths use to deduplicate acquisition: a transaction may meet
// the same lock twice through aliased registers.
func (l *VLock) OwnedBy(owner int) bool {
	w := l.word.Load()
	return w&1 != 0 && int(w>>1) == owner
}

// Raw returns the raw lock word for equality-based revalidation
// (ts1 == ts2 in Figure 9's read): two equal raw samples bracket a
// window with no writer activity on the register.
func (l *VLock) Raw() uint64 { return l.word.Load() }

// RawVersion decodes a raw word: version, locked.
func RawVersion(w uint64) (int64, bool) { return int64(w >> 1), w&1 != 0 }

// Unlock releases the lock, installing the given new version (commit
// write-back: ver[x] := wver[T]; lock[x].unlock()).
func (l *VLock) Unlock(version int64) {
	if l.word.Load()&1 == 0 {
		panic("vlock: Unlock of unlocked lock")
	}
	l.word.Store(uint64(version) << 1)
}

// lockedVersions remembers pre-lock versions so an aborting owner can
// restore them; TL2 stores versions outside the lock word, but with a
// combined word the aborting unlocker must reinstall the old version.
// To keep the lock a single word, TryLockVersioned returns the version
// observed at acquisition for the caller to pass back to AbortUnlock.

// TryLockVersioned attempts to acquire the lock for owner (1-based) and
// returns the version the register had, which AbortUnlock reinstates on
// the abort path. It fails if the lock is held by anyone, including the
// owner itself (TL2 never locks a register twice: write-sets are
// deduplicated).
func (l *VLock) TryLockVersioned(owner int) (int64, bool) {
	w := l.word.Load()
	if w&1 != 0 {
		return 0, false
	}
	if l.word.CompareAndSwap(w, uint64(owner)<<1|1) {
		return int64(w >> 1), true
	}
	return 0, false
}

// AbortUnlock releases the lock without changing the register's
// version (the version observed at TryLockVersioned).
func (l *VLock) AbortUnlock(oldVersion int64) {
	l.Unlock(oldVersion)
}

// String renders the lock state for diagnostics.
func (l *VLock) String() string {
	v, locked, owner := l.Sample()
	if locked {
		return fmt.Sprintf("locked(owner=%d)", owner)
	}
	return fmt.Sprintf("v%d", v)
}
