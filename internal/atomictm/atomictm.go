// Package atomictm implements the idealized atomic TM Hatomic of §2.4 of
// "Safe Privatization in Transactional Memory" (PPoPP 2018): the set of
// non-interleaved histories that have a completion in which every read
// is legal. Membership in Hatomic formalizes strong atomicity
// (transactional sequential consistency).
package atomictm

import (
	"fmt"

	"safepriv/internal/spec"
)

// isNonInterleaved reports whether the history is non-interleaved:
// actions of one transaction do not overlap with actions of another
// transaction or of non-transactional accesses. Fence actions belong to
// no node and may appear anywhere well-formedness allows.
func isNonInterleaved(a *spec.Analysis) error {
	for ti := range a.Txns {
		tx := &a.Txns[ti]
		lo, hi := tx.First(), tx.Last()
		for i := lo + 1; i < hi; i++ {
			n, ok := a.NodeOf(i)
			if !ok {
				continue // fence action
			}
			if !n.IsTxn() || n.TxnIndex != ti {
				return fmt.Errorf("atomictm: action %d (%s) interleaves with transaction %d spanning [%d,%d]",
					i, a.H[i], ti, lo, hi)
			}
		}
	}
	return nil
}

// Vis assigns visibility to transactions: committed transactions are
// always visible; aborted and live transactions never are; each
// commit-pending transaction is visible iff its completion commits it
// (history completions of §2.4).
type Vis []bool

// defaultVis returns the forced part of a visibility assignment:
// committed ⇒ true, aborted/live ⇒ false, commit-pending ⇒ the given
// pending value.
func defaultVis(a *spec.Analysis, pending bool) Vis {
	v := make(Vis, len(a.Txns))
	for i := range a.Txns {
		switch a.Txns[i].Status {
		case spec.TxnCommitted:
			v[i] = true
		case spec.TxnCommitPending:
			v[i] = pending
		default:
			v[i] = false
		}
	}
	return v
}

// checkLegal verifies that, under visibility assignment vis, every
// completed read response in the (non-interleaved) history returns the
// value of the last preceding write request that is not located in an
// invisible transaction different from the reader's own; if there is no
// such write, the read must return VInit (Definition B.7).
func checkLegal(a *spec.Analysis, vis Vis) error {
	for i, act := range a.H {
		if act.Kind != spec.KindRet {
			continue
		}
		ri := a.Match[i]
		if ri == -1 || a.H[ri].Kind != spec.KindRead {
			continue
		}
		x := a.H[ri].Reg
		myTxn := a.TxnOf[ri]
		want := spec.VInit
		for j := ri - 1; j >= 0; j-- {
			w := a.H[j]
			if w.Kind != spec.KindWrite || w.Reg != x {
				continue
			}
			wTxn := a.TxnOf[j]
			if wTxn != -1 && wTxn != myTxn && !vis[wTxn] {
				continue // write in an invisible transaction, skipped
			}
			want = w.Value
			break
		}
		if act.Value != want {
			return fmt.Errorf("atomictm: read of x%d at %d returned %d, legal value is %d",
				x, ri, act.Value, want)
		}
	}
	return nil
}

// Member reports whether h ∈ Hatomic. On success it returns the
// visibility assignment of a witnessing completion. It checks
// well-formedness, non-interleaving, and searches the completions of
// commit-pending transactions for one making every read legal.
func Member(h spec.History) (Vis, error) {
	a, err := spec.CheckWellFormed(h)
	if err != nil {
		return nil, err
	}
	return MemberAnalyzed(a)
}

// MemberAnalyzed is Member for a pre-analyzed history.
func MemberAnalyzed(a *spec.Analysis) (Vis, error) {
	if err := isNonInterleaved(a); err != nil {
		return nil, err
	}
	var pending []int
	for i := range a.Txns {
		if a.Txns[i].Status == spec.TxnCommitPending {
			pending = append(pending, i)
		}
	}
	vis := defaultVis(a, false)
	var firstErr error
	if try(a, vis, pending, &firstErr) {
		return vis, nil
	}
	return nil, fmt.Errorf("atomictm: no legal completion: %w", firstErr)
}

// try searches completions of the remaining commit-pending transactions
// depth-first. The search space is 2^|pending|, which is tiny in
// practice (commit-pending transactions are at most one per thread).
func try(a *spec.Analysis, vis Vis, pending []int, firstErr *error) bool {
	if len(pending) == 0 {
		err := checkLegal(a, vis)
		if err == nil {
			return true
		}
		if *firstErr == nil {
			*firstErr = err
		}
		return false
	}
	ti, rest := pending[0], pending[1:]
	for _, b := range [2]bool{true, false} {
		vis[ti] = b
		if try(a, vis, rest, firstErr) {
			return true
		}
	}
	vis[ti] = false
	return false
}
