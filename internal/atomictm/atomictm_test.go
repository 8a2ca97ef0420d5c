package atomictm

import (
	"testing"

	"safepriv/internal/spec"
)

// h0 is the paper's §2.4 example H0: commit-pending writer, live writer,
// and a non-transactional read returning the pending value. The paper
// states H0 ∈ Hatomic via the completion committing t1's transaction.
func h0() spec.History {
	b := spec.NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 1).TxCommit(1)
	b.TxBeginOK(2).Write(2, 0, 2)
	b.ReadRet(3, 0, 1)
	return b.History()
}

func TestH0IsMember(t *testing.T) {
	vis, err := Member(h0())
	if err != nil {
		t.Fatalf("H0 ∉ Hatomic: %v", err)
	}
	if !vis[0] {
		t.Error("witness must commit the commit-pending transaction (its write is read)")
	}
	if vis[1] {
		t.Error("live transaction marked visible")
	}
}

func TestNonInterleavedRejectsOverlap(t *testing.T) {
	// Transaction of t1 overlaps a read of t2 inserted mid-transaction.
	b := spec.NewBuilder()
	b.TxBeginOK(1)
	b.ReadRet(2, 0, spec.VInit) // interleaves
	b.Commit(1)
	a := b.MustAnalyze()
	if err := isNonInterleaved(a); err == nil {
		t.Fatal("interleaved history accepted as non-interleaved")
	}
}

func TestNonInterleavedAllowsSequential(t *testing.T) {
	b := spec.NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 1).Commit(1)
	b.ReadRet(2, 0, 1)
	b.TxBeginOK(2).ReadRet(2, 0, 1).Commit(2)
	a := b.MustAnalyze()
	if err := isNonInterleaved(a); err != nil {
		t.Fatalf("sequential history rejected: %v", err)
	}
}

func TestNonInterleavedAllowsFenceBetween(t *testing.T) {
	b := spec.NewBuilder()
	b.TxBeginOK(1).Commit(1)
	b.Fence(2)
	b.TxBeginOK(2).Commit(2)
	a := b.MustAnalyze()
	if err := isNonInterleaved(a); err != nil {
		t.Fatalf("fence between transactions rejected: %v", err)
	}
}

func TestLegalityReadFromCommitted(t *testing.T) {
	b := spec.NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 7).Commit(1)
	b.ReadRet(2, 0, 7)
	if _, err := Member(b.History()); err != nil {
		t.Fatalf("legal history rejected: %v", err)
	}
}

func TestLegalityRejectsWrongValue(t *testing.T) {
	b := spec.NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 7).Commit(1)
	b.ReadRet(2, 0, spec.VInit) // must read 7
	if _, err := Member(b.History()); err == nil {
		t.Fatal("stale read accepted")
	}
}

func TestLegalityIgnoresAbortedWrites(t *testing.T) {
	// A write inside an aborted transaction is invisible: the later read
	// must return the initial value.
	b := spec.NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 9).TxCommit(1).Aborted(1)
	b.ReadRet(2, 0, spec.VInit)
	if _, err := Member(b.History()); err != nil {
		t.Fatalf("read-from-initial after aborted writer rejected: %v", err)
	}
	// And reading the aborted value is illegal.
	b = spec.NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 9).TxCommit(1).Aborted(1)
	b.ReadRet(2, 0, 9)
	if _, err := Member(b.History()); err == nil {
		t.Fatal("read from aborted transaction accepted")
	}
}

func TestLegalityLocalRead(t *testing.T) {
	// A transaction reads its own earlier write even though it is live.
	b := spec.NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 3).ReadRet(1, 0, 3)
	if _, err := Member(b.History()); err != nil {
		t.Fatalf("local read rejected: %v", err)
	}
	// But another thread must not see the live transaction's write.
	b = spec.NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 3).Commit(1)
	b.TxBeginOK(2).WriteRet(2, 0, 4) // live
	b.ReadRet(3, 0, 4)
	if _, err := Member(b.History()); err == nil {
		t.Fatal("read from live transaction accepted")
	}
}

func TestCommitPendingBothWays(t *testing.T) {
	// A commit-pending transaction whose write is NOT observed can be
	// completed either way; Member must succeed.
	b := spec.NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 5).TxCommit(1)
	b.ReadRet(2, 0, spec.VInit) // sees it as aborted
	if vis, err := Member(b.History()); err != nil {
		t.Fatalf("rejected: %v", err)
	} else if vis[0] {
		t.Error("witness should abort the pending transaction")
	}
	// Conversely a read observing the value forces commit (H0 case,
	// covered above); a *pair* of reads observing both states must fail.
	b = spec.NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 5).TxCommit(1)
	b.ReadRet(2, 0, 5)
	b.ReadRet(3, 0, spec.VInit)
	if _, err := Member(b.History()); err == nil {
		t.Fatal("contradictory observations of a pending transaction accepted")
	}
}

func TestOverwriteOrderWithinHistory(t *testing.T) {
	// Later committed write shadows earlier one.
	b := spec.NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 1).Commit(1)
	b.TxBeginOK(2).WriteRet(2, 0, 2).Commit(2)
	b.ReadRet(3, 0, 2)
	if _, err := Member(b.History()); err != nil {
		t.Fatalf("rejected: %v", err)
	}
	b = spec.NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 1).Commit(1)
	b.TxBeginOK(2).WriteRet(2, 0, 2).Commit(2)
	b.ReadRet(3, 0, 1) // stale
	if _, err := Member(b.History()); err == nil {
		t.Fatal("stale read past a later committed write accepted")
	}
}

func TestAbortedShadowTransparent(t *testing.T) {
	// committed write, then aborted write, then read: reads the
	// committed value through the aborted shadow.
	b := spec.NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 1).Commit(1)
	b.TxBeginOK(2).WriteRet(2, 0, 2).TxCommit(2).Aborted(2)
	b.ReadRet(3, 0, 1)
	if _, err := Member(b.History()); err != nil {
		t.Fatalf("rejected: %v", err)
	}
}

func TestPrivatizeModifyPublish(t *testing.T) {
	// §2.2's motivating flow: transactional write, privatize (by
	// convention), non-transactional overwrite, publish, transactional
	// read of the non-transactional value.
	b := spec.NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 1).Commit(1)
	b.WriteRet(1, 0, 2) // non-transactional modification
	b.TxBeginOK(2).ReadRet(2, 0, 2).Commit(2)
	if _, err := Member(b.History()); err != nil {
		t.Fatalf("privatize-modify-publish flow rejected: %v", err)
	}
}

func TestComplete(t *testing.T) {
	h := h0()
	a, err := spec.CheckWellFormed(h)
	if err != nil {
		t.Fatal(err)
	}
	vis, err := MemberAnalyzed(a)
	if err != nil {
		t.Fatal(err)
	}
	hc := complete(a, vis)
	if len(hc) != len(h)+1 {
		t.Fatalf("completion added %d actions, want 1", len(hc)-len(h))
	}
	ac, err := spec.CheckWellFormed(hc)
	if err != nil {
		t.Fatalf("completion ill-formed: %v", err)
	}
	for _, tx := range ac.Txns {
		if tx.Status == spec.TxnCommitPending {
			t.Error("completion left a commit-pending transaction")
		}
	}
	// The completion itself must be legal under its committed statuses.
	if err := checkLegal(ac, defaultVis(ac, false)); err != nil {
		t.Errorf("completion not legal: %v", err)
	}
}

func TestEmptyHistoryIsMember(t *testing.T) {
	if _, err := Member(nil); err != nil {
		t.Fatalf("empty history rejected: %v", err)
	}
}

func TestMemberRejectsIllFormed(t *testing.T) {
	h := spec.History{{ID: 1, Thread: 1, Kind: spec.KindOK}}
	if _, err := Member(h); err == nil {
		t.Fatal("ill-formed history accepted")
	}
}

// complete materializes the completion of a non-interleaved history
// under vis: each commit-pending transaction gets a committed or aborted
// response appended immediately after its txcommit action. The result
// has no commit-pending transactions.
func complete(a *spec.Analysis, vis Vis) spec.History {
	var maxID spec.ActionID
	for _, act := range a.H {
		if act.ID > maxID {
			maxID = act.ID
		}
	}
	out := make(spec.History, 0, len(a.H)+len(a.Txns))
	for i, act := range a.H {
		out = append(out, act)
		ti := a.TxnOf[i]
		if ti == -1 || a.Txns[ti].Status != spec.TxnCommitPending || i != a.Txns[ti].Last() {
			continue
		}
		kind := spec.KindAborted
		if vis[ti] {
			kind = spec.KindCommitted
		}
		maxID++
		out = append(out, spec.Action{ID: maxID, Thread: act.Thread, Kind: kind})
	}
	return out
}
