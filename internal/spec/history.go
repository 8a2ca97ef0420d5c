package spec

import (
	"fmt"
	"strings"
)

// History is a trace containing only TM interface actions (§2.2). The
// paper conflates a TM with its prefix-closed set of histories; here a
// History value is one element of such a set.
type History []Action

// Threads returns the sorted set of thread IDs appearing in the history.
func (h History) Threads() []ThreadID {
	seen := map[ThreadID]bool{}
	var out []ThreadID
	for _, a := range h {
		if !seen[a.Thread] {
			seen[a.Thread] = true
			out = append(out, a.Thread)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Regs returns the sorted set of registers accessed in the history.
func (h History) Regs() []Reg {
	seen := map[Reg]bool{}
	var out []Reg
	for _, a := range h {
		if a.Kind == KindRead || a.Kind == KindWrite {
			if !seen[a.Reg] {
				seen[a.Reg] = true
				out = append(out, a.Reg)
			}
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// String renders the history one action per line.
func (h History) String() string {
	var b strings.Builder
	for i, a := range h {
		fmt.Fprintf(&b, "%3d: %s\n", i, a.String())
	}
	return b.String()
}

// TxnStatus classifies a transaction (§2.2).
type TxnStatus uint8

// Transaction statuses.
const (
	// TxnLive is a transaction that is neither commit-pending nor
	// complete.
	TxnLive TxnStatus = iota
	// TxnCommitPending ends with a txcommit request awaiting a response.
	TxnCommitPending
	// TxnCommitted ends with a committed response.
	TxnCommitted
	// TxnAborted ends with an aborted response.
	TxnAborted
)

// String returns the paper's name for the status.
func (s TxnStatus) String() string {
	switch s {
	case TxnLive:
		return "live"
	case TxnCommitPending:
		return "commit-pending"
	case TxnCommitted:
		return "committed"
	case TxnAborted:
		return "aborted"
	}
	return fmt.Sprintf("TxnStatus(%d)", uint8(s))
}

// Completed reports whether the status is committed or aborted.
func (s TxnStatus) Completed() bool { return s == TxnCommitted || s == TxnAborted }

// Txn is a transaction in a history: a maximal subsequence of actions by
// one thread beginning with txbegin whose only terminal action can be
// committed/aborted (§2.2, txns(τ)).
type Txn struct {
	// Thread is the executing thread.
	Thread ThreadID
	// Indices are the positions in the analyzed history of the
	// transaction's actions, in execution order.
	Indices []int
	// Status classifies the transaction.
	Status TxnStatus
}

// First returns the index of the transaction's txbegin action.
func (t *Txn) First() int { return t.Indices[0] }

// Last returns the index of the transaction's final action so far.
func (t *Txn) Last() int { return t.Indices[len(t.Indices)-1] }

// NonTxnAccess is a matching non-transactional request/response pair
// (ν ∈ nontxn(τ)): a read or write executed outside any transaction.
type NonTxnAccess struct {
	// Thread is the executing thread.
	Thread ThreadID
	// Req and Resp are the history indices of the request and its
	// matching response. Resp is -1 if the response is still pending
	// (possible only at the very end of a history).
	Req, Resp int
}

// Node identifies an opacity-graph node: either a transaction or a
// non-transactional access of an analyzed history. Exactly one of the
// index fields is >= 0.
type Node struct {
	// TxnIndex indexes Analysis.Txns, or -1.
	TxnIndex int
	// AccIndex indexes Analysis.NonTxn, or -1.
	AccIndex int
}

// IsTxn reports whether the node is a transaction node.
func (n Node) IsTxn() bool { return n.TxnIndex >= 0 }

// TxnNode returns the node for transaction i.
func TxnNode(i int) Node { return Node{TxnIndex: i, AccIndex: -1} }

// AccNode returns the node for non-transactional access i.
func AccNode(i int) Node { return Node{TxnIndex: -1, AccIndex: i} }

// String renders the node for diagnostics.
func (n Node) String() string {
	if n.IsTxn() {
		return fmt.Sprintf("T%d", n.TxnIndex)
	}
	return fmt.Sprintf("v%d", n.AccIndex)
}

// Analysis is the per-history structural decomposition used throughout
// the repository: transactions, non-transactional accesses, and the
// request/response matching.
type Analysis struct {
	// H is the analyzed history.
	H History
	// Txns is txns(H) in order of txbegin.
	Txns []Txn
	// NonTxn is nontxn(H) in order of request.
	NonTxn []NonTxnAccess
	// TxnOf[i] is the index into Txns of the transaction containing
	// action i, or -1 for non-transactional actions.
	TxnOf []int
	// AccOf[i] is the index into NonTxn of the access containing action
	// i, or -1.
	AccOf []int
	// Match[i] is the index of the response matching request i or the
	// request matching response i, or -1 if unmatched (pending).
	Match []int
}

// analyze decomposes the history into transactions and non-transactional
// accesses. It assumes (and does not fully re-check) well-formedness;
// use CheckWellFormed first for untrusted input.
func analyze(h History) (*Analysis, error) {
	a := &Analysis{
		H:     h,
		TxnOf: make([]int, len(h)),
		AccOf: make([]int, len(h)),
		Match: make([]int, len(h)),
	}
	for i := range h {
		a.TxnOf[i] = -1
		a.AccOf[i] = -1
		a.Match[i] = -1
	}
	// curTxn[t] is the index of t's open transaction, or -1.
	curTxn := map[ThreadID]int{}
	// pendingReq[t] is the index of t's outstanding request, or -1.
	pendingReq := map[ThreadID]int{}
	for i, act := range h {
		t := act.Thread
		if _, ok := curTxn[t]; !ok {
			curTxn[t] = -1
			pendingReq[t] = -1
		}
		switch {
		case act.IsRequest():
			if pendingReq[t] != -1 {
				return nil, fmt.Errorf("spec: action %d: thread %d issues request with request %d outstanding", i, t, pendingReq[t])
			}
			pendingReq[t] = i
			if act.Kind == KindTxBegin {
				if curTxn[t] != -1 {
					return nil, fmt.Errorf("spec: action %d: nested txbegin by thread %d", i, t)
				}
				a.Txns = append(a.Txns, Txn{Thread: t, Status: TxnLive})
				curTxn[t] = len(a.Txns) - 1
			}
			if ti := curTxn[t]; ti != -1 {
				if act.Kind == KindFBegin {
					return nil, fmt.Errorf("spec: action %d: fence inside a transaction by thread %d", i, t)
				}
				a.TxnOf[i] = ti
				tx := &a.Txns[ti]
				tx.Indices = append(tx.Indices, i)
				if act.Kind == KindTxCommit {
					tx.Status = TxnCommitPending
				}
			} else {
				switch act.Kind {
				case KindRead, KindWrite:
					a.NonTxn = append(a.NonTxn, NonTxnAccess{Thread: t, Req: i, Resp: -1})
					a.AccOf[i] = len(a.NonTxn) - 1
				case KindFBegin, KindTxBegin:
					// txbegin opened a transaction above; fbegin belongs
					// to neither a transaction nor an access.
				default:
					return nil, fmt.Errorf("spec: action %d: %s outside a transaction", i, act.Kind)
				}
			}
		case act.isResponse():
			ri := pendingReq[t]
			if ri == -1 {
				return nil, fmt.Errorf("spec: action %d: response %s by thread %d with no outstanding request", i, act.Kind, t)
			}
			if !matches(h[ri], act) {
				return nil, fmt.Errorf("spec: action %d: response %s does not match request %s", i, act.Kind, h[ri].Kind)
			}
			a.Match[ri] = i
			a.Match[i] = ri
			pendingReq[t] = -1
			if ti := curTxn[t]; ti != -1 {
				a.TxnOf[i] = ti
				tx := &a.Txns[ti]
				tx.Indices = append(tx.Indices, i)
				switch act.Kind {
				case KindCommitted:
					tx.Status = TxnCommitted
					curTxn[t] = -1
				case KindAborted:
					tx.Status = TxnAborted
					curTxn[t] = -1
				}
			} else {
				if act.Kind == KindFEnd {
					break
				}
				ai := a.AccOf[ri]
				if ai == -1 {
					return nil, fmt.Errorf("spec: action %d: response outside transaction to transactional request", i)
				}
				if act.Kind == KindAborted {
					return nil, fmt.Errorf("spec: action %d: non-transactional access aborted", i)
				}
				a.NonTxn[ai].Resp = i
				a.AccOf[i] = ai
			}
		case act.Kind == kindPrim:
			return nil, fmt.Errorf("spec: action %d: primitive action in history", i)
		default:
			return nil, fmt.Errorf("spec: action %d: invalid kind", i)
		}
	}
	return a, nil
}

// NodeOf returns the graph node containing action index i, or ok=false
// for actions belonging to neither (fence actions).
func (a *Analysis) NodeOf(i int) (Node, bool) {
	if ti := a.TxnOf[i]; ti != -1 {
		return TxnNode(ti), true
	}
	if ai := a.AccOf[i]; ai != -1 {
		return AccNode(ai), true
	}
	return Node{TxnIndex: -1, AccIndex: -1}, false
}

// Nodes returns all graph nodes: every transaction and every
// non-transactional access, transactions first.
func (a *Analysis) Nodes() []Node {
	out := make([]Node, 0, len(a.Txns)+len(a.NonTxn))
	for i := range a.Txns {
		out = append(out, TxnNode(i))
	}
	for i := range a.NonTxn {
		out = append(out, AccNode(i))
	}
	return out
}

// ActionIndices returns the history indices of the actions of node n in
// execution order.
func (a *Analysis) ActionIndices(n Node) []int {
	if n.IsTxn() {
		return a.Txns[n.TxnIndex].Indices
	}
	acc := a.NonTxn[n.AccIndex]
	if acc.Resp == -1 {
		return []int{acc.Req}
	}
	return []int{acc.Req, acc.Resp}
}

// WriteAt reports whether the node writes to x, and if so returns the
// value of its last write request to x.
func (a *Analysis) WriteAt(n Node, x Reg) (Value, bool) {
	idx := a.ActionIndices(n)
	var v Value
	found := false
	for _, i := range idx {
		act := a.H[i]
		if act.Kind == KindWrite && act.Reg == x {
			v = act.Value
			found = true
		}
	}
	return v, found
}
