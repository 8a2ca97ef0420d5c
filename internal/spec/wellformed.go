package spec

import "fmt"

// CheckWellFormed verifies the well-formedness conditions of
// Definition 2.1 (Appendix A.1) that apply to histories:
//
//  1. unique action identifiers;
//  3. unique write values, distinct from VInit;
//  5. request/response matching per thread;
//  6. txbegin / committed / aborted matching per thread;
//  7. non-transactional accesses execute atomically (a non-transactional
//     request is immediately followed by its response);
//  8. non-transactional accesses never abort;
//  9. fence actions do not occur inside transactions;
//  10. a fence blocks until all transactions active at its fbegin
//     complete before its fend (no transaction spans a fence).
//
// Conditions 2 and 4 concern primitive actions, which appear in traces
// but never in histories.
//
// On success it returns the structural Analysis of the history.
func CheckWellFormed(h History) (*Analysis, error) {
	a, err := analyze(h)
	if err != nil {
		return nil, err
	}
	if err := checkUniqueIDs(h); err != nil {
		return nil, err
	}
	if err := checkUniqueWrites(h); err != nil {
		return nil, err
	}
	if err := checkNonTxnAtomic(a); err != nil {
		return nil, err
	}
	if err := checkFences(a); err != nil {
		return nil, err
	}
	return a, nil
}

func checkUniqueIDs(h History) error {
	seen := make(map[ActionID]int, len(h))
	for i, act := range h {
		if j, dup := seen[act.ID]; dup {
			return fmt.Errorf("spec: duplicate action id %d at positions %d and %d", act.ID, j, i)
		}
		seen[act.ID] = i
	}
	return nil
}

func checkUniqueWrites(h History) error {
	seen := make(map[Value]int)
	for i, act := range h {
		if act.Kind != KindWrite {
			continue
		}
		if act.Value == VInit {
			return fmt.Errorf("spec: action %d writes the initial value %d", i, VInit)
		}
		if j, dup := seen[act.Value]; dup {
			return fmt.Errorf("spec: actions %d and %d write the same value %d", j, i, act.Value)
		}
		seen[act.Value] = i
	}
	return nil
}

// checkNonTxnAtomic enforces condition 7: every non-transactional
// request is immediately followed (in the whole history) by its matching
// response, except possibly a trailing pending request.
func checkNonTxnAtomic(a *Analysis) error {
	for i, acc := range a.NonTxn {
		if acc.Resp == -1 {
			if acc.Req != len(a.H)-1 {
				return fmt.Errorf("spec: non-transactional access %d (action %d) has no response", i, acc.Req)
			}
			continue
		}
		if acc.Resp != acc.Req+1 {
			return fmt.Errorf("spec: non-transactional access %d interleaved: request at %d, response at %d", i, acc.Req, acc.Resp)
		}
	}
	return nil
}

// fenceSpan is a matched fbegin/fend pair (or a pending fbegin with
// End == -1).
type fenceSpan struct {
	Thread     ThreadID
	Begin, End int
}

// Fences returns the fence spans of the analyzed history in order of
// fbegin.
func (a *Analysis) Fences() []fenceSpan {
	var out []fenceSpan
	for i, act := range a.H {
		if act.Kind == KindFBegin {
			out = append(out, fenceSpan{Thread: act.Thread, Begin: i, End: a.Match[i]})
		}
	}
	return out
}

// checkFences enforces condition 10: for every completed fence
// [fb, fe] and every transaction whose txbegin precedes fb, the
// transaction has a committed or aborted action before fe.
func checkFences(a *Analysis) error {
	for _, f := range a.Fences() {
		if f.End == -1 {
			continue // fence still blocked; nothing to check yet
		}
		for ti := range a.Txns {
			tx := &a.Txns[ti]
			if tx.First() >= f.Begin {
				continue // began after the fence began: af-related
			}
			// The transaction began before the fence; it must complete
			// before the fence ends.
			if !tx.Status.Completed() || tx.Last() >= f.End {
				return fmt.Errorf("spec: transaction %d (thread %d, begun at %d) spans fence [%d,%d] by thread %d",
					ti, tx.Thread, tx.First(), f.Begin, f.End, f.Thread)
			}
		}
	}
	return nil
}
