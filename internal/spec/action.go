// Package spec implements the trace-based formal model of Khyzha, Attiya,
// Gotsman and Rinetzky, "Safe Privatization in Transactional Memory"
// (PPoPP 2018), Section 2: actions, histories, traces and their
// well-formedness conditions (Definition 2.1 / Appendix A.1).
//
// The model is the shared vocabulary of the repository: the TL2 runtime
// (internal/tl2) records spec.History values via internal/record, the
// happens-before and DRF machinery (internal/hb) is defined over them, and
// the strong-opacity checker (internal/opacity) consumes them.
package spec

import "fmt"

// ThreadID identifies a thread, 1-based as in the paper (t ∈ {1..N}).
type ThreadID int

// Reg identifies a shared register object x ∈ Reg managed by the TM.
type Reg int

// Value is the integer value domain of registers. VInit is the initial
// value of every register; the paper requires every write to write a
// unique value distinct from VInit.
type Value int64

// VInit is the initial value vinit of every register.
const VInit Value = 0

// Kind enumerates the TM interface action kinds of Figure 4 plus the
// primitive (thread-local) action kind.
type Kind uint8

// Action kinds. Request kinds come first, then responses, then the
// primitive (non-TM) kind.
const (
	// kindInvalid is the zero Kind; it never appears in a valid history.
	kindInvalid Kind = iota

	// KindTxBegin is the request (a,t,txbegin) generated on entering an
	// atomic block.
	KindTxBegin
	// KindTxCommit is the request (a,t,txcommit) generated when a
	// transaction tries to commit on exiting an atomic block.
	KindTxCommit
	// KindWrite is the request (a,t,write(x,v)).
	KindWrite
	// KindRead is the request (a,t,read(x)).
	KindRead
	// KindFBegin is the request (a,t,fbegin) starting a transactional
	// fence.
	KindFBegin

	// KindOK is the response (a,t,ok) matching txbegin.
	KindOK
	// KindCommitted is the response (a,t,committed) matching txcommit.
	KindCommitted
	// KindAborted is the response (a,t,aborted); it may answer any
	// transactional request.
	KindAborted
	// KindRet is the response (a,t,ret(v)) matching read (v is the value
	// read) or write (v is ignored; the paper writes ret(⊥)).
	KindRet
	// KindFEnd is the response (a,t,fend) matching fbegin.
	KindFEnd

	// kindPrim is a primitive action (a,t,c): a thread-local computation
	// step. Primitive actions appear in traces but not in histories.
	kindPrim
)

var kindNames = [...]string{
	kindInvalid:   "invalid",
	KindTxBegin:   "txbegin",
	KindTxCommit:  "txcommit",
	KindWrite:     "write",
	KindRead:      "read",
	KindFBegin:    "fbegin",
	KindOK:        "ok",
	KindCommitted: "committed",
	KindAborted:   "aborted",
	KindRet:       "ret",
	KindFEnd:      "fend",
	kindPrim:      "prim",
}

// String returns the paper's name for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsRequest reports whether the kind is a TM request action.
func (k Kind) IsRequest() bool {
	switch k {
	case KindTxBegin, KindTxCommit, KindWrite, KindRead, KindFBegin:
		return true
	}
	return false
}

// isResponse reports whether the kind is a TM response action.
func (k Kind) isResponse() bool {
	switch k {
	case KindOK, KindCommitted, KindAborted, KindRet, KindFEnd:
		return true
	}
	return false
}

// ActionID uniquely identifies an action within a trace (a ∈ ActionId).
type ActionID int64

// Action is a single computation step: either a TM interface action of
// Figure 4 or a primitive action. The zero Action is invalid.
type Action struct {
	// ID is the unique action identifier a.
	ID ActionID
	// Thread is the executing thread t.
	Thread ThreadID
	// Kind discriminates the action.
	Kind Kind
	// Reg is the register for KindRead and KindWrite requests.
	Reg Reg
	// Value is the value written (KindWrite) or returned (KindRet for a
	// read). For KindRet matching a write the paper returns ⊥; we keep
	// Value zero and interpret it via the matching request.
	Value Value
	// Prim is a human-readable description of a primitive command, used
	// only when Kind == kindPrim (e.g. "l := 1", "assume(l==2)").
	Prim string
}

// String renders the action in the paper's notation.
func (a Action) String() string {
	switch a.Kind {
	case KindWrite:
		return fmt.Sprintf("(%d,t%d,write(x%d,%d))", a.ID, a.Thread, a.Reg, a.Value)
	case KindRead:
		return fmt.Sprintf("(%d,t%d,read(x%d))", a.ID, a.Thread, a.Reg)
	case KindRet:
		return fmt.Sprintf("(%d,t%d,ret(%d))", a.ID, a.Thread, a.Value)
	case kindPrim:
		return fmt.Sprintf("(%d,t%d,%s)", a.ID, a.Thread, a.Prim)
	default:
		return fmt.Sprintf("(%d,t%d,%s)", a.ID, a.Thread, a.Kind)
	}
}

// IsRequest reports whether the action is a TM request.
func (a Action) IsRequest() bool { return a.Kind.IsRequest() }

// isResponse reports whether the action is a TM response.
func (a Action) isResponse() bool { return a.Kind.isResponse() }

// matches reports whether resp is a syntactically valid response to the
// request req per Figure 4 (same thread; kind pairing respected).
func matches(req, resp Action) bool {
	if req.Thread != resp.Thread || !req.IsRequest() || !resp.isResponse() {
		return false
	}
	switch req.Kind {
	case KindTxBegin:
		return resp.Kind == KindOK || resp.Kind == KindAborted
	case KindTxCommit:
		return resp.Kind == KindCommitted || resp.Kind == KindAborted
	case KindWrite, KindRead:
		return resp.Kind == KindRet || resp.Kind == KindAborted
	case KindFBegin:
		return resp.Kind == KindFEnd
	}
	return false
}
