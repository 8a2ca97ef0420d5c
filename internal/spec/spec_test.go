package spec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindClassification(t *testing.T) {
	tests := []struct {
		k        Kind
		req, rsp bool
	}{
		{KindTxBegin, true, false},
		{KindTxCommit, true, false},
		{KindWrite, true, false},
		{KindRead, true, false},
		{KindFBegin, true, false},
		{KindOK, false, true},
		{KindCommitted, false, true},
		{KindAborted, false, true},
		{KindRet, false, true},
		{KindFEnd, false, true},
		{kindPrim, false, false},
		{kindInvalid, false, false},
	}
	for _, tc := range tests {
		if got := tc.k.IsRequest(); got != tc.req {
			t.Errorf("%v.IsRequest() = %v, want %v", tc.k, got, tc.req)
		}
		if got := tc.k.isResponse(); got != tc.rsp {
			t.Errorf("%v.isResponse() = %v, want %v", tc.k, got, tc.rsp)
		}
		if got := tc.k.isTMInterface(); got != (tc.req || tc.rsp) {
			t.Errorf("%v.isTMInterface() = %v", tc.k, got)
		}
	}
}

func TestMatches(t *testing.T) {
	req := func(k Kind) Action { return Action{Thread: 1, Kind: k} }
	resp := func(k Kind) Action { return Action{Thread: 1, Kind: k} }
	tests := []struct {
		rq, rs Kind
		want   bool
	}{
		{KindTxBegin, KindOK, true},
		{KindTxBegin, KindAborted, true},
		{KindTxBegin, KindCommitted, false},
		{KindTxCommit, KindCommitted, true},
		{KindTxCommit, KindAborted, true},
		{KindTxCommit, KindOK, false},
		{KindRead, KindRet, true},
		{KindRead, KindAborted, true},
		{KindWrite, KindRet, true},
		{KindWrite, KindAborted, true},
		{KindFBegin, KindFEnd, true},
		{KindFBegin, KindAborted, false},
		{KindRead, KindFEnd, false},
	}
	for _, tc := range tests {
		if got := matches(req(tc.rq), resp(tc.rs)); got != tc.want {
			t.Errorf("matches(%v,%v) = %v, want %v", tc.rq, tc.rs, got, tc.want)
		}
	}
	// Different threads never match.
	if matches(Action{Thread: 1, Kind: KindRead}, Action{Thread: 2, Kind: KindRet}) {
		t.Error("cross-thread match accepted")
	}
}

func TestActionString(t *testing.T) {
	tests := []struct {
		a    Action
		want string
	}{
		{Action{ID: 1, Thread: 2, Kind: KindWrite, Reg: 3, Value: 7}, "(1,t2,write(x3,7))"},
		{Action{ID: 4, Thread: 1, Kind: KindRead, Reg: 0}, "(4,t1,read(x0))"},
		{Action{ID: 5, Thread: 1, Kind: KindRet, Value: 9}, "(5,t1,ret(9))"},
		{Action{ID: 6, Thread: 3, Kind: KindTxBegin}, "(6,t3,txbegin)"},
		{Action{ID: 7, Thread: 3, Kind: kindPrim, Prim: "l := 1"}, "(7,t3,l := 1)"},
	}
	for _, tc := range tests {
		if got := tc.a.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// TestAnalyzeH0 checks the decomposition of the paper's §2.4 example
// history H0: a committed-pending transaction by t1, a live transaction
// by t2, and a non-transactional read by t3.
func TestAnalyzeH0(t *testing.T) {
	b := NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 1).TxCommit(1)
	b.TxBeginOK(2).Write(2, 0, 2)
	b.ReadRet(3, 0, 1)
	a, err := CheckWellFormed(b.History())
	if err != nil {
		t.Fatalf("H0 rejected: %v", err)
	}
	if len(a.Txns) != 2 {
		t.Fatalf("got %d transactions, want 2", len(a.Txns))
	}
	if a.Txns[0].Status != TxnCommitPending {
		t.Errorf("T0 status = %v, want commit-pending", a.Txns[0].Status)
	}
	if a.Txns[1].Status != TxnLive {
		t.Errorf("T1 status = %v, want live", a.Txns[1].Status)
	}
	if len(a.NonTxn) != 1 || a.NonTxn[0].Thread != 3 {
		t.Fatalf("nontxn = %+v, want one access by t3", a.NonTxn)
	}
	if got := a.readsFrom(AccNode(0), 0); len(got) != 1 || got[0] != 1 {
		t.Errorf("t3 reads %v, want [1]", got)
	}
}

func TestAnalyzeTxnStatuses(t *testing.T) {
	b := NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 5).Commit(1)              // committed
	b.TxBeginOK(2).Read(2, 0).Aborted(2)                    // aborted at read
	b.TxBeginOK(3).WriteRet(3, 1, 6).TxCommit(3).Aborted(3) // aborted at commit
	b.TxBeginOK(1).ReadRet(1, 1, 6)                         // live
	a, err := CheckWellFormed(b.History())
	if err != nil {
		t.Fatal(err)
	}
	want := []TxnStatus{TxnCommitted, TxnAborted, TxnAborted, TxnLive}
	if len(a.Txns) != len(want) {
		t.Fatalf("got %d txns, want %d", len(a.Txns), len(want))
	}
	for i, w := range want {
		if a.Txns[i].Status != w {
			t.Errorf("txn %d status = %v, want %v", i, a.Txns[i].Status, w)
		}
	}
	// Sequential transactions by the same thread are distinct.
	if a.Txns[0].Thread != 1 || a.Txns[3].Thread != 1 {
		t.Error("thread attribution wrong")
	}
}

func TestWellFormedRejections(t *testing.T) {
	mk := func(f func(*Builder)) History {
		b := NewBuilder()
		f(b)
		return b.History()
	}
	tests := []struct {
		name    string
		h       History
		wantSub string
	}{
		{
			"nested txbegin",
			mk(func(b *Builder) { b.TxBeginOK(1).TxBegin(1) }),
			"nested txbegin",
		},
		{
			"response without request",
			History{{ID: 1, Thread: 1, Kind: KindOK}},
			"no outstanding request",
		},
		{
			"mismatched response",
			mk(func(b *Builder) { b.TxBegin(1).Committed(1) }),
			"does not match",
		},
		{
			"two outstanding requests",
			mk(func(b *Builder) { b.Read(1, 0).Read(1, 0) }),
			"outstanding",
		},
		{
			"fence inside transaction",
			mk(func(b *Builder) { b.TxBeginOK(1).FBegin(1) }),
			"fence inside",
		},
		{
			"txcommit outside transaction",
			mk(func(b *Builder) { b.TxCommit(1) }),
			"outside a transaction",
		},
		{
			"nontxn abort",
			mk(func(b *Builder) { b.Read(1, 0).Aborted(1) }),
			"aborted",
		},
		{
			"primitive action in history",
			History{{ID: 1, Thread: 1, Kind: kindPrim, Prim: "l:=1"}},
			"primitive",
		},
		{
			"duplicate ids",
			History{
				{ID: 1, Thread: 1, Kind: KindRead, Reg: 0},
				{ID: 1, Thread: 1, Kind: KindRet},
			},
			"duplicate action id",
		},
		{
			"duplicate write values",
			mk(func(b *Builder) { b.WriteRet(1, 0, 3).WriteRet(1, 1, 3) }),
			"same value",
		},
		{
			"write of initial value",
			mk(func(b *Builder) { b.WriteRet(1, 0, VInit) }),
			"initial value",
		},
		{
			"interleaved nontxn access",
			mk(func(b *Builder) { b.Read(1, 0).WriteRet(2, 0, 1).ret(1, 1) }),
			"interleaved",
		},
		{
			"transaction spans fence",
			mk(func(b *Builder) {
				b.TxBeginOK(1).FBegin(2).FEnd(2).Commit(1)
			}),
			"spans fence",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := CheckWellFormed(tc.h)
			if err == nil {
				t.Fatalf("accepted ill-formed history:\n%s", tc.h)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestFenceWaitsAccepted(t *testing.T) {
	// Transaction begun before fbegin but completed before fend: legal.
	b := NewBuilder()
	b.TxBeginOK(1)
	b.FBegin(2)
	b.Commit(1)
	b.FEnd(2)
	if _, err := CheckWellFormed(b.History()); err != nil {
		t.Fatalf("legal fence wait rejected: %v", err)
	}
	// Transaction begun after fbegin may still be live at fend (af case).
	b = NewBuilder()
	b.FBegin(2)
	b.TxBeginOK(1).Write(1, 0, 1)
	b.FEnd(2)
	if _, err := CheckWellFormed(b.History()); err != nil {
		t.Fatalf("af-related transaction rejected: %v", err)
	}
	// A pending fence imposes no constraint yet.
	b = NewBuilder()
	b.TxBeginOK(1)
	b.FBegin(2)
	if _, err := CheckWellFormed(b.History()); err != nil {
		t.Fatalf("pending fence rejected: %v", err)
	}
}

func TestProjections(t *testing.T) {
	b := NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 2, 10).Commit(1)
	b.ReadRet(2, 2, 10)
	b.Fence(2)
	h := b.History()
	if got := len(h.ByThread(1)); got != 6 {
		t.Errorf("|H|t1| = %d, want 6", got)
	}
	if got := len(h.ByThread(2)); got != 4 {
		t.Errorf("|H|t2| = %d, want 4", got)
	}
	ths := h.Threads()
	if len(ths) != 2 || ths[0] != 1 || ths[1] != 2 {
		t.Errorf("Threads() = %v", ths)
	}
	regs := h.Regs()
	if len(regs) != 1 || regs[0] != 2 {
		t.Errorf("Regs() = %v", regs)
	}
}

func TestTraceHistoryProjection(t *testing.T) {
	tr := Trace{
		{ID: 1, Thread: 1, Kind: kindPrim, Prim: "l := 0"},
		{ID: 2, Thread: 1, Kind: KindTxBegin},
		{ID: 3, Thread: 1, Kind: KindOK},
		{ID: 4, Thread: 1, Kind: kindPrim, Prim: "l := l+1"},
		{ID: 5, Thread: 1, Kind: KindTxCommit},
		{ID: 6, Thread: 1, Kind: KindCommitted},
	}
	h := tr.History()
	if len(h) != 4 {
		t.Fatalf("history length %d, want 4", len(h))
	}
	for _, a := range h {
		if a.Kind == kindPrim {
			t.Error("primitive action survived projection")
		}
	}
}

func TestTraceWellFormedCondition4(t *testing.T) {
	// Request immediately followed by a primitive action of the same
	// thread is forbidden (condition 4).
	tr := Trace{
		{ID: 1, Thread: 1, Kind: KindRead, Reg: 0},
		{ID: 2, Thread: 1, Kind: kindPrim, Prim: "l := 1"},
	}
	if _, err := checkWellFormedTrace(tr); err == nil {
		t.Fatal("condition 4 violation accepted")
	}
	// But a primitive action of a different thread may interleave only
	// if the access's atomicity (condition 7) is respected at the
	// history level; primitive actions do not appear in the history, so
	// this is fine.
	tr = Trace{
		{ID: 1, Thread: 1, Kind: KindRead, Reg: 0},
		{ID: 2, Thread: 2, Kind: kindPrim, Prim: "l := 1"},
		{ID: 3, Thread: 1, Kind: KindRet, Value: 0},
	}
	if _, err := checkWellFormedTrace(tr); err != nil {
		t.Fatalf("cross-thread primitive rejected: %v", err)
	}
}

func TestNodeHelpers(t *testing.T) {
	b := NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 1).WriteRet(1, 0, 2).ReadRet(1, 0, 2).Commit(1)
	b.WriteRet(2, 1, 3)
	a := b.MustAnalyze()
	tn := TxnNode(0)
	if v, ok := a.WriteAt(tn, 0); !ok || v != 2 {
		t.Errorf("WriteAt = %d,%v want 2,true", v, ok)
	}
	if _, ok := a.WriteAt(tn, 1); ok {
		t.Error("WriteAt reported write to untouched register")
	}
	// The read of x0 is local (preceded by the txn's own write):
	// readsFrom must not report it.
	if got := a.readsFrom(tn, 0); len(got) != 0 {
		t.Errorf("local read reported as non-local: %v", got)
	}
	an := AccNode(0)
	if v, ok := a.WriteAt(an, 1); !ok || v != 3 {
		t.Errorf("nontxn WriteAt = %d,%v", v, ok)
	}
	if a.nodeThread(tn) != 1 || a.nodeThread(an) != 2 {
		t.Error("nodeThread wrong")
	}
	if n, ok := a.NodeOf(0); !ok || !n.IsTxn() {
		t.Error("NodeOf(0) should be the transaction")
	}
	nodes := a.Nodes()
	if len(nodes) != 2 {
		t.Fatalf("Nodes() = %v", nodes)
	}
	if nodes[0].String() != "T0" || nodes[1].String() != "v0" {
		t.Errorf("node names: %v %v", nodes[0], nodes[1])
	}
}

func TestNodeOfFenceActions(t *testing.T) {
	b := NewBuilder()
	b.Fence(1)
	a := b.MustAnalyze()
	if _, ok := a.NodeOf(0); ok {
		t.Error("fbegin attributed to a node")
	}
	if _, ok := a.NodeOf(1); ok {
		t.Error("fend attributed to a node")
	}
	fs := a.Fences()
	if len(fs) != 1 || fs[0].Begin != 0 || fs[0].End != 1 {
		t.Errorf("Fences() = %+v", fs)
	}
}

// randomWellFormed generates a random well-formed history by simulating
// N threads taking TM steps; used as a property-test generator.
func randomWellFormed(r *rand.Rand, steps int) History {
	const nThreads = 3
	const nRegs = 3
	b := NewBuilder()
	type tstate struct {
		inTxn bool
		began int // history index of txbegin
	}
	st := make([]tstate, nThreads+1)
	nextVal := Value(1)
	// Track open transactions for fence legality: a fence may complete
	// only when no transaction that began before it is still open. To
	// keep generation simple we only emit complete fences when no
	// transaction is open at all.
	openCount := 0
	for i := 0; i < steps; i++ {
		t := ThreadID(r.Intn(nThreads) + 1)
		s := &st[t]
		x := Reg(r.Intn(nRegs))
		switch {
		case s.inTxn:
			switch r.Intn(5) {
			case 0:
				b.ReadRet(t, x, VInit) // value legality is not spec's concern
			case 1:
				b.WriteRet(t, x, nextVal)
				nextVal++
			case 2:
				b.Commit(t)
				s.inTxn = false
				openCount--
			case 3:
				b.Read(t, x).Aborted(t)
				s.inTxn = false
				openCount--
			case 4:
				b.TxCommit(t).Aborted(t)
				s.inTxn = false
				openCount--
			}
		default:
			switch r.Intn(4) {
			case 0:
				b.TxBeginOK(t)
				s.inTxn = true
				openCount++
			case 1:
				b.ReadRet(t, x, VInit)
			case 2:
				b.WriteRet(t, x, nextVal)
				nextVal++
			case 3:
				if openCount == 0 {
					b.Fence(t)
				} else {
					b.ReadRet(t, x, VInit)
				}
			}
		}
	}
	return b.History()
}

func TestRandomHistoriesWellFormed(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomWellFormed(r, 1+r.Intn(60))
		_, err := CheckWellFormed(h)
		if err != nil {
			t.Logf("seed %d: %v\n%s", seed, err, h)
		}
		return err == nil
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRandomHistoriesPrefixClosed(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 25; i++ {
		h := randomWellFormed(r, 40)
		if err := isPrefixClosedUnder(h); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

func TestBuilderIDsUnique(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 100; i++ {
		b.ReadRet(1, 0, VInit)
	}
	h := b.History()
	if err := checkUniqueIDs(h); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryStringContainsActions(t *testing.T) {
	b := NewBuilder()
	b.TxBeginOK(1).WriteRet(1, 0, 7).Commit(1)
	s := b.History().String()
	for _, want := range []string{"txbegin", "write(x0,7)", "committed"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestTxnStatusString(t *testing.T) {
	want := map[TxnStatus]string{
		TxnLive:          "live",
		TxnCommitPending: "commit-pending",
		TxnCommitted:     "committed",
		TxnAborted:       "aborted",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
	if !TxnCommitted.Completed() || !TxnAborted.Completed() || TxnLive.Completed() || TxnCommitPending.Completed() {
		t.Error("Completed() classification wrong")
	}
}

// isTMInterface reports whether the kind is a TM interface action
// (request or response), i.e. appears in histories.
func (k Kind) isTMInterface() bool { return k.IsRequest() || k.isResponse() }

// Trace is a finite sequence of actions, possibly including primitive
// actions. Every History is a Trace.
type Trace []Action

// History projects the trace to its TM interface actions (history(τ)).
func (tr Trace) History() History {
	h := make(History, 0, len(tr))
	for _, a := range tr {
		if a.Kind.isTMInterface() {
			h = append(h, a)
		}
	}
	return h
}

// ByThread projects the trace onto the actions of thread t (τ|t).
func (tr Trace) ByThread(t ThreadID) Trace {
	out := make(Trace, 0, len(tr))
	for _, a := range tr {
		if a.Thread == t {
			out = append(out, a)
		}
	}
	return out
}

// ByThread projects the history onto the actions of thread t (H|t).
func (h History) ByThread(t ThreadID) History {
	return History(Trace(h).ByThread(t))
}

// nodeThread returns the executing thread of node n.
func (a *Analysis) nodeThread(n Node) ThreadID {
	if n.IsTxn() {
		return a.Txns[n.TxnIndex].Thread
	}
	return a.NonTxn[n.AccIndex].Thread
}

// readsFrom reports whether node n contains a non-local read of x (for
// transactions: a read of x not preceded by the transaction's own write
// to x) that received a response, and returns the values read.
func (a *Analysis) readsFrom(n Node, x Reg) []Value {
	idx := a.ActionIndices(n)
	var out []Value
	wrote := false
	for _, i := range idx {
		act := a.H[i]
		switch {
		case act.Kind == KindWrite && act.Reg == x:
			wrote = true
		case act.Kind == KindRead && act.Reg == x && !wrote:
			if ri := a.Match[i]; ri != -1 && a.H[ri].Kind == KindRet {
				out = append(out, a.H[ri].Value)
			}
		}
	}
	return out
}

// checkWellFormedTrace verifies the trace-level conditions of
// Definition 2.1 in addition to the history-level ones: condition 4 (per
// thread, a request action is never immediately followed by a primitive
// action of the same thread). It returns the Analysis of the trace's
// history.
func checkWellFormedTrace(tr Trace) (*Analysis, error) {
	if err := checkUniqueIDs(History(tr)); err != nil {
		return nil, err
	}
	// Condition 4: in τ|t no request is immediately followed by a
	// primitive action.
	last := map[ThreadID]Action{}
	for i, act := range tr {
		if prev, ok := last[act.Thread]; ok {
			if prev.IsRequest() && act.Kind == kindPrim {
				return nil, fmt.Errorf("spec: action %d: primitive action immediately after request in thread %d", i, act.Thread)
			}
		}
		last[act.Thread] = act
	}
	return CheckWellFormed(tr.History())
}

// isPrefixClosedUnder reports whether every prefix of h (restricted to
// completed actions) also satisfies CheckWellFormed. It is used in tests
// to validate that recorded histories form a prefix-closed TM in the
// paper's sense. Fence condition 10 is only meaningful for completed
// fences, which checkFences already respects.
func isPrefixClosedUnder(h History) error {
	for i := 0; i <= len(h); i++ {
		if _, err := CheckWellFormed(h[:i]); err != nil {
			return fmt.Errorf("prefix of length %d: %w", i, err)
		}
	}
	return nil
}
