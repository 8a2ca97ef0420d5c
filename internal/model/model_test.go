package model

import (
	"testing"

	"safepriv/internal/spec"
)

func TestExprEval(t *testing.T) {
	env := map[string]Value{"a": 3, "b": 0}
	tests := []struct {
		e    Expr
		want Value
	}{
		{Const(7), 7},
		{Var("a"), 3},
		{Var("missing"), 0},
		{Eq{Var("a"), Const(3)}, 1},
		{Eq{Var("a"), Const(4)}, 0},
		{Ne{Var("a"), Const(4)}, 1},
		{not{Var("b")}, 1},
		{not{Var("a")}, 0},
		{and{Var("a"), Const(1)}, 1},
		{and{Var("b"), Const(1)}, 0},
		{Add{Var("a"), Const(4)}, 7},
	}
	for _, tc := range tests {
		if got := tc.e.Eval(env); got != tc.want {
			t.Errorf("%v = %d, want %d", tc.e, got, tc.want)
		}
	}
}

func TestDesugarWhileBounds(t *testing.T) {
	p := Program{Regs: 1, Threads: [][]Stmt{{
		While{Cond: Eq{Var("l"), Const(0)}, Body: []Stmt{Assign{"l", Var("l")}}, Bound: 3},
	}}}
	q := p.Desugar()
	// Desugared form contains no While.
	var scan func(ss []Stmt)
	scan = func(ss []Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case While:
				t.Fatal("While survived desugaring")
			case If:
				scan(s.Then)
				scan(s.Else)
			case Atomic:
				scan(s.Body)
			}
		}
	}
	scan(q.Threads[0])
}

func TestStuckOnExhaustedLoop(t *testing.T) {
	// A loop whose condition never clears marks the thread stuck.
	p := Program{Name: "spin", Regs: 1, Threads: [][]Stmt{{
		While{Cond: Eq{Const(1), Const(1)}, Body: nil, Bound: 4},
	}}}
	res, err := Explore(Config{Prog: p, Model: TL2Kind})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finals) != 1 || !res.Finals[0].Stuck[1] {
		t.Fatalf("finals = %+v", res.Finals)
	}
}

func TestCompileRejections(t *testing.T) {
	bad := []Program{
		{Regs: 1, Threads: [][]Stmt{{Read{Lv: "l", X: 5}}}},
		{Regs: 1, Threads: [][]Stmt{{Atomic{Lv: "l", Body: []Stmt{Atomic{Lv: "m"}}}}}},
		{Regs: 1, Threads: [][]Stmt{{Atomic{Lv: "l", Body: []Stmt{FenceStmt{}}}}}},
	}
	for i, p := range bad {
		if _, err := compile(p.Desugar()); err == nil {
			t.Errorf("program %d compiled despite error", i)
		}
	}
}

func TestSequentialProgramDeterministic(t *testing.T) {
	// One thread, no concurrency: exactly one final state.
	p := Program{Name: "seq", Regs: 2, Threads: [][]Stmt{{
		Write{X: 0, E: Const(5)},
		Read{Lv: "a", X: 0},
		Atomic{Lv: "l", Body: []Stmt{
			Read{Lv: "b", X: 0},
			Write{X: 1, E: Add{Var("b"), Const(1)}},
		}},
		Read{Lv: "c", X: 1},
	}}}
	res, err := Explore(Config{Prog: p, Model: TL2Kind})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finals) != 1 {
		t.Fatalf("got %d finals, want 1", len(res.Finals))
	}
	f := res.Finals[0]
	if f.Locals[1]["a"] != 5 || f.Locals[1]["b"] != 5 || f.Locals[1]["c"] != 6 {
		t.Fatalf("locals = %v", f.Locals[1])
	}
	if f.Locals[1]["l"] != ResCommitted {
		t.Fatal("solo transaction failed to commit")
	}
	if f.Regs[1] != 6 {
		t.Fatalf("regs = %v", f.Regs)
	}
}

func TestAtomicModelCommitAbortChoice(t *testing.T) {
	// Under the atomic model a transaction nondeterministically commits
	// or aborts; both outcomes must appear, with the abort rolling back.
	p := Program{Name: "choice", Regs: 1, Threads: [][]Stmt{{
		Atomic{Lv: "l", Body: []Stmt{Write{X: 0, E: Const(9)}}},
	}}}
	res, err := Explore(Config{Prog: p, Model: AtomicKind})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finals) != 2 {
		t.Fatalf("got %d finals, want 2", len(res.Finals))
	}
	var sawCommit, sawAbort bool
	for _, f := range res.Finals {
		switch f.Locals[1]["l"] {
		case ResCommitted:
			sawCommit = true
			if f.Regs[0] != 9 {
				t.Error("committed write lost")
			}
		case ResAborted:
			sawAbort = true
			if f.Regs[0] != 0 {
				t.Error("aborted write leaked")
			}
		}
	}
	if !sawCommit || !sawAbort {
		t.Fatalf("missing outcome: commit=%v abort=%v", sawCommit, sawAbort)
	}
}

func TestAtomicModelNoInterleaving(t *testing.T) {
	// Two transactions incrementing a register: under the atomic model
	// the lost-update outcome is unreachable (unless one aborts).
	inc := []Stmt{Atomic{Lv: "l", Body: []Stmt{
		Read{Lv: "v", X: 0},
		Write{X: 0, E: Add{Var("v"), Const(1)}},
	}}}
	p := Program{Name: "incr2", Regs: 1, Threads: [][]Stmt{inc, inc}}
	res, err := Explore(Config{Prog: p, Model: AtomicKind})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Finals {
		commits := 0
		for th := 1; th <= 2; th++ {
			if f.Locals[th]["l"] == ResCommitted {
				commits++
			}
		}
		if f.Regs[0] != Value(commits) {
			t.Fatalf("lost update under atomic model: commits=%d reg=%d", commits, f.Regs[0])
		}
	}
}

func TestTL2ModelNoLostUpdates(t *testing.T) {
	// TL2's validation prevents lost updates: if both transactions
	// commit, the register reflects both increments... with plain TL2
	// and no retry, a doomed increment aborts instead; either way
	// reg == number of commits.
	inc := []Stmt{Atomic{Lv: "l", Body: []Stmt{
		Read{Lv: "v", X: 0},
		Write{X: 0, E: Add{Var("v"), Const(1)}},
	}}}
	p := Program{Name: "incr2tl2", Regs: 1, Threads: [][]Stmt{inc, inc}}
	res, err := Explore(Config{Prog: p, Model: TL2Kind})
	if err != nil {
		t.Fatal(err)
	}
	if res.States == 0 || len(res.Finals) == 0 {
		t.Fatal("no exploration happened")
	}
	for _, f := range res.Finals {
		commits := 0
		for th := 1; th <= 2; th++ {
			if f.Locals[th]["l"] == ResCommitted {
				commits++
			}
		}
		if f.Regs[0] != Value(commits) {
			t.Fatalf("lost update under TL2: commits=%d reg=%d", commits, f.Regs[0])
		}
	}
}

func TestSampleHistoriesWellFormed(t *testing.T) {
	// Writes use thread-disjoint constants: the unique-writes
	// assumption must hold even for writes of later-aborted
	// transactions.
	body := func(v Value) []Stmt {
		return []Stmt{
			Atomic{Lv: "l", Body: []Stmt{
				Read{Lv: "v", X: 0},
				Write{X: 0, E: Const(v)},
			}},
			FenceStmt{},
			Read{Lv: "nv", X: 0},
		}
	}
	p := Program{Name: "sample", Regs: 1, Threads: [][]Stmt{body(101), body(202)}}
	for _, kind := range []TMKind{TL2Kind, AtomicKind} {
		runs, err := Sample(Config{Prog: p, Model: kind}, 50, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 50 {
			t.Fatalf("got %d runs", len(runs))
		}
		for i, r := range runs {
			if _, err := spec.CheckWellFormed(r.Hist); err != nil {
				t.Fatalf("kind %d run %d: %v\n%s", kind, i, err, r.Hist)
			}
		}
	}
}

func TestSampleDeterministicBySeed(t *testing.T) {
	p := Fig1aLike()
	a, err := Sample(Config{Prog: p, Model: TL2Kind}, 20, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sample(Config{Prog: p, Model: TL2Kind}, 20, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i].Hist) != len(b[i].Hist) {
			t.Fatal("sampling not deterministic for equal seeds")
		}
		for j := range a[i].Hist {
			if a[i].Hist[j] != b[i].Hist[j] {
				t.Fatal("sampling not deterministic for equal seeds")
			}
		}
	}
}

// Fig1aLike is a local copy of a small two-thread program for sampling
// tests (avoiding an import cycle with package litmus).
func Fig1aLike() Program {
	return Program{Name: "p", Regs: 2, Threads: [][]Stmt{
		{
			Atomic{Lv: "l", Body: []Stmt{Write{X: 0, E: Const(5)}}},
			FenceStmt{},
			Write{X: 1, E: Const(1)},
		},
		{
			Atomic{Lv: "l2", Body: []Stmt{
				Read{Lv: "f", X: 0},
				If{Cond: Eq{Var("f"), Const(0)}, Then: []Stmt{Write{X: 1, E: Const(42)}}},
			}},
		},
	}}
}

func TestExploreStateBudget(t *testing.T) {
	p := Fig1aLike()
	if _, err := Explore(Config{Prog: p, Model: TL2Kind, MaxStates: 3}); err == nil {
		t.Fatal("state budget not enforced")
	}
}

func TestFenceWaitBlocksInModel(t *testing.T) {
	// Thread 2 diverges inside a transaction; thread 1's fence must
	// never complete: every terminal state is a deadlock with thread 1
	// unfinished.
	p := Program{Name: "fencewait", Regs: 1, Threads: [][]Stmt{
		{FenceStmt{}, Assign{"after", Const(1)}},
		{Atomic{Lv: "l", Body: []Stmt{
			While{Cond: Eq{Const(1), Const(1)}, Body: nil, Bound: 2},
		}}},
	}}
	res, err := Explore(Config{Prog: p, Model: TL2Kind})
	if err != nil {
		t.Fatal(err)
	}
	// If the fence snapshots before the transaction begins, it passes
	// (af-related); if it snapshots the active transaction, it blocks
	// forever on the divergence — a deadlock terminal state. Both kinds
	// must be reachable.
	var sawPass, sawBlocked bool
	for _, f := range res.Finals {
		if f.Locals[1]["after"] == 1 {
			sawPass = true
		} else if f.Stuck[2] && !f.AllDone {
			sawBlocked = true
		}
	}
	if !sawPass {
		t.Fatal("fence never passed ahead of the transaction")
	}
	if !sawBlocked || res.Deadlocks == 0 {
		t.Fatal("fence never blocked on the diverged transaction")
	}
}

func TestWsetReadHit(t *testing.T) {
	// Read-after-write within a transaction returns the buffered value
	// without touching shared state (no abort possible).
	p := Program{Name: "wsethit", Regs: 1, Threads: [][]Stmt{{
		Atomic{Lv: "l", Body: []Stmt{
			Write{X: 0, E: Const(3)},
			Read{Lv: "v", X: 0},
			Write{X: 0, E: Const(4)},
			Read{Lv: "w", X: 0},
		}},
	}}}
	res, err := Explore(Config{Prog: p, Model: TL2Kind})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Finals[0]
	if f.Locals[1]["v"] != 3 || f.Locals[1]["w"] != 4 {
		t.Fatalf("locals = %v", f.Locals[1])
	}
	if f.Regs[0] != 4 {
		t.Fatalf("reg = %d", f.Regs[0])
	}
}
