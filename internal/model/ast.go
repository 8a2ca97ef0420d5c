// Package model is an exhaustive interleaving model checker for the
// paper's programming language (§2.1) over fine-grained TM models.
//
// Programs are parallel compositions of commands over thread-local
// variables and TM registers. Two TM models are provided:
//
//   - TL2: every shared-memory access of Figure 9 — version reads,
//     lock acquisitions, the clock tick, read-set validation, and the
//     per-register write-backs of the commit — is a separate atomic
//     micro-step, so the checker explores exactly the interleavings a
//     weakly atomic TL2 exposes, including the delayed-commit window
//     (privatizing writes landing between validation and write-back)
//     and doomed transactions reading uninstrumented writes.
//   - Atomic: the idealized strongly atomic TM Hatomic (§2.4) —
//     transactions execute without interleaving, with a
//     nondeterministic commit/abort choice at the commit point.
//
// Exploration is stateful DFS with memoization for checking safety
// properties over all reachable final states, plus a random-schedule
// sampler that records spec.History values for the observational
// refinement experiments.
package model

import "fmt"

// Value is the integer value domain (shared with the rest of the
// repository: registers start at 0 and writes must be unique non-zero
// for recorded histories to be checkable).
type Value = int64

// Results of atomic blocks, assigned to the block's local variable.
const (
	// ResCommitted is the `committed` constant.
	ResCommitted Value = -1
	// ResAborted is the `aborted` constant.
	ResAborted Value = -2
)

// Expr is an expression over thread-local variables and constants.
type Expr interface {
	// Eval evaluates the expression in a local environment.
	Eval(env map[string]Value) Value
	fmt.Stringer
}

// Const is an integer literal.
type Const Value

// Eval implements Expr.
func (c Const) Eval(map[string]Value) Value { return Value(c) }

// String implements fmt.Stringer.
func (c Const) String() string { return fmt.Sprintf("%d", Value(c)) }

// Var reads a local variable (unset variables read 0).
type Var string

// Eval implements Expr.
func (v Var) Eval(env map[string]Value) Value { return env[string(v)] }

// String implements fmt.Stringer.
func (v Var) String() string { return string(v) }

func b2v(b bool) Value {
	if b {
		return 1
	}
	return 0
}

// Eq compares for equality, yielding 1/0.
type Eq struct{ A, B Expr }

// Eval implements Expr.
func (e Eq) Eval(env map[string]Value) Value { return b2v(e.A.Eval(env) == e.B.Eval(env)) }

// String implements fmt.Stringer.
func (e Eq) String() string { return fmt.Sprintf("(%v == %v)", e.A, e.B) }

// Ne compares for inequality, yielding 1/0.
type Ne struct{ A, B Expr }

// Eval implements Expr.
func (e Ne) Eval(env map[string]Value) Value { return b2v(e.A.Eval(env) != e.B.Eval(env)) }

// String implements fmt.Stringer.
func (e Ne) String() string { return fmt.Sprintf("(%v != %v)", e.A, e.B) }

// not negates a boolean (nonzero = true).
type not struct{ E Expr }

// Eval implements Expr.
func (e not) Eval(env map[string]Value) Value { return b2v(e.E.Eval(env) == 0) }

// String implements fmt.Stringer.
func (e not) String() string { return fmt.Sprintf("!%v", e.E) }

// and is boolean conjunction.
type and struct{ A, B Expr }

// Eval implements Expr.
func (e and) Eval(env map[string]Value) Value {
	return b2v(e.A.Eval(env) != 0 && e.B.Eval(env) != 0)
}

// String implements fmt.Stringer.
func (e and) String() string { return fmt.Sprintf("(%v && %v)", e.A, e.B) }

// Add is integer addition.
type Add struct{ A, B Expr }

// Eval implements Expr.
func (e Add) Eval(env map[string]Value) Value { return e.A.Eval(env) + e.B.Eval(env) }

// String implements fmt.Stringer.
func (e Add) String() string { return fmt.Sprintf("(%v + %v)", e.A, e.B) }

// Stmt is a command of the paper's language.
type Stmt interface{ isStmt() }

// Assign is `l := e` (a primitive command).
type Assign struct {
	Lv string
	E  Expr
}

// Read is `l := x.read()`.
type Read struct {
	Lv string
	X  int
}

// Write is `x.write(e)`.
type Write struct {
	X int
	E Expr
}

// Atomic is `l := atomic { body }`; Lv receives ResCommitted or
// ResAborted.
type Atomic struct {
	Lv   string
	Body []Stmt
}

// FenceStmt is the transactional fence command.
type FenceStmt struct{}

// If is the conditional.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// While is `while (cond) do body`, bounded for model checking: after
// Bound iterations with cond still true, the executing thread is
// marked stuck (modelling divergence — the observable of the doomed
// transaction problem) and halts.
type While struct {
	Cond  Expr
	Body  []Stmt
	Bound int
}

// stuck marks the thread as diverged (internal; produced by While
// desugaring).
type stuck struct{}

// commitMarker ends an atomic block's body (internal).
type commitMarker struct{ lv string }

func (Assign) isStmt()       {}
func (Read) isStmt()         {}
func (Write) isStmt()        {}
func (Atomic) isStmt()       {}
func (FenceStmt) isStmt()    {}
func (If) isStmt()           {}
func (While) isStmt()        {}
func (stuck) isStmt()        {}
func (commitMarker) isStmt() {}

// Program is a parallel composition of threads. Thread ids are 1-based:
// Threads[0] is thread 1.
type Program struct {
	Name    string
	Regs    int
	Threads [][]Stmt
}

// desugarWhile unrolls a While into Bound nested Ifs ending in a stuck
// marker, so the interpreter needs no loop state.
func desugarWhile(w While) []Stmt {
	inner := []Stmt{stuck{}}
	for i := 0; i < w.Bound; i++ {
		body := make([]Stmt, 0, len(w.Body)+1)
		body = append(body, desugarAll(w.Body)...)
		body = append(body, If{Cond: w.Cond, Then: inner})
		inner = body
	}
	return []Stmt{If{Cond: w.Cond, Then: inner}}
}

// desugarAll desugars every While in a statement list.
func desugarAll(ss []Stmt) []Stmt {
	out := make([]Stmt, 0, len(ss))
	for _, s := range ss {
		switch s := s.(type) {
		case While:
			out = append(out, desugarWhile(s)...)
		case If:
			out = append(out, If{Cond: s.Cond, Then: desugarAll(s.Then), Else: desugarAll(s.Else)})
		case Atomic:
			out = append(out, Atomic{Lv: s.Lv, Body: desugarAll(s.Body)})
		default:
			out = append(out, s)
		}
	}
	return out
}

// Desugar returns the program with all loops bounded-unrolled.
func (p Program) Desugar() Program {
	q := Program{Name: p.Name, Regs: p.Regs, Threads: make([][]Stmt, len(p.Threads))}
	for i, th := range p.Threads {
		q.Threads[i] = desugarAll(th)
	}
	return q
}
