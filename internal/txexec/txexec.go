// Package txexec is a test harness, and only its own tests use it: it
// executes programs of the paper's language (package model) on
// *runtime* TMs (core.TM) under a deterministic cooperative scheduler,
// for cross-TM differential testing: the same program with the same
// schedule seed must produce the same final registers and the same
// committed thread-local environments on every correct TM in the
// registry, with the serial execution on the global-lock baseline as
// the oracle.
//
// Everything runs on one goroutine. The scheduler interleaves threads
// at the granularity of top-level items (atomic blocks, fences,
// non-transactional accesses), and — when options.Windows is set —
// opens bounded conflict windows between pairs of atomic blocks: the
// "front" block begins and executes its first TM operation, a "back"
// block from another thread then runs to commit inside the front's
// execution window, and the front finishes (retrying serially from
// scratch if the TM aborts it). The window's serialization order is
// pinned to back-before-front, so the oracle for a windowed schedule is
// simply the serial schedule that runs the back block first:
//
//   - if the front conflicts with the back, a correct TM aborts the
//     front (TL2/wtstm validate the read-set at commit, NOrec validates
//     by value, the 2PL runtime's back aborts instead — handled by the
//     conflict-cancel path) and the serial retry lands after the back;
//   - if they do not conflict, the two orders are observationally
//     equivalent.
//
// Two executor rules keep that claim exact:
//
//   - read-only cancel: if the front turns out not to write (e.g. the
//     generated guard `if flag == 0 { … }` took the empty branch), the
//     window is abandoned and the front completes before the back runs.
//     A read-only transaction may legally commit an older snapshot
//     (NOrec read-only commits skip validation; TL2 would conservatively
//     abort), so its serialization point is TM-dependent — the executor
//     never leaves it in a window.
//   - conflict cancel: if the back cannot commit because the paused
//     front holds encounter locks (wtstm, the 2PL runtime), the front
//     attempt is voluntarily aborted, and back then front run serially —
//     the same back-before-front order by other means.
//
// Blocking TMs (the global-lock baseline, whose Begin holds a mutex for
// the whole transaction) must run with Windows off; run is then a fully
// serial deterministic execution — the oracle. Both modes consume the
// schedule seed identically, so a windowed run and its serial oracle
// follow the same schedule decisions.
//
// Limitation: branch conditions inside atomic blocks are pre-evaluated
// against the current environment when the executor decides whether a
// paused block may still write. Programs generated by internal/progen
// read their guards before branching, so the prediction is exact for
// them.
package txexec

import (
	"errors"
	"fmt"
	"math/rand"

	"safepriv/internal/baseline"
	"safepriv/internal/core"
	"safepriv/internal/model"
)

// options configures a run.
type options struct {
	// Seed drives every scheduling decision; runs with equal seeds make
	// identical decisions.
	Seed int64
	// Windows opens conflict windows between atomic blocks. Leave off
	// for TMs whose Begin blocks (baseline) — the run is then serial.
	Windows bool
	// WindowPct is the percent chance a schedulable window opens
	// (default 60).
	WindowPct int
	// MaxAttempts bounds the retries of one atomic block (default
	// 100000).
	MaxAttempts int
}

// final is the observable outcome of a run: the registers and each
// thread's committed local environment (aborted attempts leave no
// trace — locals merge only when the attempt commits).
type final struct {
	Regs   []int64
	Locals []map[string]model.Value // 1-based by thread; [0] unused
}

// equal reports observational equality of two outcomes.
func equal(a, b final) bool {
	if len(a.Regs) != len(b.Regs) || len(a.Locals) != len(b.Locals) {
		return false
	}
	for i := range a.Regs {
		if a.Regs[i] != b.Regs[i] {
			return false
		}
	}
	for t := 1; t < len(a.Locals); t++ {
		if len(a.Locals[t]) != len(b.Locals[t]) {
			return false
		}
		for k, v := range a.Locals[t] {
			if w, ok := b.Locals[t][k]; !ok || w != v {
				return false
			}
		}
	}
	return true
}

// diff describes the first difference between two outcomes, for test
// failure messages ("" when equal).
func diff(a, b final) string {
	if len(a.Regs) != len(b.Regs) || len(a.Locals) != len(b.Locals) {
		return fmt.Sprintf("shape: %d regs/%d threads vs %d regs/%d threads",
			len(a.Regs), len(a.Locals), len(b.Regs), len(b.Locals))
	}
	for i := range a.Regs {
		if a.Regs[i] != b.Regs[i] {
			return fmt.Sprintf("reg %d: %d vs %d", i, a.Regs[i], b.Regs[i])
		}
	}
	for t := 1; t < len(a.Locals) && t < len(b.Locals); t++ {
		for k, v := range a.Locals[t] {
			if w, ok := b.Locals[t][k]; !ok || w != v {
				return fmt.Sprintf("thread %d local %s: %d vs %d", t, k, v, w)
			}
		}
		for k := range b.Locals[t] {
			if _, ok := a.Locals[t][k]; !ok {
				return fmt.Sprintf("thread %d local %s only on one side", t, k)
			}
		}
	}
	return ""
}

// oracle runs the program serially on a fresh global-lock baseline TM
// with the given seed: the reference outcome for every TM.
func oracle(p model.Program, seed int64) (final, error) {
	tm := baseline.New(p.Regs, len(p.Threads), nil)
	return run(p, tm, options{Seed: seed, Windows: false})
}

// frame is one level of resolved control flow.
type frame struct {
	ss []model.Stmt
	pc int
}

// thread is one program thread's cursor.
type thread struct {
	id    int
	env   map[string]model.Value
	stack []frame
}

// next returns the thread's next non-local statement, executing local
// statements (Assign) and resolving control flow (If) on the way; nil
// when the thread is done.
func (t *thread) next() (model.Stmt, error) {
	for {
		if len(t.stack) == 0 {
			return nil, nil
		}
		f := &t.stack[len(t.stack)-1]
		if f.pc >= len(f.ss) {
			t.stack = t.stack[:len(t.stack)-1]
			continue
		}
		s := f.ss[f.pc]
		switch s := s.(type) {
		case model.Assign:
			t.env[s.Lv] = s.E.Eval(t.env)
			f.pc++
		case model.If:
			f.pc++
			if s.Cond.Eval(t.env) != 0 {
				t.stack = append(t.stack, frame{ss: s.Then})
			} else if len(s.Else) > 0 {
				t.stack = append(t.stack, frame{ss: s.Else})
			}
		case model.Read, model.Write, model.Atomic, model.FenceStmt:
			return s, nil
		default:
			return nil, fmt.Errorf("txexec: unsupported top-level statement %T", s)
		}
	}
}

// consume advances past the statement next() returned.
func (t *thread) consume() { t.stack[len(t.stack)-1].pc++ }

// exec is the run state.
type exec struct {
	tm  core.TM
	opt options
	r   *rand.Rand
}

// run executes p on tm under opt's schedule and returns the outcome.
func run(p model.Program, tm core.TM, opt options) (final, error) {
	if opt.WindowPct == 0 {
		opt.WindowPct = 60
	}
	if opt.MaxAttempts == 0 {
		opt.MaxAttempts = 100000
	}
	p = p.Desugar()
	if tm.NumRegs() < p.Regs {
		return final{}, fmt.Errorf("txexec: TM has %d registers, program needs %d", tm.NumRegs(), p.Regs)
	}
	e := &exec{tm: tm, opt: opt, r: rand.New(rand.NewSource(opt.Seed))}
	threads := make([]*thread, len(p.Threads)+1)
	for i, body := range p.Threads {
		threads[i+1] = &thread{
			id:    i + 1,
			env:   map[string]model.Value{},
			stack: []frame{{ss: body}},
		}
	}

	for {
		// Resolve every thread's cursor, then pick among live ones in
		// thread-id order (deterministic indexing for the seeded draw).
		var live []*thread
		var items []model.Stmt
		for _, t := range threads[1:] {
			s, err := t.next()
			if err != nil {
				return final{}, err
			}
			if s != nil {
				live = append(live, t)
				items = append(items, s)
			}
		}
		if len(live) == 0 {
			break
		}
		i := e.r.Intn(len(live))
		t, item := live[i], items[i]
		var err error
		switch s := item.(type) {
		case model.FenceStmt:
			e.tm.Fence(t.id)
			t.consume()
		case model.Read:
			t.env[s.Lv] = e.tm.Load(t.id, s.X)
			t.consume()
		case model.Write:
			e.tm.Store(t.id, s.X, s.E.Eval(t.env))
			t.consume()
		case model.Atomic:
			err = e.runAtomic(t, s, live, items)
		default:
			err = fmt.Errorf("txexec: unexpected item %T", item)
		}
		if err != nil {
			return final{}, err
		}
	}

	out := final{Regs: make([]int64, p.Regs), Locals: make([]map[string]model.Value, len(threads))}
	for x := 0; x < p.Regs; x++ {
		out.Regs[x] = tm.Load(1, x)
	}
	for i, t := range threads {
		if t != nil {
			out.Locals[i] = t.env
		}
	}
	return out, nil
}

// runAtomic executes thread t's atomic block, possibly opening a
// conflict window with another thread's atomic block. The seeded draws
// are identical whether or not Windows is enabled, so a windowed run
// and its serial oracle stay on the same schedule.
func (e *exec) runAtomic(t *thread, blk model.Atomic, live []*thread, items []model.Stmt) error {
	doWin := e.r.Intn(100) < e.opt.WindowPct
	var partners []*thread
	var partnerBlks []model.Atomic
	for i, u := range live {
		if u != t {
			if b, ok := items[i].(model.Atomic); ok {
				partners = append(partners, u)
				partnerBlks = append(partnerBlks, b)
			}
		}
	}
	var partner *thread
	var partnerBlk model.Atomic
	if len(partners) > 0 {
		j := e.r.Intn(len(partners)) // drawn in both modes, for alignment
		partner, partnerBlk = partners[j], partnerBlks[j]
	}
	if partner == nil || !doWin {
		if err := e.runBlockSerial(t, blk); err != nil {
			return err
		}
		t.consume()
		return nil
	}

	// Window: front = t's block, back = partner's block; pinned
	// serialization order is back before front.
	a := e.beginAttempt(t, blk)
	_, aerr := a.stepTMOp()
	if aerr != nil {
		// Defensive: a first operation with no concurrent activity should
		// never abort. Fall back to the pinned order serially.
		if err := e.runBlockSerial(partner, partnerBlk); err != nil {
			return err
		}
		partner.consume()
		if err := e.runBlockSerial(t, blk); err != nil {
			return err
		}
		t.consume()
		return nil
	}

	if !a.wrote && !mayWrite(a.remaining(), a.env) {
		// Read-only cancel: a read-only front's serialization point is
		// TM-dependent; complete it before the back runs.
		if err := e.finishAttempt(a, t, blk); err != nil {
			return err
		}
		t.consume()
		if err := e.runBlockSerial(partner, partnerBlk); err != nil {
			return err
		}
		partner.consume()
		return nil
	}

	if !e.opt.Windows {
		// Serial oracle for the pinned order: abort the probe attempt,
		// then back, then front.
		a.tx.Abort()
		if err := e.runBlockSerial(partner, partnerBlk); err != nil {
			return err
		}
		partner.consume()
		if err := e.runBlockSerial(t, blk); err != nil {
			return err
		}
		t.consume()
		return nil
	}

	// Run the back inside the window, bounded: the paused front may hold
	// encounter locks (wtstm, 2PL) that doom the back.
	committed := false
	for try := 0; try < 3 && !committed; try++ {
		ok, err := e.tryBlockOnce(partner, partnerBlk)
		if err != nil {
			return err
		}
		committed = ok
	}
	if !committed {
		// Conflict cancel: release the front, then back before front.
		a.tx.Abort()
		if err := e.runBlockSerial(partner, partnerBlk); err != nil {
			return err
		}
		partner.consume()
		if err := e.runBlockSerial(t, blk); err != nil {
			return err
		}
		t.consume()
		return nil
	}
	partner.consume()
	if err := e.finishAttempt(a, t, blk); err != nil {
		return err
	}
	t.consume()
	return nil
}

// attempt is one in-flight execution of an atomic block's body.
type attempt struct {
	tm    core.TM
	tx    core.Txn
	env   map[string]model.Value
	stack []frame
	wrote bool
}

func (e *exec) beginAttempt(t *thread, blk model.Atomic) *attempt {
	env := make(map[string]model.Value, len(t.env))
	for k, v := range t.env {
		env[k] = v
	}
	return &attempt{
		tm:    e.tm,
		tx:    e.tm.Begin(t.id),
		env:   env,
		stack: []frame{{ss: blk.Body}},
	}
}

// stepTMOp runs local statements until one TM operation (read or write)
// has executed; done=true when the body is exhausted instead.
func (a *attempt) stepTMOp() (done bool, err error) {
	for {
		if len(a.stack) == 0 {
			return true, nil
		}
		f := &a.stack[len(a.stack)-1]
		if f.pc >= len(f.ss) {
			a.stack = a.stack[:len(a.stack)-1]
			continue
		}
		s := f.ss[f.pc]
		f.pc++
		switch s := s.(type) {
		case model.Assign:
			a.env[s.Lv] = s.E.Eval(a.env)
		case model.If:
			if s.Cond.Eval(a.env) != 0 {
				a.stack = append(a.stack, frame{ss: s.Then})
			} else if len(s.Else) > 0 {
				a.stack = append(a.stack, frame{ss: s.Else})
			}
		case model.Read:
			v, err := a.tx.Read(s.X)
			if err != nil {
				return false, err
			}
			a.env[s.Lv] = v
			return false, nil
		case model.Write:
			a.wrote = true
			if err := a.tx.Write(s.X, s.E.Eval(a.env)); err != nil {
				return false, err
			}
			return false, nil
		default:
			return false, fmt.Errorf("txexec: unsupported statement %T in atomic block", s)
		}
	}
}

// remaining snapshots the statements the attempt has not executed yet.
func (a *attempt) remaining() []frame { return a.stack }

// mayWrite predicts whether the remaining statements perform a write,
// pre-evaluating branch conditions against env (exact for progen-shaped
// bodies, whose guards are read before branching).
func mayWrite(stack []frame, env map[string]model.Value) bool {
	var scan func(ss []model.Stmt) bool
	scan = func(ss []model.Stmt) bool {
		for _, s := range ss {
			switch s := s.(type) {
			case model.Write:
				return true
			case model.If:
				if s.Cond.Eval(env) != 0 {
					if scan(s.Then) {
						return true
					}
				} else if scan(s.Else) {
					return true
				}
			}
		}
		return false
	}
	for _, f := range stack {
		if f.pc < len(f.ss) && scan(f.ss[f.pc:]) {
			return true
		}
	}
	return false
}

// finishAttempt drives the attempt to commit; if the TM aborts it at
// any point the whole block is re-run serially from scratch.
func (e *exec) finishAttempt(a *attempt, t *thread, blk model.Atomic) error {
	for {
		done, err := a.stepTMOp()
		if err != nil {
			if errors.Is(err, core.ErrAborted) {
				return e.runBlockSerial(t, blk)
			}
			return err
		}
		if done {
			break
		}
	}
	if err := a.tx.Commit(); err != nil {
		if errors.Is(err, core.ErrAborted) {
			return e.runBlockSerial(t, blk)
		}
		return err
	}
	a.env[blk.Lv] = model.ResCommitted
	t.env = a.env
	return nil
}

// tryBlockOnce runs one full attempt of a block; ok=false on a TM
// abort (the attempt's effects are discarded).
func (e *exec) tryBlockOnce(t *thread, blk model.Atomic) (ok bool, err error) {
	a := e.beginAttempt(t, blk)
	for {
		done, err := a.stepTMOp()
		if err != nil {
			if errors.Is(err, core.ErrAborted) {
				return false, nil
			}
			a.tx.Abort()
			return false, err
		}
		if done {
			break
		}
	}
	if err := a.tx.Commit(); err != nil {
		if errors.Is(err, core.ErrAborted) {
			return false, nil
		}
		return false, err
	}
	a.env[blk.Lv] = model.ResCommitted
	t.env = a.env
	return true, nil
}

// runBlockSerial retries the block until it commits (nothing else runs
// in between, so on a correct TM the first attempt after quiescence
// succeeds).
func (e *exec) runBlockSerial(t *thread, blk model.Atomic) error {
	for i := 0; i < e.opt.MaxAttempts; i++ {
		ok, err := e.tryBlockOnce(t, blk)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
	}
	return fmt.Errorf("txexec: block in thread %d did not commit after %d attempts", t.id, e.opt.MaxAttempts)
}
