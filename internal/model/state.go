package model

import (
	"fmt"
	"sort"
	"strings"

	"safepriv/internal/spec"
)

// cop is a compiled statement opcode.
type cop uint8

const (
	opAssign cop = iota
	opRead
	opWrite
	opAtomic
	opFence
	opIf
	opStuck
	opCommitMark
)

// cstmt is a compiled statement; child statement lists are referenced
// by index into the code table, making program counters hashable.
type cstmt struct {
	op   cop
	lv   string
	x    int
	e    Expr
	cond Expr
	a, b int // child list ids (then/else or atomic body)
}

// code is the compiled program: a table of statement lists.
type code struct {
	lists   [][]cstmt
	regs    int
	threads []int // entry list id per thread (0-based slot = thread t-1)
}

// compile flattens a program (already desugared) into a code table.
func compile(p Program) (*code, error) {
	c := &code{regs: p.Regs}
	var compileList func(ss []Stmt, txn bool, atomicLv string, closeTxn bool) (int, error)
	compileList = func(ss []Stmt, txn bool, atomicLv string, closeTxn bool) (int, error) {
		id := len(c.lists)
		c.lists = append(c.lists, nil) // reserve
		var out []cstmt
		for _, s := range ss {
			switch s := s.(type) {
			case Assign:
				out = append(out, cstmt{op: opAssign, lv: s.Lv, e: s.E})
			case Read:
				if s.X < 0 || s.X >= p.Regs {
					return 0, fmt.Errorf("model: read of register %d out of range", s.X)
				}
				out = append(out, cstmt{op: opRead, lv: s.Lv, x: s.X})
			case Write:
				if s.X < 0 || s.X >= p.Regs {
					return 0, fmt.Errorf("model: write of register %d out of range", s.X)
				}
				out = append(out, cstmt{op: opWrite, x: s.X, e: s.E})
			case Atomic:
				if txn {
					return 0, fmt.Errorf("model: nested atomic block")
				}
				body, err := compileList(s.Body, true, s.Lv, true)
				if err != nil {
					return 0, err
				}
				out = append(out, cstmt{op: opAtomic, lv: s.Lv, a: body})
			case FenceStmt:
				if txn {
					return 0, fmt.Errorf("model: fence inside atomic block")
				}
				out = append(out, cstmt{op: opFence})
			case If:
				thenID, err := compileList(s.Then, txn, atomicLv, false)
				if err != nil {
					return 0, err
				}
				elseID := -1
				if len(s.Else) > 0 {
					elseID, err = compileList(s.Else, txn, atomicLv, false)
					if err != nil {
						return 0, err
					}
				}
				out = append(out, cstmt{op: opIf, cond: s.Cond, a: thenID, b: elseID})
			case While:
				return 0, fmt.Errorf("model: program not desugared (While found)")
			case stuck:
				out = append(out, cstmt{op: opStuck})
			case commitMarker:
				out = append(out, cstmt{op: opCommitMark, lv: s.lv})
			default:
				return 0, fmt.Errorf("model: unknown statement %T", s)
			}
		}
		if closeTxn {
			out = append(out, cstmt{op: opCommitMark, lv: atomicLv})
		}
		c.lists[id] = out
		return id, nil
	}
	for _, th := range p.Threads {
		id, err := compileList(th, false, "", false)
		if err != nil {
			return nil, err
		}
		c.threads = append(c.threads, id)
	}
	return c, nil
}

// mcode is a micro-operation opcode: one atomic shared-memory step.
type mcode uint8

const (
	// Common (both models).
	mcNtxRead mcode = iota
	mcNtxWrite
	mcFenceBegin
	mcFenceSnap
	mcFenceWait
	mcFenceEnd
	// TL2 (Figure 9 micro-steps).
	mcBeginActive
	mcBeginRver
	mcRead1
	mcRead2
	mcRead3
	mcWrite
	mcCommitReq
	mcLock
	mcTick
	mcValidate
	mcWriteBack
	mcVerUnlock
	mcCommitDone
	// Atomic model (Hatomic).
	mcAtxBegin
	mcAtxRead
	mcAtxWrite
	mcAtxCommitChoice
)

// micro is one pending micro-operation.
type micro struct {
	code mcode
	x    int
	v    Value
	lv   string
}

// frame is a program counter into the code table.
type frame struct {
	list, pc int
}

// regval is an (x, value) pair, used for write sets and undo logs.
type regval struct {
	x int
	v Value
}

// thread is the per-thread interpreter and TM-metadata state.
type thread struct {
	frames []frame
	locals map[string]Value
	micro  []micro
	done   bool
	stuckf bool

	inTxn    bool
	txnLv    string
	txnDepth int
	snap     map[string]Value
	txnOrd   int // txbegin ordinal (history mode)

	// TL2 metadata.
	rver Value
	wset []regval
	rset []int
	ts1  Value
	tmpv Value
	wver Value

	// Fence snapshot.
	fsnap []bool

	// Atomic-model undo log.
	undo []regval
}

// shared is the TM's shared state.
type shared struct {
	clock  Value
	reg    []Value
	ver    []Value
	lock   []int // -1 free, else owner thread
	active []bool
	haswr  []bool
	world  int // -1 or owner thread (atomic model)
}

// state is a full model-checker state. Threads are 1-based (th[0]
// unused).
type state struct {
	sh shared
	th []thread

	// History recording (sampling mode only; nil when memoizing).
	record bool
	hist   spec.History
	nextID spec.ActionID
	ntxn   int
	wvers  map[int]int64
}

// newState builds the initial state.
func newState(c *code, record bool) *state {
	n := len(c.threads)
	s := &state{
		sh: shared{
			reg:    make([]Value, c.regs),
			ver:    make([]Value, c.regs),
			lock:   make([]int, c.regs),
			active: make([]bool, n+1),
			haswr:  make([]bool, n+1),
			world:  -1,
		},
		th:     make([]thread, n+1),
		record: record,
	}
	for x := range s.sh.lock {
		s.sh.lock[x] = -1
	}
	for t := 1; t <= n; t++ {
		s.th[t] = thread{
			frames: []frame{{list: c.threads[t-1], pc: 0}},
			locals: map[string]Value{},
		}
	}
	if record {
		s.wvers = map[int]int64{}
	}
	return s
}

// clone deep-copies the state.
func (s *state) clone() *state {
	c := &state{
		sh: shared{
			clock:  s.sh.clock,
			reg:    append([]Value(nil), s.sh.reg...),
			ver:    append([]Value(nil), s.sh.ver...),
			lock:   append([]int(nil), s.sh.lock...),
			active: append([]bool(nil), s.sh.active...),
			haswr:  append([]bool(nil), s.sh.haswr...),
			world:  s.sh.world,
		},
		th:     make([]thread, len(s.th)),
		record: s.record,
		nextID: s.nextID,
		ntxn:   s.ntxn,
	}
	for i := range s.th {
		t := s.th[i]
		c.th[i] = thread{
			frames:   append([]frame(nil), t.frames...),
			locals:   cloneLocals(t.locals),
			micro:    append([]micro(nil), t.micro...),
			done:     t.done,
			stuckf:   t.stuckf,
			inTxn:    t.inTxn,
			txnLv:    t.txnLv,
			txnDepth: t.txnDepth,
			snap:     cloneLocals(t.snap),
			txnOrd:   t.txnOrd,
			rver:     t.rver,
			wset:     append([]regval(nil), t.wset...),
			rset:     append([]int(nil), t.rset...),
			ts1:      t.ts1,
			tmpv:     t.tmpv,
			wver:     t.wver,
			fsnap:    append([]bool(nil), t.fsnap...),
			undo:     append([]regval(nil), t.undo...),
		}
	}
	if s.record {
		c.hist = append(spec.History(nil), s.hist...)
		c.wvers = make(map[int]int64, len(s.wvers))
		for k, v := range s.wvers {
			c.wvers[k] = v
		}
	}
	return c
}

func cloneLocals(m map[string]Value) map[string]Value {
	if m == nil {
		return nil
	}
	out := make(map[string]Value, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// key returns a deterministic encoding of the state (excluding the
// recorded history) for memoization.
func (s *state) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "c%d w%d|", s.sh.clock, s.sh.world)
	for x := range s.sh.reg {
		fmt.Fprintf(&b, "%d:%d:%d,", s.sh.reg[x], s.sh.ver[x], s.sh.lock[x])
	}
	for t := 1; t < len(s.th); t++ {
		th := &s.th[t]
		fmt.Fprintf(&b, "|T%d a%v h%v d%v s%v i%v r%d w%d o%d ", t,
			s.sh.active[t], s.sh.haswr[t], th.done, th.stuckf, th.inTxn, th.rver, th.wver, th.txnDepth)
		for _, f := range th.frames {
			fmt.Fprintf(&b, "f%d.%d,", f.list, f.pc)
		}
		b.WriteByte(';')
		keys := make([]string, 0, len(th.locals))
		for k := range th.locals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%d,", k, th.locals[k])
		}
		b.WriteByte(';')
		for _, m := range th.micro {
			fmt.Fprintf(&b, "m%d.%d.%d.%s,", m.code, m.x, m.v, m.lv)
		}
		b.WriteByte(';')
		for _, w := range th.wset {
			fmt.Fprintf(&b, "W%d=%d,", w.x, w.v)
		}
		for _, x := range th.rset {
			fmt.Fprintf(&b, "R%d,", x)
		}
		fmt.Fprintf(&b, "t%d,%d;", th.ts1, th.tmpv)
		for _, f := range th.fsnap {
			if f {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		for _, u := range th.undo {
			fmt.Fprintf(&b, "U%d=%d,", u.x, u.v)
		}
	}
	return b.String()
}

// emit appends a history action (sampling mode).
func (s *state) emit(t int, k spec.Kind, x int, v Value) {
	if !s.record {
		return
	}
	s.nextID++
	s.hist = append(s.hist, spec.Action{
		ID: s.nextID, Thread: spec.ThreadID(t), Kind: k,
		Reg: spec.Reg(x), Value: spec.Value(v),
	})
}
