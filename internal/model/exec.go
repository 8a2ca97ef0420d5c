package model

import (
	"fmt"

	"safepriv/internal/spec"
)

// TMKind selects the TM model.
type TMKind int

const (
	// TL2Kind is the fine-grained TL2 model (Figure 9 micro-steps).
	TL2Kind TMKind = iota
	// AtomicKind is the strongly atomic model (Hatomic).
	AtomicKind
)

// FencePolicy selects how FenceStmt is interpreted in the TL2 model.
type FencePolicy int

const (
	// FenceWaitAll is the correct fence (Figure 7).
	FenceWaitAll FencePolicy = iota
	// FenceSkipReadOnly is the GCC-bug fence: it does not wait for
	// transactions that have not written.
	FenceSkipReadOnly
	// FenceNoOp erases fences (models omitting them from the program).
	FenceNoOp
)

// machine bundles the compiled program with the model configuration.
type machine struct {
	code     *code
	kind     TMKind
	fence    FencePolicy
	nthreads int
}

// expand runs thread t's local computation (assignments, branching,
// statement-to-micro-op expansion) until the thread has a pending
// micro-op or terminates. Local steps are free: they touch no shared
// state, so folding them into the preceding step is a sound reduction.
func (m *machine) expand(s *state, t int) {
	th := &s.th[t]
	for len(th.micro) == 0 && !th.done {
		if len(th.frames) == 0 {
			th.done = true
			return
		}
		f := &th.frames[len(th.frames)-1]
		list := m.code.lists[f.list]
		if f.pc >= len(list) {
			th.frames = th.frames[:len(th.frames)-1]
			continue
		}
		st := list[f.pc]
		f.pc++
		switch st.op {
		case opAssign:
			th.locals[st.lv] = st.e.Eval(th.locals)
		case opIf:
			if st.cond.Eval(th.locals) != 0 {
				th.frames = append(th.frames, frame{list: st.a})
			} else if st.b >= 0 {
				th.frames = append(th.frames, frame{list: st.b})
			}
		case opStuck:
			// Divergence: the thread halts here. Inside a transaction
			// the active flag stays set — a diverged transaction blocks
			// correct fences forever (the doomed-transaction symptom).
			th.stuckf = true
			th.done = true
			th.frames = nil
		case opRead:
			if !th.inTxn {
				th.micro = append(th.micro, micro{code: mcNtxRead, x: st.x, lv: st.lv})
				break
			}
			if m.kind == AtomicKind {
				th.micro = append(th.micro, micro{code: mcAtxRead, x: st.x, lv: st.lv})
				break
			}
			// TL2: write-set hit is a purely local read (Figure 9
			// lines 15–16); it still emits a TM interface action.
			if v, ok := wsetGet(th.wset, st.x); ok {
				th.locals[st.lv] = v
				s.emit(t, spec.KindRead, st.x, 0)
				s.emit(t, spec.KindRet, 0, v)
				break
			}
			th.micro = append(th.micro,
				micro{code: mcRead1, x: st.x},
				micro{code: mcRead2, x: st.x},
				micro{code: mcRead3, x: st.x, lv: st.lv},
			)
		case opWrite:
			v := st.e.Eval(th.locals)
			switch {
			case !th.inTxn:
				th.micro = append(th.micro, micro{code: mcNtxWrite, x: st.x, v: v})
			case m.kind == AtomicKind:
				th.micro = append(th.micro, micro{code: mcAtxWrite, x: st.x, v: v})
			default:
				th.micro = append(th.micro, micro{code: mcWrite, x: st.x, v: v})
			}
		case opAtomic:
			th.inTxn = true
			th.txnLv = st.lv
			th.snap = cloneLocals(th.locals)
			th.txnDepth = len(th.frames)
			th.rver, th.wver = 0, 0
			th.wset, th.rset, th.undo = nil, nil, nil
			th.frames = append(th.frames, frame{list: st.a})
			if m.kind == AtomicKind {
				th.micro = append(th.micro, micro{code: mcAtxBegin})
			} else {
				th.micro = append(th.micro,
					micro{code: mcBeginActive},
					micro{code: mcBeginRver},
				)
			}
		case opCommitMark:
			if m.kind == AtomicKind {
				th.micro = append(th.micro, micro{code: mcAtxCommitChoice, lv: st.lv})
				break
			}
			th.micro = append(th.micro, micro{code: mcCommitReq, lv: st.lv})
			for _, w := range th.wset {
				th.micro = append(th.micro, micro{code: mcLock, x: w.x})
			}
			th.micro = append(th.micro, micro{code: mcTick})
			for _, x := range th.rset {
				th.micro = append(th.micro, micro{code: mcValidate, x: x})
			}
			for _, w := range th.wset {
				th.micro = append(th.micro,
					micro{code: mcWriteBack, x: w.x},
					micro{code: mcVerUnlock, x: w.x},
				)
			}
			th.micro = append(th.micro, micro{code: mcCommitDone, lv: st.lv})
		case opFence:
			if m.kind == AtomicKind {
				// Under strong atomicity no transaction can be mid-flight
				// while another thread runs, so the fence never waits.
				th.micro = append(th.micro,
					micro{code: mcFenceBegin},
					micro{code: mcFenceEnd},
				)
				break
			}
			switch m.fence {
			case FenceNoOp:
				// Models the program without the fence.
			default:
				snapKind := Value(0)
				if m.fence == FenceSkipReadOnly {
					snapKind = 1
				}
				th.micro = append(th.micro, micro{code: mcFenceBegin})
				for u := 1; u <= m.nthreads; u++ {
					th.micro = append(th.micro, micro{code: mcFenceSnap, x: u, v: snapKind})
				}
				for u := 1; u <= m.nthreads; u++ {
					th.micro = append(th.micro, micro{code: mcFenceWait, x: u})
				}
				th.micro = append(th.micro, micro{code: mcFenceEnd})
			}
		default:
			panic(fmt.Sprintf("model: bad opcode %d", st.op))
		}
	}
}

func wsetGet(ws []regval, x int) (Value, bool) {
	for _, w := range ws {
		if w.x == x {
			return w.v, true
		}
	}
	return 0, false
}

func wsetPut(ws []regval, x int, v Value) []regval {
	for i := range ws {
		if ws[i].x == x {
			ws[i].v = v
			return ws
		}
	}
	return append(ws, regval{x, v})
}

// enabled reports whether thread t can take a step in state s.
func (m *machine) enabled(s *state, t int) bool {
	th := &s.th[t]
	if th.done {
		return false
	}
	if s.sh.world != -1 && s.sh.world != t {
		return false // another thread's atomic block is executing
	}
	if len(th.micro) == 0 {
		return false // defensive: expand keeps this invariant
	}
	mc := th.micro[0]
	if mc.code == mcFenceWait && th.fsnap[mc.x] && s.sh.active[mc.x] {
		return false // blocked on the grace period
	}
	return true
}

// abortTL2 finalizes a TL2 abort: release held locks, roll back locals,
// unwind to the atomic block's continuation, clear the active flag.
// The caller emits the aborted response first.
func (m *machine) abortTL2(s *state, t int) {
	th := &s.th[t]
	for x := range s.sh.lock {
		if s.sh.lock[x] == t {
			s.sh.lock[x] = -1
		}
	}
	th.locals = cloneLocals(th.snap)
	th.locals[th.txnLv] = ResAborted
	th.frames = th.frames[:th.txnDepth]
	th.micro = nil
	th.inTxn = false
	s.sh.active[t] = false
	s.sh.haswr[t] = false
}

// step executes thread t's next micro-op on s (which the caller owns)
// and returns the successor states (two for the atomic model's
// commit/abort choice, one otherwise). Successors are fully expanded.
func (m *machine) step(s *state, t int) []*state {
	th := &s.th[t]
	mc := th.micro[0]
	th.micro = th.micro[1:]
	switch mc.code {
	case mcNtxRead:
		v := s.sh.reg[mc.x]
		th.locals[mc.lv] = v
		s.emit(t, spec.KindRead, mc.x, 0)
		s.emit(t, spec.KindRet, 0, v)
	case mcNtxWrite:
		s.sh.reg[mc.x] = mc.v
		s.emit(t, spec.KindWrite, mc.x, mc.v)
		s.emit(t, spec.KindRet, 0, 0)
	case mcFenceBegin:
		th.fsnap = make([]bool, m.nthreads+1)
		s.emit(t, spec.KindFBegin, 0, 0)
	case mcFenceSnap:
		if mc.v == 1 {
			th.fsnap[mc.x] = s.sh.active[mc.x] && s.sh.haswr[mc.x]
		} else {
			th.fsnap[mc.x] = s.sh.active[mc.x]
		}
	case mcFenceWait:
		// Enabledness guarantees the waited thread has completed.
	case mcFenceEnd:
		th.fsnap = nil
		s.emit(t, spec.KindFEnd, 0, 0)
	case mcBeginActive:
		s.sh.active[t] = true
		s.sh.haswr[t] = false
		th.txnOrd = s.ntxn
		s.ntxn++
		s.emit(t, spec.KindTxBegin, 0, 0)
		s.emit(t, spec.KindOK, 0, 0)
	case mcBeginRver:
		th.rver = s.sh.clock
	case mcRead1:
		th.ts1 = s.sh.ver[mc.x]
	case mcRead2:
		th.tmpv = s.sh.reg[mc.x]
	case mcRead3:
		locked := s.sh.lock[mc.x] != -1
		ts2 := s.sh.ver[mc.x]
		if locked || ts2 != th.ts1 || th.rver < ts2 {
			s.emit(t, spec.KindRead, mc.x, 0)
			s.emit(t, spec.KindAborted, 0, 0)
			m.abortTL2(s, t)
			break
		}
		th.locals[mc.lv] = th.tmpv
		found := false
		for _, x := range th.rset {
			if x == mc.x {
				found = true
				break
			}
		}
		if !found {
			th.rset = append(th.rset, mc.x)
		}
		s.emit(t, spec.KindRead, mc.x, 0)
		s.emit(t, spec.KindRet, 0, th.tmpv)
	case mcWrite:
		th.wset = wsetPut(th.wset, mc.x, mc.v)
		s.sh.haswr[t] = true
		s.emit(t, spec.KindWrite, mc.x, mc.v)
		s.emit(t, spec.KindRet, 0, 0)
	case mcCommitReq:
		s.emit(t, spec.KindTxCommit, 0, 0)
	case mcLock:
		if s.sh.lock[mc.x] == -1 {
			s.sh.lock[mc.x] = t
			break
		}
		s.emit(t, spec.KindAborted, 0, 0)
		m.abortTL2(s, t)
	case mcTick:
		s.sh.clock++
		th.wver = s.sh.clock
	case mcValidate:
		owner := s.sh.lock[mc.x]
		lockedByOther := owner != -1 && owner != t
		if lockedByOther || th.rver < s.sh.ver[mc.x] {
			s.emit(t, spec.KindAborted, 0, 0)
			m.abortTL2(s, t)
		}
	case mcWriteBack:
		v, _ := wsetGet(th.wset, mc.x)
		s.sh.reg[mc.x] = v
	case mcVerUnlock:
		s.sh.ver[mc.x] = th.wver
		s.sh.lock[mc.x] = -1
	case mcCommitDone:
		th.locals[mc.lv] = ResCommitted
		th.inTxn = false
		s.sh.active[t] = false
		s.sh.haswr[t] = false
		if s.record {
			s.wvers[th.txnOrd] = th.wver
		}
		s.emit(t, spec.KindCommitted, 0, 0)
	case mcAtxBegin:
		s.sh.world = t
		s.sh.active[t] = true
		th.txnOrd = s.ntxn
		s.ntxn++
		s.emit(t, spec.KindTxBegin, 0, 0)
		s.emit(t, spec.KindOK, 0, 0)
	case mcAtxRead:
		v := s.sh.reg[mc.x]
		th.locals[mc.lv] = v
		s.emit(t, spec.KindRead, mc.x, 0)
		s.emit(t, spec.KindRet, 0, v)
	case mcAtxWrite:
		th.undo = append(th.undo, regval{mc.x, s.sh.reg[mc.x]})
		s.sh.reg[mc.x] = mc.v
		s.emit(t, spec.KindWrite, mc.x, mc.v)
		s.emit(t, spec.KindRet, 0, 0)
	case mcAtxCommitChoice:
		abortSt := s.clone()
		// Commit branch (on s).
		th.locals[mc.lv] = ResCommitted
		th.inTxn = false
		s.sh.world = -1
		s.sh.active[t] = false
		s.emit(t, spec.KindTxCommit, 0, 0)
		s.emit(t, spec.KindCommitted, 0, 0)
		m.expand(s, t)
		// Abort branch (on abortSt): roll back register writes and
		// locals.
		ath := &abortSt.th[t]
		for i := len(ath.undo) - 1; i >= 0; i-- {
			abortSt.sh.reg[ath.undo[i].x] = ath.undo[i].v
		}
		ath.undo = nil
		ath.locals = cloneLocals(ath.snap)
		ath.locals[ath.txnLv] = ResAborted
		ath.frames = ath.frames[:ath.txnDepth]
		ath.micro = nil
		ath.inTxn = false
		abortSt.sh.world = -1
		abortSt.sh.active[t] = false
		abortSt.emit(t, spec.KindTxCommit, 0, 0)
		abortSt.emit(t, spec.KindAborted, 0, 0)
		m.expand(abortSt, t)
		return []*state{s, abortSt}
	default:
		panic(fmt.Sprintf("model: bad micro %d", mc.code))
	}
	m.expand(s, t)
	return []*state{s}
}
