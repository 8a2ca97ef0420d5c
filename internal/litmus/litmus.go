// Package litmus encodes the example programs of "Safe Privatization in
// Transactional Memory" (PPoPP 2018) — Figures 1(a), 1(b), 2, 3 and 6 —
// as model-checkable programs, each documenting its postcondition (the
// package's tests check them), plus the idioms this repository builds
// on them (privatize-publish, read-privatize, guard-payload).
//
// Conventions forced by the unique-writes assumption (§2.2): boolean
// flags are encoded as registers whose initial value 0 plays the role
// of false and any nonzero write plays the role of true, with the flag
// sense arranged so every program starts from all-zero registers.
package litmus

import "safepriv/internal/model"

// Register indices common to all programs.
const (
	// RegFlag is x_is_private / x_is_ready.
	RegFlag = 0
	// RegX is the privatized/published object x.
	RegX = 1
	// regY is Figure 3's second register.
	regY = 2
)

// Values written by the programs (all distinct and nonzero).
const (
	// flagSet marks the flag raised (x privatized in Fig 1, x published
	// in Fig 2, x ready in Fig 6).
	flagSet = 5
	// NuVal is the non-transactional write's value (ν in the figures).
	NuVal = 1
	// TxVal is the transactional write's value (42 in the figures).
	TxVal = 42
)

// Fig1a is the delayed-commit privatization example of Figure 1(a):
//
//	thread 1: l := atomic { flag := flagSet };   // T1 privatizes x
//	          [fence;]                           // iff withFence
//	          if (l == committed) x := NuVal     // ν, uninstrumented
//	thread 2: l2 := atomic {                     // T2
//	            f := flag.read();
//	            if (!f) x := TxVal }
//
// Postcondition (checked over final states):
// l = committed ⇒ x = NuVal.
func Fig1a(withFence bool) model.Program {
	th1 := []model.Stmt{
		model.Atomic{Lv: "l", Body: []model.Stmt{
			model.Write{X: RegFlag, E: model.Const(flagSet)},
		}},
	}
	if withFence {
		th1 = append(th1, model.FenceStmt{})
	}
	th1 = append(th1, model.If{
		Cond: model.Eq{A: model.Var("l"), B: model.Const(model.ResCommitted)},
		Then: []model.Stmt{model.Write{X: RegX, E: model.Const(NuVal)}},
	})
	th2 := []model.Stmt{
		model.Atomic{Lv: "l2", Body: []model.Stmt{
			model.Read{Lv: "f", X: RegFlag},
			model.If{
				Cond: model.Eq{A: model.Var("f"), B: model.Const(0)},
				Then: []model.Stmt{model.Write{X: RegX, E: model.Const(TxVal)}},
			},
		}},
	}
	name := "fig1a-nofence"
	if withFence {
		name = "fig1a"
	}
	return model.Program{Name: name, Regs: 2, Threads: [][]model.Stmt{th1, th2}}
}

// Fig1b is the doomed-transaction example of Figure 1(b):
//
//	thread 1: l := atomic { flag := flagSet };
//	          [fence;]
//	          if (l == committed) x := NuVal      // ν
//	thread 2: l2 := atomic {
//	            f := flag.read();
//	            if (!f) { while (x.read() == NuVal) {} } }
//
// Under strong atomicity (and with a correct fence) the loop never
// spins: T2 cannot observe ν's write. Without a fence (or with the
// buggy read-only-skipping fence) the doomed T2 reads ν's
// uninstrumented write and diverges — observable as Stuck[2].
func Fig1b(withFence bool) model.Program {
	th1 := []model.Stmt{
		model.Atomic{Lv: "l", Body: []model.Stmt{
			model.Write{X: RegFlag, E: model.Const(flagSet)},
		}},
	}
	if withFence {
		th1 = append(th1, model.FenceStmt{})
	}
	th1 = append(th1, model.If{
		Cond: model.Eq{A: model.Var("l"), B: model.Const(model.ResCommitted)},
		Then: []model.Stmt{model.Write{X: RegX, E: model.Const(NuVal)}},
	})
	th2 := []model.Stmt{
		model.Atomic{Lv: "l2", Body: []model.Stmt{
			model.Read{Lv: "f", X: RegFlag},
			model.If{
				Cond: model.Eq{A: model.Var("f"), B: model.Const(0)},
				Then: []model.Stmt{
					model.Read{Lv: "lx", X: RegX},
					model.While{
						Cond:  model.Eq{A: model.Var("lx"), B: model.Const(NuVal)},
						Body:  []model.Stmt{model.Read{Lv: "lx", X: RegX}},
						Bound: 2,
					},
				},
			},
		}},
	}
	name := "fig1b-nofence"
	if withFence {
		name = "fig1b"
	}
	return model.Program{Name: name, Regs: 2, Threads: [][]model.Stmt{th1, th2}}
}

// fig2 is the publication example of Figure 2. The paper's program
// starts with x_is_private = true; with zero-initialized registers we
// invert the flag's sense: flag == 0 means private, a nonzero flag
// means published.
//
//	thread 1: x := TxVal;                         // ν, uninstrumented
//	          l1 := atomic { flag := flagSet }    // T1 publishes
//	thread 2: l2 := atomic {                      // T2
//	            f := flag.read();
//	            if (f != 0) l := x.read() }
//
// Postcondition: l2 = committed ∧ l ≠ 0 ⇒ l = TxVal.
func fig2() model.Program {
	th1 := []model.Stmt{
		model.Write{X: RegX, E: model.Const(TxVal)},
		model.Atomic{Lv: "l1", Body: []model.Stmt{
			model.Write{X: RegFlag, E: model.Const(flagSet)},
		}},
	}
	th2 := []model.Stmt{
		model.Atomic{Lv: "l2", Body: []model.Stmt{
			model.Read{Lv: "f", X: RegFlag},
			model.If{
				Cond: model.Ne{A: model.Var("f"), B: model.Const(0)},
				Then: []model.Stmt{model.Read{Lv: "l", X: RegX}},
			},
		}},
	}
	return model.Program{Name: "fig2", Regs: 2, Threads: [][]model.Stmt{th1, th2}}
}

// fig3 is the racy example of Figure 3:
//
//	thread 1: l := atomic { x := 1; y := 2 }
//	thread 2: l1 := x.read(); l2 := y.read()     // ν1, ν2
//
// Postcondition: x = l1 ⇒ y = l2. It holds under strong atomicity and
// is violated by TL2's commit-time write-back window. The program is
// racy, so the violation is permitted by the paper's contract.
func fig3() model.Program {
	th1 := []model.Stmt{
		model.Atomic{Lv: "l", Body: []model.Stmt{
			model.Write{X: RegX, E: model.Const(1)},
			model.Write{X: regY, E: model.Const(2)},
		}},
	}
	th2 := []model.Stmt{
		model.Read{Lv: "l1", X: RegX},
		model.Read{Lv: "l2", X: regY},
	}
	return model.Program{Name: "fig3", Regs: 3, Threads: [][]model.Stmt{th1, th2}}
}

// fig6 is privatization by agreement outside transactions (Figure 6):
//
//	thread 1: l1 := atomic { x := TxVal };       // T
//	          ready := flagSet                   // ν, uninstrumented
//	thread 2: do { l2 := ready.read() }          // ν′ (bounded)
//	          while (!l2);
//	          l3 := x.read()                     // ν″
//
// Postcondition: l1 = committed ∧ l2 ≠ 0 ⇒ l3 = TxVal (the l2 ≠ 0
// guard accounts for the bounded spin giving up; the paper's unbounded
// loop only proceeds when the flag is set).
func fig6() model.Program {
	th1 := []model.Stmt{
		model.Atomic{Lv: "l1", Body: []model.Stmt{
			model.Write{X: RegX, E: model.Const(TxVal)},
		}},
		model.Write{X: RegFlag, E: model.Const(flagSet)},
	}
	th2 := []model.Stmt{
		model.Read{Lv: "l2", X: RegFlag},
		model.While{
			Cond:  model.Eq{A: model.Var("l2"), B: model.Const(0)},
			Body:  []model.Stmt{model.Read{Lv: "l2", X: RegFlag}},
			Bound: 3,
		},
		model.If{
			Cond: model.Ne{A: model.Var("l2"), B: model.Const(0)},
			Then: []model.Stmt{model.Read{Lv: "l3", X: RegX}},
		},
	}
	return model.Program{Name: "fig6", Regs: 2, Threads: [][]model.Stmt{th1, th2}}
}

// All returns every litmus program; cmd/litmus selects one by its
// Name.
func All() []model.Program {
	return []model.Program{
		Fig1a(false), Fig1a(true),
		Fig1b(false), Fig1b(true),
		fig2(), fig3(), fig6(),
		fig2NonTxnFlag(), staticSeparation(), privatizePublish(),
		readPrivatize(false), readPrivatize(true),
		guardPayload(false), guardPayload(true),
	}
}

// fig2NonTxnFlag is the publication idiom done WRONG: the flag itself
// is published with a non-transactional write while readers access it
// transactionally. Under the paper's DRF definition this races (the
// non-transactional flag write conflicts with the transactional flag
// read and no happens-before component orders them), even though on a
// sequentially consistent substrate the postcondition happens to hold —
// the DRF contract is deliberately conservative: racy programs get no
// guarantee, not a guaranteed failure.
func fig2NonTxnFlag() model.Program {
	th1 := []model.Stmt{
		model.Write{X: RegX, E: model.Const(TxVal)},      // ν1
		model.Write{X: RegFlag, E: model.Const(flagSet)}, // ν2: non-transactional publish
	}
	th2 := []model.Stmt{
		model.Atomic{Lv: "l2", Body: []model.Stmt{
			model.Read{Lv: "f", X: RegFlag},
			model.If{
				Cond: model.Ne{A: model.Var("f"), B: model.Const(0)},
				Then: []model.Stmt{model.Read{Lv: "l", X: RegX}},
			},
		}},
	}
	return model.Program{Name: "fig2-ntxnflag", Regs: 2, Threads: [][]model.Stmt{th1, th2}}
}

// staticSeparation is the discipline of Abadi et al. [4]: every
// register is accessed either only transactionally or only
// non-transactionally, program-wide. Registers 0 and 1 are
// transactional; register 2 is non-transactional. Trivially DRF — the
// paper's §8 positions it as a special case of its DRF notion.
func staticSeparation() model.Program {
	th1 := []model.Stmt{
		model.Atomic{Lv: "l1", Body: []model.Stmt{
			model.Write{X: 0, E: model.Const(11)},
			model.Write{X: 1, E: model.Const(12)},
		}},
		model.Write{X: 2, E: model.Const(13)},
	}
	th2 := []model.Stmt{
		model.Atomic{Lv: "l2", Body: []model.Stmt{
			model.Read{Lv: "a", X: 0},
			model.Read{Lv: "b", X: 1},
		}},
		model.Read{Lv: "c", X: 2},
	}
	return model.Program{Name: "static-separation", Regs: 3, Threads: [][]model.Stmt{th1, th2}}
}

// privatizePublish is the combined idiom the paper's §2.2 motivates —
// "the programmer may privatize an object, then access it
// non-transactionally, and then publish it back for transactional
// access":
//
//	thread 1: l1 := atomic { flag := 1 };        // privatize (odd)
//	          if (l1 == committed) {
//	            fence;
//	            x := 11;                         // ν: private write
//	            l2 := atomic { flag := 2 } }     // publish (even)
//	thread 2: l3 := atomic {
//	            f := flag.read();
//	            if (f == 0) x := 42;             // writer while shared
//	            if (f == 2) lx := x.read() }     // reader after publish
//
// Postcondition: a reader that sees the published flag sees the
// non-transactionally written value: l3=committed ∧ f=2 ⇒ lx=11.
// The fence is what makes the *writer* side safe (the reader side is
// already ordered by publication's xpo;txwr edge): without the fence,
// thread 2's transactional write to x races ν.
func privatizePublish() model.Program {
	th1 := []model.Stmt{
		model.Atomic{Lv: "l1", Body: []model.Stmt{
			model.Write{X: RegFlag, E: model.Const(1)},
		}},
		model.If{
			Cond: model.Eq{A: model.Var("l1"), B: model.Const(model.ResCommitted)},
			Then: []model.Stmt{
				model.FenceStmt{},
				model.Write{X: RegX, E: model.Const(11)},
				model.Atomic{Lv: "l2", Body: []model.Stmt{
					model.Write{X: RegFlag, E: model.Const(2)},
				}},
			},
		},
	}
	th2 := []model.Stmt{
		model.Atomic{Lv: "l3", Body: []model.Stmt{
			model.Read{Lv: "f", X: RegFlag},
			model.If{
				Cond: model.Eq{A: model.Var("f"), B: model.Const(0)},
				Then: []model.Stmt{model.Write{X: RegX, E: model.Const(42)}},
			},
			model.If{
				Cond: model.Eq{A: model.Var("f"), B: model.Const(2)},
				Then: []model.Stmt{model.Read{Lv: "lx", X: RegX}},
			},
		}},
	}
	return model.Program{Name: "privatize-publish", Regs: 2, Threads: [][]model.Stmt{th1, th2}}
}

// Flag values of readPrivatize, mirroring stmkv's shard flag: the two
// low bits are the state, so 3 is read-private and 4 is shared again
// (a real flag counts the publish higher up, above its payload;
// region.Guard).
const (
	FlagReadPrivate = 3
	FlagRepublished = 4
	// racyVal is the flag-ignoring write of the racy twin.
	racyVal = 43
)

// readPrivatize is the shared-read privatization idiom of stmkv's scan
// windows: the owner privatizes x only to *load* it, so a transaction
// that only reads x need not consult the flag at all.
//
//	thread 1: l1 := atomic { flag := 3 };        // read-privatize
//	          if (l1 == committed) {
//	            fence;
//	            lx := x.read();                  // ν: private load
//	            l2 := atomic { flag := 4 } }     // publish
//	thread 2: l3 := atomic {                     // writer: honours the flag
//	            f := flag.read();
//	            if (f == 0) x := 42 };
//	          l4 := atomic { a := x.read() }     // reader: ignores the flag
//
// ν and the reader are both loads, so they do not conflict under
// Definition 3.1; ν and the writer are ordered by the flag and the
// fence exactly as in privatizePublish. The program is DRF.
// Postcondition: a writer that saw the flag clear is serialized before
// the privatization, so the private load sees its write:
// l1=committed ∧ l3=committed ∧ f=0 ⇒ lx=42.
//
// With racy set, thread 2's second transaction is x := 43 instead —
// still ignoring the flag, but now a write, which conflicts with ν and
// is ordered with it by nothing: the racy twin.
func readPrivatize(racy bool) model.Program {
	th1 := []model.Stmt{
		model.Atomic{Lv: "l1", Body: []model.Stmt{
			model.Write{X: RegFlag, E: model.Const(FlagReadPrivate)},
		}},
		model.If{
			Cond: model.Eq{A: model.Var("l1"), B: model.Const(model.ResCommitted)},
			Then: []model.Stmt{
				model.FenceStmt{},
				model.Read{Lv: "lx", X: RegX},
				model.Atomic{Lv: "l2", Body: []model.Stmt{
					model.Write{X: RegFlag, E: model.Const(FlagRepublished)},
				}},
			},
		},
	}
	name := "read-privatize"
	var ignoresFlag model.Stmt = model.Read{Lv: "a", X: RegX}
	if racy {
		name = "read-privatize-racy"
		ignoresFlag = model.Write{X: RegX, E: model.Const(racyVal)}
	}
	th2 := []model.Stmt{
		model.Atomic{Lv: "l3", Body: []model.Stmt{
			model.Read{Lv: "f", X: RegFlag},
			model.If{
				Cond: model.Eq{A: model.Var("f"), B: model.Const(0)},
				Then: []model.Stmt{model.Write{X: RegX, E: model.Const(TxVal)}},
			},
		}},
		model.Atomic{Lv: "l4", Body: []model.Stmt{ignoresFlag}},
	}
	return model.Program{Name: name, Regs: 2, Threads: [][]model.Stmt{th1, th2}}
}

// Values of guardPayload, mirroring region.Guard's flag: the state in
// the two low bits, the payload from bit 2 and the publish count from
// bit 26.
const (
	// flagGrowing is the flag of a region taken exclusive before its
	// first publish, carrying payload 0.
	flagGrowing = 1
	// flagGrown is the flag after one publish that carried payload 1.
	flagGrown = 1<<26 | 1<<2
	// RebuiltVal is the grower's uninstrumented write into the register
	// payload 1 names.
	RebuiltVal = 11
)

// guardPayload is the idiom of stmkv's growth, whose shard flag also
// carries the table's capacity (region.Guard's payload): the grower
// takes the region exclusive, fences, rebuilds it into the register
// the new payload names, and publishes that payload with the flag; a
// transaction picks the register it accesses from the payload it read
// with the flag (payload p names register x+p).
//
//	thread 1: l1 := atomic { flag := flagGrowing };  // privatize
//	          if (l1 == committed) {
//	            fence;
//	            lx := x.read();                      // ν: load the old table
//	            y := 11;                             // ν: rebuild at payload 1
//	            l2 := atomic { flag := flagGrown } } // publish payload 1
//	thread 2: l3 := atomic {
//	            f := flag.read();
//	            if (f == 0) x := 42;                 // payload 0: x
//	            if (f == flagGrown) b := y.read() }  // payload 1: y
//
// The program is DRF: the fence orders the rebuild after every
// transaction that saw payload 0, and the publish orders it before
// every transaction that sees payload 1. Postcondition: a writer that
// saw payload 0 is serialized before the privatization, so the
// grower's load sees its write, and a reader that saw payload 1 sees
// the rebuilt register: (l1=committed ∧ l3=committed ∧ f=0 ⇒ lx=42) ∧
// (l3=committed ∧ f=flagGrown ⇒ b=11).
//
// With racy set the grower publishes without the fence: a writer that
// saw payload 0 can commit after the grower's load (Figure 1(a)'s
// delayed commit), which the TL2 model exhibits as a violation.
func guardPayload(racy bool) model.Program {
	phase := []model.Stmt{
		model.FenceStmt{},
		model.Read{Lv: "lx", X: RegX},
		model.Write{X: RegX + 1, E: model.Const(RebuiltVal)},
		model.Atomic{Lv: "l2", Body: []model.Stmt{
			model.Write{X: RegFlag, E: model.Const(flagGrown)},
		}},
	}
	name := "guard-payload"
	if racy {
		name, phase = "guard-payload-racy", phase[1:]
	}
	th1 := []model.Stmt{
		model.Atomic{Lv: "l1", Body: []model.Stmt{
			model.Write{X: RegFlag, E: model.Const(flagGrowing)},
		}},
		model.If{
			Cond: model.Eq{A: model.Var("l1"), B: model.Const(model.ResCommitted)},
			Then: phase,
		},
	}
	th2 := []model.Stmt{
		model.Atomic{Lv: "l3", Body: []model.Stmt{
			model.Read{Lv: "f", X: RegFlag},
			model.If{
				Cond: model.Eq{A: model.Var("f"), B: model.Const(0)},
				Then: []model.Stmt{model.Write{X: RegX, E: model.Const(TxVal)}},
			},
			model.If{
				Cond: model.Eq{A: model.Var("f"), B: model.Const(flagGrown)},
				Then: []model.Stmt{model.Read{Lv: "b", X: RegX + 1}},
			},
		}},
	}
	return model.Program{Name: name, Regs: 3, Threads: [][]model.Stmt{th1, th2}}
}
