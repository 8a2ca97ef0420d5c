// The tests in this file are the paper's evaluation: each experiment
// Ek from DESIGN.md/EXPERIMENTS.md asserts a claim the paper makes
// about a figure, verified by exhaustive interleaving enumeration over
// the fine-grained TL2 model or the strongly atomic model.
package litmus

import (
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/hb"
	"safepriv/internal/model"
	"safepriv/internal/opacity"
	"safepriv/internal/region"
	"safepriv/internal/spec"
	"safepriv/internal/tl2"
)

// drfUnderAtomic checks DRF(P, s, Hatomic) per Definition 3.3 by
// enumerating every maximal trace of the program under the atomic
// model and race-checking each history.
func drfUnderAtomic(t *testing.T, p model.Program) (bool, int) {
	t.Helper()
	runs, err := model.AllHistories(model.Config{Prog: p, Model: model.AtomicKind}, 0)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	racy := 0
	for _, r := range runs {
		a, err := spec.CheckWellFormed(r.Hist)
		if err != nil {
			t.Fatalf("%s: atomic-model history ill-formed: %v\n%s", p.Name, err, r.Hist)
		}
		if ok, _ := hb.DRF(a); !ok {
			racy++
		}
	}
	return racy == 0, len(runs)
}

// --- E1: Figure 1(a), delayed commit ---

func TestE1Fig1aNoFenceAnomalyReachable(t *testing.T) {
	// Without the fence, TL2's delayed commit violates the
	// postcondition: T2's write-back of 42 overwrites ν's 1.
	found, res, err := model.Exists(
		model.Config{Prog: Fig1a(false), Model: model.TL2Kind, Fence: model.FenceWaitAll},
		func(f model.Final) bool { return !fig1aPost(f) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("delayed-commit anomaly not reachable (%d states explored)", res.States)
	}
}

func TestE1Fig1aFenceSafe(t *testing.T) {
	// With the fence between T1 and ν the postcondition holds in every
	// interleaving of the TL2 model.
	viol, res, err := model.CheckAlways(
		model.Config{Prog: Fig1a(true), Model: model.TL2Kind, Fence: model.FenceWaitAll},
		fig1aPost,
	)
	if err != nil {
		t.Fatal(err)
	}
	if viol != nil {
		t.Fatalf("postcondition violated despite fence: %+v (%d states)", *viol, res.States)
	}
}

func TestE1Fig1aAtomicSafe(t *testing.T) {
	// Under strong atomicity the postcondition holds with or without
	// the fence.
	for _, fence := range []bool{false, true} {
		viol, _, err := model.CheckAlways(
			model.Config{Prog: Fig1a(fence), Model: model.AtomicKind},
			fig1aPost,
		)
		if err != nil {
			t.Fatal(err)
		}
		if viol != nil {
			t.Fatalf("fence=%v: strong atomicity violated the postcondition: %+v", fence, *viol)
		}
	}
}

func TestE1Fig1aDRFVerdicts(t *testing.T) {
	// Per §3: with the fence the program is DRF under Hatomic; without
	// it, it is racy.
	if drf, n := drfUnderAtomic(t, Fig1a(true)); !drf {
		t.Errorf("Fig1a with fence should be DRF (%d traces)", n)
	}
	if drf, n := drfUnderAtomic(t, Fig1a(false)); drf {
		t.Errorf("Fig1a without fence should be racy (%d traces)", n)
	}
}

// --- E2: Figure 1(b), doomed transaction ---

func TestE2Fig1bNoFenceDoomedLoop(t *testing.T) {
	// Without the fence, T2 can read ν's uninstrumented write and
	// diverge (Stuck[2]).
	found, res, err := model.Exists(
		model.Config{Prog: Fig1b(false), Model: model.TL2Kind, Fence: model.FenceWaitAll},
		func(f model.Final) bool { return f.Stuck[2] },
	)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("doomed-transaction divergence not reachable (%d states)", res.States)
	}
}

func TestE2Fig1bFenceSafe(t *testing.T) {
	// With the fence, T2 never spins and nothing deadlocks.
	viol, res, err := model.CheckAlways(
		model.Config{Prog: Fig1b(true), Model: model.TL2Kind, Fence: model.FenceWaitAll},
		func(f model.Final) bool { return !f.Stuck[2] && f.AllDone },
	)
	if err != nil {
		t.Fatal(err)
	}
	if viol != nil {
		t.Fatalf("doomed loop or deadlock despite fence: %+v (%d states)", *viol, res.States)
	}
}

func TestE2Fig1bDRFVerdicts(t *testing.T) {
	if drf, _ := drfUnderAtomic(t, Fig1b(true)); !drf {
		t.Error("Fig1b with fence should be DRF")
	}
	if drf, _ := drfUnderAtomic(t, Fig1b(false)); drf {
		t.Error("Fig1b without fence should be racy")
	}
}

// --- E3: Figure 2, publication ---

func TestE3Fig2SafeEverywhere(t *testing.T) {
	for _, m := range []model.TMKind{model.TL2Kind, model.AtomicKind} {
		viol, res, err := model.CheckAlways(
			model.Config{Prog: fig2(), Model: m},
			fig2Post,
		)
		if err != nil {
			t.Fatal(err)
		}
		if viol != nil {
			t.Fatalf("model %d: publication postcondition violated: %+v (%d states)", m, *viol, res.States)
		}
	}
}

func TestE3Fig2DRF(t *testing.T) {
	if drf, n := drfUnderAtomic(t, fig2()); !drf {
		t.Errorf("fig2 should be DRF (%d traces)", n)
	}
}

// --- E4: Figure 3, racy program ---

func TestE4Fig3AnomalyReachableUnderTL2(t *testing.T) {
	// The uninstrumented reads can observe the half-written commit.
	found, res, err := model.Exists(
		model.Config{Prog: fig3(), Model: model.TL2Kind},
		func(f model.Final) bool { return !fig3Post(f) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("intermediate-state observation not reachable (%d states)", res.States)
	}
}

func TestE4Fig3AtomicSafe(t *testing.T) {
	viol, _, err := model.CheckAlways(
		model.Config{Prog: fig3(), Model: model.AtomicKind},
		fig3Post,
	)
	if err != nil {
		t.Fatal(err)
	}
	if viol != nil {
		t.Fatalf("strong atomicity violated Figure 3's postcondition: %+v", *viol)
	}
}

func TestE4Fig3Racy(t *testing.T) {
	if drf, _ := drfUnderAtomic(t, fig3()); drf {
		t.Error("fig3 should be racy")
	}
}

// --- E5: Figure 6, privatization by agreement ---

func TestE5Fig6SafeUnderTL2(t *testing.T) {
	viol, res, err := model.CheckAlways(
		model.Config{Prog: fig6(), Model: model.TL2Kind},
		fig6Post,
	)
	if err != nil {
		t.Fatal(err)
	}
	if viol != nil {
		t.Fatalf("agreement idiom violated: %+v (%d states)", *viol, res.States)
	}
}

func TestE5Fig6DRF(t *testing.T) {
	if drf, n := drfUnderAtomic(t, fig6()); !drf {
		t.Errorf("fig6 should be DRF (%d traces)", n)
	}
}

// --- E10: the GCC read-only fence-elision bug ---

func TestE10GCCBugFenceSkipsReadOnlyDoomed(t *testing.T) {
	// Figure 1(b) with the fence present but implemented to skip
	// read-only transactions: the doomed read-only T2 is not waited
	// for, and diverges — the strong-atomicity violation of Zhou et al.
	found, res, err := model.Exists(
		model.Config{Prog: Fig1b(true), Model: model.TL2Kind, Fence: model.FenceSkipReadOnly},
		func(f model.Final) bool { return f.Stuck[2] },
	)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("GCC-bug divergence not reachable (%d states)", res.States)
	}
}

func TestE10CorrectFenceExcludesIt(t *testing.T) {
	viol, _, err := model.CheckAlways(
		model.Config{Prog: Fig1b(true), Model: model.TL2Kind, Fence: model.FenceWaitAll},
		func(f model.Final) bool { return !f.Stuck[2] },
	)
	if err != nil {
		t.Fatal(err)
	}
	if viol != nil {
		t.Fatalf("correct fence admitted the divergence: %+v", *viol)
	}
}

// --- E11: the Fundamental Property on sampled TL2 traces ---

// TestE11FundamentalProperty: for every DRF program, each sampled
// TL2-model history passes the strong-opacity pipeline — i.e. it has a
// happens-before-preserving atomic justification, which by Lemma B.1
// yields an observationally equivalent strongly atomic trace.
func TestE11FundamentalProperty(t *testing.T) {
	progs := []model.Program{Fig1a(true), Fig1b(true), fig2(), fig6()}
	for _, p := range progs {
		runs, err := model.Sample(
			model.Config{Prog: p, Model: model.TL2Kind, Fence: model.FenceWaitAll},
			300, 12345,
		)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for i, r := range runs {
			wv := r.WVers
			_, err := opacity.Check(r.Hist, opacity.Options{
				WVer: func(ti int) (int64, bool) { v, ok := wv[ti]; return v, ok },
			})
			if err != nil {
				t.Fatalf("%s run %d: %v\n%s", p.Name, i, err, r.Hist)
			}
		}
	}
}

// TestE11AtomicHistoriesAreMembers: every atomic-model history is
// directly a member of Hatomic (sanity of the atomic model).
func TestE11AtomicHistoriesAreMembers(t *testing.T) {
	for _, p := range All() {
		runs, err := model.AllHistories(model.Config{Prog: p, Model: model.AtomicKind}, 0)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for i, r := range runs {
			if _, err := opacity.Check(r.Hist, opacity.Options{}); err != nil {
				// Racy programs (fig3, fig1x-nofence) may produce racy
				// histories — those are outside the obligation.
				a, werr := spec.CheckWellFormed(r.Hist)
				if werr != nil {
					t.Fatalf("%s run %d: ill-formed: %v", p.Name, i, werr)
				}
				if ok, _ := hb.DRF(a); ok {
					t.Fatalf("%s run %d: DRF atomic history rejected: %v\n%s", p.Name, i, err, r.Hist)
				}
			}
		}
	}
}

// --- Related-work disciplines (§8 of the paper) ---

func TestNonTxnFlagPublicationIsRacy(t *testing.T) {
	// The paper's DRF notion rejects publication via a non-transactional
	// flag write (conservatively — the postcondition happens to hold on
	// the SC substrate).
	if drf, _ := drfUnderAtomic(t, fig2NonTxnFlag()); drf {
		t.Error("non-transactional flag publication should be racy")
	}
	// Nevertheless, on the TL2 model the postcondition holds — the
	// contract gives no guarantee, not a guaranteed violation.
	viol, _, err := model.CheckAlways(
		model.Config{Prog: fig2NonTxnFlag(), Model: model.TL2Kind},
		fig2Post,
	)
	if err != nil {
		t.Fatal(err)
	}
	if viol != nil {
		t.Logf("note: TL2 model violated the racy program's postcondition: %+v", *viol)
	}
}

func TestStaticSeparationDRFAndSafe(t *testing.T) {
	if drf, n := drfUnderAtomic(t, staticSeparation()); !drf {
		t.Errorf("static separation should be DRF (%d traces)", n)
	}
	viol, res, err := model.CheckAlways(
		model.Config{Prog: staticSeparation(), Model: model.TL2Kind},
		staticSeparationPost,
	)
	if err != nil {
		t.Fatal(err)
	}
	if viol != nil {
		t.Fatalf("static separation violated atomicity: %+v (%d states)", *viol, res.States)
	}
}

// TestFencesDoNotFixFig3: the paper remarks that inserting fences into
// Figure 3 does not make it DRF. Verify with a fence between the
// non-transactional reads.
func TestFencesDoNotFixFig3(t *testing.T) {
	p := fig3()
	// Insert a fence before ν1 and between ν1 and ν2 in thread 2.
	p.Threads[1] = []model.Stmt{
		model.FenceStmt{},
		model.Read{Lv: "l1", X: RegX},
		model.FenceStmt{},
		model.Read{Lv: "l2", X: regY},
	}
	p.Name = "fig3-fenced"
	if drf, _ := drfUnderAtomic(t, p); drf {
		t.Error("fences must not make Figure 3 DRF")
	}
}

// --- The combined privatize → modify → publish idiom (§2.2) ---

func TestPrivatizePublishDRF(t *testing.T) {
	if drf, n := drfUnderAtomic(t, privatizePublish()); !drf {
		t.Errorf("privatize-publish should be DRF (%d traces)", n)
	}
}

func TestPrivatizePublishSafeUnderTL2(t *testing.T) {
	viol, res, err := model.CheckAlways(
		model.Config{Prog: privatizePublish(), Model: model.TL2Kind, Fence: model.FenceWaitAll},
		privatizePublishPost,
	)
	if err != nil {
		t.Fatal(err)
	}
	if viol != nil {
		t.Fatalf("combined idiom violated: %+v (%d states)", *viol, res.States)
	}
}

func TestPrivatizePublishTracesVerify(t *testing.T) {
	// Every sampled TL2-model trace of the combined idiom passes the
	// full strong-opacity pipeline — this is the flow §2.2 gives as the
	// reason histories must include non-transactional actions at all.
	runs, err := model.Sample(
		model.Config{Prog: privatizePublish(), Model: model.TL2Kind, Fence: model.FenceWaitAll},
		200, 77,
	)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		wv := r.WVers
		if _, err := opacity.Check(r.Hist, opacity.Options{
			WVer: func(ti int) (int64, bool) { v, ok := wv[ti]; return v, ok },
		}); err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, r.Hist)
		}
	}
}

func TestPrivatizePublishWithoutFenceRacy(t *testing.T) {
	// Strip the fence: the combined idiom becomes racy.
	p := privatizePublish()
	th1 := p.Threads[0]
	// Rebuild thread 1 without the FenceStmt.
	guard := th1[1].(model.If)
	var phase []model.Stmt
	for _, s := range guard.Then {
		if _, isFence := s.(model.FenceStmt); !isFence {
			phase = append(phase, s)
		}
	}
	p.Threads[0] = []model.Stmt{th1[0], model.If{Cond: guard.Cond, Then: phase}}
	p.Name = "privatize-publish-nofence"
	if drf, _ := drfUnderAtomic(t, p); drf {
		t.Error("fence-free combined idiom should be racy")
	}
}

// --- Shared-read privatization (stmkv's scan windows) ---

// TestReadPrivatizeVerdicts: the owner of a read-private object only
// loads it, so a transaction that reads the object without consulting
// the flag is race-free, while one that writes it the same way is not.
// The DRF program keeps its postcondition in every interleaving of both
// models and its sampled TL2 traces pass the strong-opacity pipeline.
func TestReadPrivatizeVerdicts(t *testing.T) {
	for _, tc := range []struct {
		prog model.Program
		drf  bool
	}{
		{readPrivatize(false), true},
		{readPrivatize(true), false},
	} {
		t.Run(tc.prog.Name, func(t *testing.T) {
			if drf, n := drfUnderAtomic(t, tc.prog); drf != tc.drf {
				t.Fatalf("DRF = %v over %d traces, want %v", drf, n, tc.drf)
			}
			if !tc.drf {
				return // racy programs get no guarantee to check
			}
			for _, m := range []model.TMKind{model.TL2Kind, model.AtomicKind} {
				viol, res, err := model.CheckAlways(
					model.Config{Prog: tc.prog, Model: m, Fence: model.FenceWaitAll},
					readPrivatizePost,
				)
				if err != nil {
					t.Fatal(err)
				}
				if viol != nil {
					t.Fatalf("model %d: postcondition violated: %+v (%d states)", m, *viol, res.States)
				}
			}
			runs, err := model.Sample(
				model.Config{Prog: tc.prog, Model: model.TL2Kind, Fence: model.FenceWaitAll},
				200, 99,
			)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range runs {
				wv := r.WVers
				if _, err := opacity.Check(r.Hist, opacity.Options{
					WVer: func(ti int) (int64, bool) { v, ok := wv[ti]; return v, ok },
				}); err != nil {
					t.Fatalf("run %d: %v\n%s", i, err, r.Hist)
				}
			}
		})
	}
}

// TestReadPrivatizeNeedsItsFence: the load-only owner still fences —
// without it a writer that saw the flag clear commits after the private
// load, which the TL2 model exhibits as a postcondition violation.
func TestReadPrivatizeNeedsItsFence(t *testing.T) {
	found, res, err := model.Exists(
		model.Config{Prog: readPrivatize(false), Model: model.TL2Kind, Fence: model.FenceNoOp},
		func(f model.Final) bool { return !readPrivatizePost(f) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("fence-free read-privatization anomaly not reachable (%d states)", res.States)
	}
}

// --- A region whose flag carries the structure's shape (stmkv's growth) ---

// TestGuardPayloadVerdicts: the grower's fence makes the payload idiom
// DRF, and its postcondition holds in every interleaving of both models
// and in the sampled TL2 traces, which pass the strong-opacity
// pipeline. The twin that publishes without the fence is racy, and
// the TL2 model reaches a final that violates the postcondition.
func TestGuardPayloadVerdicts(t *testing.T) {
	t.Run("guard-payload", func(t *testing.T) {
		p := guardPayload(false)
		if drf, n := drfUnderAtomic(t, p); !drf {
			t.Fatalf("racy over %d traces, want DRF", n)
		}
		for _, m := range []model.TMKind{model.TL2Kind, model.AtomicKind} {
			viol, res, err := model.CheckAlways(
				model.Config{Prog: p, Model: m, Fence: model.FenceWaitAll},
				guardPayloadPost,
			)
			if err != nil {
				t.Fatal(err)
			}
			if viol != nil {
				t.Fatalf("model %d: postcondition violated: %+v (%d states)", m, *viol, res.States)
			}
		}
		runs, err := model.Sample(
			model.Config{Prog: p, Model: model.TL2Kind, Fence: model.FenceWaitAll},
			200, 101,
		)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range runs {
			wv := r.WVers
			if _, err := opacity.Check(r.Hist, opacity.Options{
				WVer: func(ti int) (int64, bool) { v, ok := wv[ti]; return v, ok },
			}); err != nil {
				t.Fatalf("run %d: %v\n%s", i, err, r.Hist)
			}
		}
	})
	t.Run("guard-payload-racy", func(t *testing.T) {
		p := guardPayload(true)
		if drf, n := drfUnderAtomic(t, p); drf {
			t.Fatalf("DRF over %d traces, want racy", n)
		}
		found, res, err := model.Exists(
			model.Config{Prog: p, Model: model.TL2Kind, Fence: model.FenceWaitAll},
			func(f model.Final) bool { return !guardPayloadPost(f) },
		)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("no final violates the postcondition (%d states)", res.States)
		}
	})
}

// TestGuardPayloadFlagsMirrorRegion: the program's flag values are the
// ones region.Guard writes — an exclusive take of a fresh region with
// payload 0, then a publish that carries payload 1.
func TestGuardPayloadFlagsMirrorRegion(t *testing.T) {
	tm := tl2.New(1, 1)
	g := region.Guard{Flag: RegFlag}
	steps := []struct {
		name string
		body func(core.Txn) error
		want int64
	}{
		{"take", func(tx core.Txn) error { return g.Take(tx, region.Exclusive, region.NoWindow) }, flagGrowing},
		{"publish", func(tx core.Txn) error { return g.GiveWith(tx, 1) }, flagGrown},
	}
	for _, st := range steps {
		if err := core.Atomically(tm, 1, st.body); err != nil {
			t.Fatal(err)
		}
		if f := tm.Load(1, RegFlag); f != st.want {
			t.Fatalf("flag after the %s is %#x, want %#x", st.name, f, st.want)
		}
	}
	if p := region.Payload(flagGrown); p != 1 {
		t.Fatalf("flagGrown carries payload %d, want 1", p)
	}
}

// fig1aPost is Figure 1(a)'s postcondition.
func fig1aPost(f model.Final) bool {
	if f.Locals[1]["l"] == model.ResCommitted {
		return f.Regs[RegX] == NuVal
	}
	return true
}

// fig2Post is Figure 2's postcondition.
func fig2Post(f model.Final) bool {
	if f.Locals[2]["l2"] == model.ResCommitted && f.Locals[2]["l"] != 0 {
		return f.Locals[2]["l"] == TxVal
	}
	return true
}

// fig3Post is Figure 3's postcondition.
func fig3Post(f model.Final) bool {
	if f.Regs[RegX] == f.Locals[2]["l1"] {
		return f.Regs[regY] == f.Locals[2]["l2"]
	}
	return true
}

// fig6Post is Figure 6's postcondition.
func fig6Post(f model.Final) bool {
	if f.Locals[1]["l1"] == model.ResCommitted && f.Locals[2]["l2"] != 0 {
		return f.Locals[2]["l3"] == TxVal
	}
	return true
}

// staticSeparationPost: transactional atomicity within the separated
// registers — seeing the second write implies seeing the first.
func staticSeparationPost(f model.Final) bool {
	if f.Locals[2]["l2"] == model.ResCommitted && f.Locals[2]["b"] == 12 {
		return f.Locals[2]["a"] == 11
	}
	return true
}

// privatizePublishPost is privatizePublish's postcondition.
func privatizePublishPost(f model.Final) bool {
	if f.Locals[2]["l3"] == model.ResCommitted && f.Locals[2]["f"] == 2 {
		return f.Locals[2]["lx"] == 11
	}
	return true
}

// readPrivatizePost is readPrivatize(false)'s postcondition.
func readPrivatizePost(f model.Final) bool {
	if f.Locals[1]["l1"] == model.ResCommitted &&
		f.Locals[2]["l3"] == model.ResCommitted && f.Locals[2]["f"] == 0 {
		return f.Locals[1]["lx"] == TxVal
	}
	return true
}

// guardPayloadPost is guardPayload's postcondition.
func guardPayloadPost(f model.Final) bool {
	l := f.Locals[2]
	if l["l3"] != model.ResCommitted {
		return true
	}
	if l["f"] == 0 && f.Locals[1]["l1"] == model.ResCommitted && f.Locals[1]["lx"] != TxVal {
		return false
	}
	return l["f"] != flagGrown || l["b"] == RebuiltVal
}
