package txexec

// The windowed data-structure executor: the conflict-window discipline
// of Run (pinned back-before-front serialization, read-only cancel,
// conflict cancel) applied to real stmds operations instead of
// interpreted model programs. The differences from the model executor
// fall out of op bodies being opaque Go closures over a Txn:
//
//   - The model executor interleaves at statement granularity; here a
//     hookTxn counts the front op's TM operations and fires the back op
//     after a seeded prefix, so the back commits while the front is
//     paused mid-traversal — the interleaving the serial DS suite can
//     never produce.
//   - Read-only-ness cannot be predicted by scanning statements, so the
//     read-only cancel is dynamic: if the front's body completes
//     without a single Write after the back committed inside its
//     window, the attempt is discarded and re-run serially after the
//     back. (A read-only transaction may legally commit its pre-back
//     snapshot — NOrec read-only commits skip validation — which would
//     serialize it before the back against the pinned order.)
//   - Ops carry post-commit actions (node frees, the Fig. 7 idiom).
//     These never run inside a window or while any transaction is open
//     on the executor goroutine — a Free fences, and the fence would
//     deadlock against the goroutine's own paused front.
//     Instead they queue on a pending list that drains at seeded
//     quiescent points between rounds (and fully at the end), so
//     reclamation — including magazine batch retires — races the
//     traversals that follow, under the executor's control.
//
// The oracle for a windowed run is the replay of its recorded Order on
// a plain in-memory model: the order is pinned back-before-front, so
// any divergence means the TM committed a serialization it must not.

import (
	"errors"
	"fmt"
	"math/rand"

	"safepriv/internal/core"
)

// DSOp is one data-structure operation for RunDS.
type DSOp struct {
	// Name labels the op in errors.
	Name string
	// Run executes the op inside tx under thread th, returning the op's
	// observable result and an optional post-commit action (the stmds
	// Tx-level methods compose directly; frees of unlinked nodes go in
	// post). Run may execute several times — aborted attempts are
	// retried — so it must be restartable: no side effects outside tx
	// except through the post action of the attempt that commits, and
	// any non-transactional draw (a tower height) must be memoized on
	// first execution. TM errors from tx must be returned unwrapped.
	Run func(tx core.Txn, th int) (res int64, post func(), err error)
}

// DSRef names one op of a script set: thread id (1-based) and op index.
type DSRef struct{ Thread, Index int }

// DSResult is the outcome of RunDS.
type DSResult struct {
	// Results[t-1][i] is the result of scripts[t-1][i] (dense: ops of a
	// thread complete in script order).
	Results [][]int64
	// Order is the serialization order the run pinned: replaying the
	// ops in this order on a sequential model must reproduce Results.
	Order []DSRef
}

// errWindowCancel aborts a front attempt from inside its own body when
// the back of its window cannot commit (conflict cancel: the paused
// front holds encounter locks on wtstm/2PL).
var errWindowCancel = errors.New("txexec: window cancelled")

// hookTxn wraps the front op's transaction, counting TM operations and
// firing the back op once after a seeded prefix.
type hookTxn struct {
	core.Txn
	countdown int // TM ops before the hook fires
	fired     bool
	hook      func() error
	hookErr   error
	wrote     bool
}

func (h *hookTxn) step() error {
	if h.fired || h.hook == nil {
		return nil
	}
	if h.countdown > 0 {
		h.countdown--
		return nil
	}
	h.fired = true
	if err := h.hook(); err != nil {
		h.hookErr = err
		return err
	}
	return nil
}

func (h *hookTxn) Read(x int) (int64, error) {
	if err := h.step(); err != nil {
		return 0, err
	}
	return h.Txn.Read(x)
}

func (h *hookTxn) Write(x int, v int64) error {
	if err := h.step(); err != nil {
		return err
	}
	h.wrote = true
	return h.Txn.Write(x, v)
}

// dsExec is the run state of RunDS.
type dsExec struct {
	tm      core.TM
	opt     Options
	r       *rand.Rand
	scripts [][]DSOp
	res     DSResult
	pcs     []int    // per-thread next-op index (0-based by thread-1)
	pending []func() // committed post actions awaiting a quiescent flush
}

// RunDS executes the per-thread op scripts on tm under opt's seeded
// schedule: one op per round from a seeded live thread, windowed
// against a second thread's op when Options.Windows is on (leave it off
// for blocking TMs — baseline's Begin holds the global lock, so a back
// op inside a window would self-deadlock). Returns every op's result
// and the pinned serialization order; errors are fatal executor or
// allocator failures, never TM aborts (those are resolved by the window
// discipline).
func RunDS(tm core.TM, scripts [][]DSOp, opt Options) (DSResult, error) {
	if opt.WindowPct == 0 {
		opt.WindowPct = 60
	}
	if opt.MaxAttempts == 0 {
		opt.MaxAttempts = 100000
	}
	e := &dsExec{
		tm:      tm,
		opt:     opt,
		r:       rand.New(rand.NewSource(opt.Seed)),
		scripts: scripts,
		pcs:     make([]int, len(scripts)),
	}
	e.res.Results = make([][]int64, len(scripts))
	for i := range scripts {
		e.res.Results[i] = make([]int64, 0, len(scripts[i]))
	}
	for {
		var live []int // thread ids with ops remaining
		for i := range e.scripts {
			if e.pcs[i] < len(e.scripts[i]) {
				live = append(live, i+1)
			}
		}
		if len(live) == 0 {
			break
		}
		// Quiescent point: no transaction is open on this goroutine, so
		// parked post-commit actions (frees, batch retires) may run.
		// Seeded, partial drains leave reclamation in flight across later
		// windows — the races the suite is after.
		for len(e.pending) > 0 && e.r.Intn(100) < 35 {
			e.flushOne()
		}
		ti := e.r.Intn(len(live))
		t := live[ti]
		var partner int
		if len(live) > 1 {
			pi := e.r.Intn(len(live) - 1)
			if pi >= ti {
				pi++
			}
			partner = live[pi]
		}
		doWin := e.r.Intn(100) < e.opt.WindowPct // drawn in both modes, for seed alignment
		if !e.opt.Windows || partner == 0 || !doWin {
			if err := e.runOpSerial(t); err != nil {
				return e.res, err
			}
			continue
		}
		if err := e.runWindow(t, partner); err != nil {
			return e.res, err
		}
	}
	for len(e.pending) > 0 {
		e.flushOne()
	}
	return e.res, nil
}

func (e *dsExec) flushOne() {
	p := e.pending[0]
	e.pending = e.pending[1:]
	if p != nil {
		p()
	}
}

// record commits op results: thread t's next op produced res, with post
// parked until a quiescent point.
func (e *dsExec) record(t int, res int64, post func()) {
	e.res.Order = append(e.res.Order, DSRef{Thread: t, Index: e.pcs[t-1]})
	e.res.Results[t-1] = append(e.res.Results[t-1], res)
	e.pcs[t-1]++
	if post != nil {
		e.pending = append(e.pending, post)
	}
}

// tryOpOnce runs one full attempt of thread t's next op; ok=false on a
// TM abort (the attempt's effects are discarded, nothing recorded).
func (e *dsExec) tryOpOnce(t int) (res int64, post func(), ok bool, err error) {
	op := e.scripts[t-1][e.pcs[t-1]]
	tx := e.tm.Begin(t)
	res, post, err = op.Run(tx, t)
	if err != nil {
		if errors.Is(err, core.ErrAborted) {
			return 0, nil, false, nil // TM abort mid-body: tx is finished
		}
		tx.Abort()
		return 0, nil, false, fmt.Errorf("txexec: op %s (thread %d, index %d): %w", op.Name, t, e.pcs[t-1], err)
	}
	if err := tx.Commit(); err != nil {
		if errors.Is(err, core.ErrAborted) {
			return 0, nil, false, nil
		}
		return 0, nil, false, err
	}
	return res, post, true, nil
}

// runOpSerial retries thread t's next op until it commits, then records
// it.
func (e *dsExec) runOpSerial(t int) error {
	for i := 0; i < e.opt.MaxAttempts; i++ {
		res, post, ok, err := e.tryOpOnce(t)
		if err != nil {
			return err
		}
		if ok {
			e.record(t, res, post)
			return nil
		}
	}
	return fmt.Errorf("txexec: op %s (thread %d, index %d) did not commit after %d attempts",
		e.scripts[t-1][e.pcs[t-1]].Name, t, e.pcs[t-1], e.opt.MaxAttempts)
}

// runWindow opens a conflict window: front = thread t's next op, back =
// thread partner's next op, pinned order back before front. The back
// runs to commit inside the front's execution window, after a seeded
// prefix of the front's TM operations.
func (e *dsExec) runWindow(t, partner int) error {
	preOps := 1 + e.r.Intn(4)
	var backRes int64
	var backPost func()
	backCommitted := false
	hook := func() error {
		// The paused front may hold encounter locks (wtstm, 2PL) that
		// doom the back: bounded tries, then conflict cancel.
		for try := 0; try < 3; try++ {
			res, post, ok, err := e.tryOpOnce(partner)
			if err != nil {
				return err
			}
			if ok {
				backRes, backPost, backCommitted = res, post, true
				return nil
			}
		}
		return errWindowCancel
	}
	op := e.scripts[t-1][e.pcs[t-1]]
	h := &hookTxn{Txn: e.tm.Begin(t), countdown: preOps, hook: hook}
	fres, fpost, ferr := op.Run(h, t)

	recordBack := func() {
		if backCommitted {
			e.record(partner, backRes, backPost)
		}
	}
	switch {
	case errors.Is(e.errOf(ferr, h), errWindowCancel):
		// Conflict cancel: release the front's locks, then run the
		// pinned order serially.
		h.Txn.Abort()
		if err := e.runOpSerial(partner); err != nil {
			return err
		}
		return e.runOpSerial(t)
	case ferr == nil && h.hookErr == nil:
		if backCommitted && !h.wrote {
			// Dynamic read-only cancel: this front could commit its
			// pre-back snapshot (NOrec skips read-only validation),
			// serializing before the back. Discard it; serial re-run
			// lands after the back, matching the pinned order.
			h.Txn.Abort()
			recordBack()
			return e.runOpSerial(t)
		}
		if err := h.Txn.Commit(); err != nil {
			if !errors.Is(err, core.ErrAborted) {
				return err
			}
			recordBack()
			return e.runOpSerial(t)
		}
		recordBack()
		e.record(t, fres, fpost)
		return nil
	case errors.Is(ferr, core.ErrAborted):
		// The TM aborted the front mid-body (doomed by the back's commit,
		// or by an in-flight reclamation publish); the txn is finished.
		recordBack()
		return e.runOpSerial(t)
	default:
		h.Txn.Abort()
		if h.hookErr != nil {
			return fmt.Errorf("txexec: back op (thread %d, index %d) inside window: %w", partner, e.pcs[partner-1], h.hookErr)
		}
		return fmt.Errorf("txexec: op %s (thread %d, index %d): %w", op.Name, t, e.pcs[t-1], ferr)
	}
}

// errOf folds the front body's error and the hook's error for the
// cancel check (the body may return the hook's sentinel unwrapped or
// wrapped; hookErr keeps it visible either way).
func (e *dsExec) errOf(ferr error, h *hookTxn) error {
	if h.hookErr != nil {
		return h.hookErr
	}
	return ferr
}
