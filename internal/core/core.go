// Package core defines the programming model of "Safe Privatization in
// Transactional Memory" (PPoPP 2018, §2.1) as a Go API: a transactional
// memory managing a fixed collection of integer registers, accessed
// transactionally (inside atomic blocks) or non-transactionally
// (uninstrumented), plus the transactional fence command.
//
// Implementations, all built through internal/engine: internal/tl2
// (the paper's case-study TM, Figure 9, with RCU-style fences,
// Figure 7), internal/norec (NOrec, privatization-safe without
// fences), internal/wtstm (a write-through undo-log TM, subject to the
// delayed-abort anomaly), internal/atomictm (a striped two-phase-locking
// runtime that is strongly atomic by construction) and
// internal/baseline (a global-lock TM that is trivially strongly
// atomic). Their fences wait out grace periods through one shared
// type, internal/rcu's Fence.
//
// The contract established by the paper (Theorem 5.3) applies: if the
// program is data-race free assuming strong atomicity — in particular,
// if it follows the privatization idiom with a Fence between the
// privatizing transaction and the first non-transactional access, or
// the publication idiom — then its behaviour on a strongly opaque TM
// such as TL2 is strongly atomic.
package core

import (
	"errors"
	"runtime"
	"time"

	"safepriv/internal/telemetry"
)

// ErrAborted is returned by transactional operations when the TM aborts
// the transaction. After ErrAborted from the TM the transaction is
// finished; the caller must not use it further (Atomically retries
// automatically). Code running inside a transaction may also return
// ErrAborted itself to ask for a retry — a structure that finds the
// state it read doomed — and then the transaction is still live;
// Txn.Live tells the two apart.
var ErrAborted = errors.New("stm: transaction aborted")

// Txn is a running transaction: the operations available inside an
// atomic block. A Txn is owned by a single goroutine.
type Txn interface {
	// Read returns the current value of register x (x.read()).
	Read(x int) (int64, error)
	// Write sets register x to v (x.write(v)).
	Write(x int, v int64) error
	// Commit attempts to commit. It returns nil on commit and
	// ErrAborted if the TM aborts instead.
	Commit() error
	// Abort aborts the transaction voluntarily (used by Atomically when
	// the body fails; the paper's language has no user-initiated abort,
	// so implementations model it as an aborting commit).
	Abort()
	// Live reports whether the transaction is still running: true from
	// Begin until Commit, Abort, or an operation returning ErrAborted
	// ends it.
	Live() bool
}

// TM is a transactional memory over registers 0..NumRegs()-1. Thread
// ids are 1-based and at most the TM's configured thread count; each
// thread id must be used by at most one goroutine at a time.
type TM interface {
	// NumRegs returns the number of registers managed by the TM.
	NumRegs() int
	// Begin starts a transaction in the given thread.
	Begin(thread int) Txn
	// Fence is the transactional fence: it blocks until every
	// transaction active at the time of the call has committed or
	// aborted. It must not be called inside a transaction.
	Fence(thread int)
	// Load reads register x non-transactionally (uninstrumented).
	Load(thread, x int) int64
	// Store writes register x non-transactionally (uninstrumented).
	Store(thread, x int, v int64)
}

// maxAttempts bounds Atomically's retry loop; exceeding it returns
// errContention. The bound is generous: TL2 livelock over bounded
// register sets is short-lived.
const maxAttempts = 1_000_000

// errContention is returned by Atomically when a transaction failed to
// commit after maxAttempts attempts.
var errContention = errors.New("stm: transaction did not commit after maxAttempts attempts")

// Contention backoff: after backoffAfter consecutive aborted attempts
// Atomically stops retrying immediately and waits an exponentially
// growing, jittered, capped delay between attempts. Immediate retry is
// optimal for one-off validation failures, but under sustained
// write-write contention it turns the retry loop into a coherence
// storm where every thread invalidates the others' lines; backing off
// desynchronizes the herd (the classic CSMA/CD remedy).
//
// The wait yields the processor (runtime.Gosched) until the delay has
// elapsed; it never arms a timer. The delays are 1–100 µs, and a timer
// that short returns when the scheduler next polls timers — about a
// millisecond later on a small host. A retry that waits out a private
// window would then wait ten to a thousand times the delay it asked
// for. Yielding lets the owner of the window, or the conflicting
// committer, run in the meantime.
const (
	// backoffAfter is how many aborted attempts are retried immediately
	// before backoff engages — transient conflicts stay latency-free.
	backoffAfter = 3
	// backoffBase is the first (pre-jitter) backoff delay.
	backoffBase = time.Microsecond
	// backoffCap is the hard ceiling on any single backoff delay,
	// jitter included.
	backoffCap = 100 * time.Microsecond
)

// backoffDelay returns the delay Atomically waits before retry number
// `attempt` (0-based) on `thread`: zero for the first backoffAfter
// attempts, then exponential doubling from backoffBase with
// deterministic per-(thread,attempt) jitter, clamped to backoffCap.
// Deterministic and side-effect free so the policy is table-testable.
func backoffDelay(thread, attempt int) time.Duration {
	if attempt < backoffAfter {
		return 0
	}
	exp := attempt - backoffAfter
	if exp > 20 {
		exp = 20 // avoid shifting past the cap (and past 63 bits)
	}
	d := backoffBase << uint(exp)
	if d > backoffCap {
		d = backoffCap
	}
	// Jitter in [0, d/2], hashed from (thread, attempt) so threads that
	// abort in lockstep re-arrive spread out, yet every delay is
	// reproducible for tests.
	h := uint64(thread+1)*0x9E3779B97F4A7C15 ^ uint64(attempt+1)*0xBF58476D1CE4E5B9
	h ^= h >> 33
	d += time.Duration(h % uint64(d/2+1))
	if d > backoffCap {
		d = backoffCap
	}
	return d
}

// Atomically runs body as a transaction in the given thread, retrying
// on aborts (the TM's, or the body's own ErrAborted), and returns the
// first non-abort error from the body (after aborting the transaction)
// or nil once a run of the body commits. It is the `l := atomic { C }`
// construct with the conventional retry-on-abort policy; the final
// commit/abort verdict of each attempt is what the paper's atomic block
// returns in l.
//
// Repeated aborts trigger the capped exponential backoff above. When
// the TM carries a telemetry board (telemetry.Provider), commits,
// aborts and backoff time are recorded into the calling thread's slot.
func Atomically(tm TM, thread int, body func(Txn) error) error {
	var slot *telemetry.Slot
	if p, ok := tm.(telemetry.Provider); ok {
		slot = p.TelemetryBoard().Slot(thread)
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if d := backoffDelay(thread, attempt); d > 0 {
			// Record the delay taken, not the delay asked for: a yield
			// may hand the processor to a goroutine that keeps it longer.
			start := time.Now()
			elapsed := time.Duration(0)
			for elapsed < d {
				runtime.Gosched()
				elapsed = time.Since(start)
			}
			if slot != nil {
				slot.BackoffNs.Add(int64(elapsed))
			}
		}
		tx := tm.Begin(thread)
		err := body(tx)
		switch {
		case err == nil:
			if cerr := tx.Commit(); cerr == nil {
				if slot != nil {
					slot.Commits.Add(1)
					if attempt > 0 {
						slot.Aborts.Add(int64(attempt))
					}
				}
				return nil
			}
			// TM abort at commit: retry.
		case errors.Is(err, ErrAborted):
			// Abort mid-body: retry. When the body, not the TM, decided
			// it (a structure's guard returning ErrAborted), the
			// transaction is still live and must be ended first.
			if tx.Live() {
				tx.Abort()
			}
		default:
			tx.Abort()
			return err
		}
	}
	if slot != nil {
		slot.Aborts.Add(maxAttempts)
	}
	return errContention
}
