// Package region is the paper's privatization idiom (§2.1, Figure 7)
// as one primitive: commit a transaction that marks a region private,
// fence, access the region with uninstrumented loads and stores, and
// publish it with a transaction that marks it shared again. Under
// Theorem 5.3 a program that follows the idiom is DRF assuming strong
// atomicity, so it is safe on every TM in the registry, weakly atomic
// TL2 included. stmkv's shards, stmds.SkipMap's scan windows and
// stmds.HashMap's doublings all privatize and publish through it, and
// stmalloc's block retires fence through it.
//
// Owner is the owning half: Privatize commits the privatizing
// transaction and fences, Fence is the one fence of every private
// phase, and Publish commits the publishing transaction and opens the
// owner's publish gate. The gate is the waiting half: an operation that
// found a region private waits on it (Owner.Retry) until the owner
// publishes. Owner has no way to take a region without fencing it.
//
// Guard is the mark a region carries in TM registers: a flag, and the
// bounds of the window a read-private owner loads. The flag packs three
// fields, low to high:
//
//	bits 0–1    the region's state (below)
//	bits 2–25   a 24-bit payload the structure chooses (stmkv: the
//	            shard's capacity)
//	bits 26–62  a 37-bit count of publishes
//
// Take and Give keep the payload; GiveWith replaces it as it publishes.
// So a structure whose shape changes only in a private phase can keep
// that shape in the flag, and an operation learns the region's state
// and its shape in one read.
//
//	state        owner (uninstrumented)   transactions admitted
//	shared       —                        all
//	Exclusive    loads and stores         none
//	ReadPrivate  loads in [Lo, Hi]        readers, and writers outside
//	                                      [Lo, Hi]
//
// Writers call Writable and refuse with ErrPrivate before they write
// anything the window holds. Readers call Readable and stall on
// Exclusive only. A privatizing transaction calls Take, which stalls
// while the flag is odd, so two owners never hold one region (or
// Claimable and TakeFrom, Take's two halves, when it must read the
// payload before it picks its window).
// (stmds.HashMap marks its table with a bit of its packed head word
// instead of a Guard: a flag register of its own would add a read to
// every operation. A Guard's payload does the same for stmkv's shard
// capacity.)
//
// # Safety
//
// The paper's data race is a pair of conflicting accesses, one
// transactional and one not, unordered by happens-before; two accesses
// conflict only if at least one is a write. A transaction that reads
// the mark after the privatizing commit sees the region private and
// stops before it touches anything the owner accesses. One that read it
// before that commit has either finished or is doomed by it, since the
// commit overwrote a register it read (the conflict Theorem 5.3 relies
// on), and the fence waits until it has finished. So every
// uninstrumented access of the private phase happens after every
// transaction that saw the region shared, and before every transaction
// that sees the publish. The check must come before the transaction's
// first write: on a TM that writes in place (wtstm) a doomed write
// stays in memory until its rollback, and only the fence orders that
// rollback before the private phase.
//
// The payload adds no case. It changes only in the publishing write, so
// a transaction that read a payload read the flag that carries it: it
// saw the region shared or read-private with that payload, and is
// stalled, doomed or fenced out exactly as a transaction that read a
// separate register the owner rewrites. The publish count wraps after
// 2^37 publishes, and the wrap is harmless. TL2, wtstm and atomictm
// validate a read by the register's version, which every commit
// advances whatever value it writes. NOrec validates by value, so a
// flag that came back to a value a running transaction read would pass
// its validation; but that needs the count to wrap within that one
// transaction's life, and a transaction lives through at most one
// publish of a region whose flag it read: the next privatization's
// fence waits for it before the next publish.
//
// In the read-private state the owner only loads, and only registers
// its window holds. A transaction that only reads conflicts with none
// of those loads, so readers run beside the owner without ordering. A
// transaction that writes in the window reads the flag and the bounds
// first, and stalls or is fenced out as above, which is why a
// read-private take still fences. A writer outside the window stores to
// registers the owner never loads, so it races with nothing. An
// exclusive owner that follows a window fences after its own
// privatizing commit, and that fence waits for every transaction still
// running, whichever state it saw.
//
// internal/litmus carries the idiom and its racy twin as the programs
// read-privatize and read-privatize-racy. TestFenceNecessary in stmkv,
// stmds and stmalloc races every private phase against a writer parked
// before its commit, and fails when Owner.Fence does nothing.
package region

import (
	"errors"

	"safepriv/internal/core"
	"safepriv/internal/telemetry"
)

// Region states: the two low bits of a Guard's flag.
const (
	shared      int64 = 0
	Exclusive   int64 = 1 // the owner loads and stores uninstrumented
	ReadPrivate int64 = 3 // the owner only loads, inside its window
	stateMask   int64 = 3
)

// The flag's payload and publish-count fields (Guard).
const (
	payloadShift       = 2
	payloadBits        = 24
	maxPayload   int64 = 1<<payloadBits - 1
	countShift         = payloadShift + payloadBits
	countMask    int64 = 1<<(63-countShift) - 1
)

// SharedFlag is the flag of a shared region that carries payload p and
// was never published: a structure stores it in the flag register
// before the region's first use. p must be in [0, 2^24).
func SharedFlag(p int64) int64 {
	if p < 0 || p > maxPayload {
		panic("region: payload out of range")
	}
	return p << payloadShift
}

// Payload returns the payload flag f carries, whatever its state.
func Payload(f int64) int64 { return f >> payloadShift & maxPayload }

// published is the flag that follows f on a publish: shared, carrying
// payload p, with one more publish counted (modulo 2^37).
func published(f, p int64) int64 {
	return (f>>countShift+1)&countMask<<countShift | SharedFlag(p)
}

// ErrPrivate aborts an operation that found its region private; the
// operation waits on the owner's gate and retries (Owner.Retry).
var ErrPrivate = errors.New("region: privatized")

// Window is the range [Lo, Hi] of a read-private owner's loads, in the
// units of its structure: slots for stmkv, keys for stmds.SkipMap.
// NoWindow, or any window with Lo > Hi, holds nothing.
type Window struct{ Lo, Hi int64 }

// NoWindow holds nothing.
var NoWindow = Window{0, -1}

// Overlaps reports whether the range [a, b] meets the window: a writer
// whose stores reach into that range must not store.
func (w Window) Overlaps(a, b int64) bool { return w.Lo <= w.Hi && a <= w.Hi && w.Lo <= b }

// Holds reports whether x is in the window.
func (w Window) Holds(x int64) bool { return w.Overlaps(x, x) }

// Guard is a region's mark: the registers of its flag and of its
// window's bounds.
type Guard struct{ Flag, Lo, Hi int }

// Writable is the check of a transaction that writes the region. It
// fails with ErrPrivate while the region is exclusive, and otherwise
// returns the payload, and the window while the region is read-private,
// so the caller can refuse (ErrPrivate) before it writes a register the
// window holds.
func (g Guard) Writable(tx core.Txn) (payload int64, w Window, err error) {
	f, err := tx.Read(g.Flag)
	switch {
	case err != nil:
		return 0, NoWindow, err
	case f&stateMask == Exclusive:
		return 0, NoWindow, ErrPrivate
	case f&stateMask != ReadPrivate:
		return Payload(f), NoWindow, nil
	}
	lo, err := tx.Read(g.Lo)
	if err != nil {
		return 0, NoWindow, err
	}
	hi, err := tx.Read(g.Hi)
	if err != nil {
		return 0, NoWindow, err
	}
	return Payload(f), Window{lo, hi}, nil
}

// Readable is the check of a transaction that only reads the region:
// it fails with ErrPrivate while the region is exclusive, and otherwise
// returns the payload. beside reports that the region is read-private,
// so the transaction runs beside the owner's loads.
func (g Guard) Readable(tx core.Txn) (payload int64, beside bool, err error) {
	f, err := tx.Read(g.Flag)
	switch {
	case err != nil:
		return 0, false, err
	case f&stateMask == Exclusive:
		return 0, false, ErrPrivate
	}
	return Payload(f), f&stateMask == ReadPrivate, nil
}

// Take is the privatizing transaction's write: it fails with ErrPrivate
// while another owner holds the region, and otherwise moves the flag
// to state (Exclusive or ReadPrivate), keeping its payload, and, for
// ReadPrivate, records w.
func (g Guard) Take(tx core.Txn, state int64, w Window) error {
	f, err := g.Claimable(tx)
	if err != nil {
		return err
	}
	return g.TakeFrom(tx, f, state, w)
}

// Claimable is Take's check, for a privatizing transaction that sizes
// its window from the payload: it fails with ErrPrivate while another
// owner holds the region, and otherwise returns the flag. The
// transaction reads what it needs, then hands the flag to TakeFrom, so
// the flag is read once and checked before any other read.
func (g Guard) Claimable(tx core.Txn) (f int64, err error) {
	if f, err = tx.Read(g.Flag); err == nil && f&1 == 1 {
		err = ErrPrivate
	}
	return f, err
}

// TakeFrom is Take's write, given the flag f that Claimable returned
// in the same transaction.
func (g Guard) TakeFrom(tx core.Txn, f, state int64, w Window) error {
	if state == ReadPrivate {
		if err := tx.Write(g.Lo, w.Lo); err != nil {
			return err
		}
		if err := tx.Write(g.Hi, w.Hi); err != nil {
			return err
		}
	}
	return tx.Write(g.Flag, f+state)
}

// Give is the publishing transaction's write: the region is shared
// again, from either private state, with its payload kept and one more
// publish counted.
func (g Guard) Give(tx core.Txn) error {
	f, err := tx.Read(g.Flag)
	if err != nil {
		return err
	}
	return tx.Write(g.Flag, published(f, Payload(f)))
}

// GiveWith is Give that replaces the payload with p, in [0, 2^24): the
// publish of a private phase that changed what the payload describes.
func (g Guard) GiveWith(tx core.Txn, p int64) error {
	f, err := tx.Read(g.Flag)
	if err != nil {
		return err
	}
	return tx.Write(g.Flag, published(f, p))
}

// Owner privatizes and publishes the regions of one structure over one
// TM: the privatizing and publishing transactions, the fence between
// them, and the gate that wakes waiters. stmalloc's retires use its
// Fence alone: their privatizing transaction is the caller's unlink.
type Owner struct {
	tm    core.TM
	board *telemetry.Board
	gate  gate
}

// NewOwner returns an owner over tm. Privatizations are counted on tm's
// telemetry board when it carries one.
func NewOwner(tm core.TM) *Owner {
	o := &Owner{tm: tm}
	if p, ok := tm.(telemetry.Provider); ok {
		o.board = p.TelemetryBoard()
	}
	return o
}

// Retry runs body as a transaction of thread th, and again after every
// publish for as long as it fails with ErrPrivate.
func (o *Owner) Retry(th int, body func(core.Txn) error) error {
	return o.gate.Retry(o.tm, th, ErrPrivate, body)
}

// Fence waits until every transaction running when it was called has
// finished. After a privatizing commit it is what makes the private
// phase race-free.
func (o *Owner) Fence(th int) {
	o.tm.Fence(th)
}

// Privatize commits the privatizing transaction body, waiting while it
// fails with ErrPrivate, counts one privatization and fences: after it
// returns, the region is the caller's to access uninstrumented.
func (o *Owner) Privatize(th int, body func(core.Txn) error) error {
	if err := o.Retry(th, body); err != nil {
		return err
	}
	if sl := o.board.Slot(th); sl != nil {
		sl.Privatizations.Add(1)
	}
	o.Fence(th)
	return nil
}

// Publish commits the publishing transaction body and then wakes every
// operation waiting on the gate.
func (o *Owner) Publish(th int, body func(core.Txn) error) error {
	err := core.Atomically(o.tm, th, body)
	if err == nil {
		o.gate.Open()
	}
	return err
}
