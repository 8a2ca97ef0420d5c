// Package stripe provides the shared register/version-lock table used
// by the ownership-record TMs (tl2, wtstm, and the executable atomictm
// runtime): a dense array of register values plus a striped, equally
// dense array of versioned write-locks (package vlock).
//
// Striping decouples the lock-table size from the register count, the
// classic TL2 "PS" (per-stripe) mode: register x is guarded by stripe
// x & mask. With at least as many stripes as registers (the default for
// small register counts) the mapping is injective and the table behaves
// exactly like the per-register parallel arrays it replaces; with fewer
// stripes than registers, distinct registers may alias to one lock,
// which is conservative — aliasing can only add false conflicts, never
// hide a true one — and lets a TM manage register counts far beyond
// what dedicated per-register lock arrays would allow.
//
// TMs that lock their write-sets must dedupe by *stripe*, not by
// register: two distinct registers in one write-set may share a stripe,
// and the versioned locks are not reentrant. LockFor/StripeOf expose
// the mapping so commit paths can do this.
//
// The lock words are not padded apart. Values are one word per register
// in a dense array, so registers x and y already share a cache line of
// values whenever x/8 == y/8; with one 8-byte lock word per stripe the
// same pairs — and no others — share a line of locks. A pad per lock
// therefore isolates nothing the value array has not already given
// away, while multiplying the table by eight: at the default cap the
// padded table was 4 MiB, which pushed locks + values of the KV store
// (200 K registers) out of L2. Dense, it is 512 KiB.
package stripe

import (
	"fmt"
	"sync/atomic"

	"safepriv/internal/vlock"
)

// maxDefaultStripes caps the lock table allocated when the stripe count
// is left to the default. 1<<16 stripes is 512 KiB of lock words, which
// together with the values they guard still fits a typical L2; beyond
// that, aliasing is cheaper than the memory and its cache pressure (a
// 1<<19 cap was measured on the store workloads: no further gain).
const maxDefaultStripes = 1 << 16

// Table is a striped register/version-lock table. Values are dense (one
// atomic word per register — the registers are the memory itself);
// locks are striped and equally dense (see the package comment).
type Table struct {
	vals  []atomic.Int64
	locks []vlock.VLock
	mask  uint32
}

// New returns a table for regs registers. stripes is the lock-table
// size and must be zero or a power of two; zero selects the default:
// the smallest power of two ≥ regs, capped at maxDefaultStripes (so
// small tables get an injective register↦stripe mapping and huge tables
// get bounded lock memory).
func New(regs, stripes int) *Table {
	if regs < 0 {
		panic(fmt.Sprintf("stripe: negative register count %d", regs))
	}
	if stripes == 0 {
		stripes = 1
		for stripes < regs && stripes < maxDefaultStripes {
			stripes <<= 1
		}
	}
	if stripes <= 0 || stripes&(stripes-1) != 0 {
		panic(fmt.Sprintf("stripe: stripe count %d is not a power of two", stripes))
	}
	return &Table{
		vals:  make([]atomic.Int64, regs),
		locks: make([]vlock.VLock, stripes),
		mask:  uint32(stripes - 1),
	}
}

// Regs returns the number of registers.
func (t *Table) Regs() int { return len(t.vals) }

// StripeOf maps register x to its lock stripe.
func (t *Table) StripeOf(x int) int { return int(uint32(x) & t.mask) }

// Lock returns stripe s's versioned write-lock.
func (t *Table) Lock(s int) *vlock.VLock { return &t.locks[s] }

// LockFor returns register x's versioned write-lock (Lock(StripeOf(x))).
func (t *Table) LockFor(x int) *vlock.VLock { return &t.locks[uint32(x)&t.mask] }

// Load reads register x (a plain atomic load — uninstrumented
// non-transactional reads use this directly).
func (t *Table) Load(x int) int64 { return t.vals[x].Load() }

// Store writes register x (a plain atomic store — uninstrumented
// non-transactional writes use this directly).
func (t *Table) Store(x int, v int64) { t.vals[x].Store(v) }
