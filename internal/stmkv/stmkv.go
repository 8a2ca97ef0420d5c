// Package stmkv is a sharded transactional key-value store built on the
// core TM API: the paper's privatization idiom (§2.1, Figure 7) promoted
// from litmus test to hot path.
//
// The store divides its register span into a small per-shard header
// region and a transactional heap (internal/stmalloc) with one chunk
// per shard. Each shard is an open-addressing table (linear probing,
// tombstone deletion) stored in the one block of its chunk, at a
// register index fixed when the store is built (slot i key at tab+2i,
// value at tab+2i+1); the header carries:
//
//	base+0  flag   privatization state in the two low bits (below),
//	               the table's active slot count (cap) as the flag's
//	               payload above them, the publish count above that
//	base+1  count  live keys
//	base+2  tombs  tombstones
//	base+3  gen    rehash generation: one more after every rebuild
//	base+4  winLo  first and last slot a read-private owner loads;
//	base+5  winHi  meaningful only while the flag is read-private
//
// Point operations (Get/Put/Delete) are single transactions that read
// the shard's flag first and touch the header and table only when its
// state admits them. The flag read also yields cap, which changes only
// in a rehash's exclusive phase and is published with it
// (region.Guard.GiveWith), so a Get reads the flag and then the table
// alone, and a Put or Delete reads count and tombs only when it changes
// them. Scan, ScanPage and the growth Put triggers
// privatize the shard through package region, which carries Figure 7's
// cycle, the state encoding of the flag and the safety argument: the
// flag, winLo and winHi are the shard's region.Guard. A shard is
// exclusive while a rehash holds it, and read-private over the slot
// window [winLo, winHi] while Scan or ScanPage walks it. Put and Delete
// stall on the exclusive state, and on the read-private one when the
// slot they are about to write — a value update, an insert, a reused
// or a new tombstone — lies in the window; Get, Len and the
// transactional scan stall only on the exclusive state. So a scan
// window costs the readers of its shard nothing, and a writer elsewhere
// in the shard commits beside the walk. Scan holds the window
// [0, cap−1], the whole shard; ScanPage holds only the slots it will
// walk.
//
// Safety (region's argument covers the rest). A read-private owner
// loads only the key and value registers of the slots in
// [winLo, winHi]; it reads the bounds, the generation and the flag
// inside its privatizing transaction. A writer outside the window
// stores to registers the owner never loads, count and tombs included.
// A key that stays present keeps its slot until a rehash, which is
// exclusive, bumps gen, and so is detected by a ScanPage cursor:
// consecutive slot ranges cover every such key once.
//
// Growth is where the store meets the allocator, and it happens in
// place. A table doubles until a doubling would add more than a quarter
// of the shard's slot arena, then grows by quarter-arena steps up to
// the arena (growStep): a 4 096-slot shard passes 8, 16, … 2 048,
// 3 072, 4 096 slots, so a full table wastes at most a quarter of its
// block, not half. Once the rehash's fence has run, the shard's
// registers belong to the grower: it lays the rebuilt table out in Go
// memory from the old table's loads, extends the table's block in its
// chunk to exactly two registers a slot (stmalloc.Heap.Extend, one
// transaction on the chunk's bump pointer, which no other shard
// touches), stores the key of every slot and the value of every
// occupied one uninstrumented, and publishes. No second table is ever
// allocated and no block is freed, so a shard occupies exactly the
// block of its largest capacity so far: a block never shrinks, and
// RegsNeeded budgets one chunk of the largest class per shard. The
// fence guards more here than a move would need: the rebuild
// overwrites the very registers a doomed transaction may still be
// reading or rolling back.
//
// How often the store privatizes is set by how often callers scan and
// by the growth policy (maxLoadNum/maxLoadDen); the Stats counters
// expose it. Every privatization is one shard's own cycle with its own
// fence. Point operations wait while their shard is exclusive (on the
// owner's publish gate, rather than by re-running their transaction),
// so no reader observes a half-rebuilt shard. WithTransactionalScan
// provides the contrast configuration — Scan as one big read-only
// transaction per shard, no fence, the natural choice on a TM like
// NOrec whose privatization is safe without fences.
package stmkv

import (
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync/atomic"

	"safepriv/internal/core"
	"safepriv/internal/region"
	"safepriv/internal/stmalloc"
	"safepriv/internal/telemetry"
)

const (
	offFlag  = 0
	offCount = 1
	offTombs = 2
	offGen   = 3
	offWinLo = 4
	offWinHi = 5
	// hdrRegs is the per-shard header size in registers.
	hdrRegs = 6

	keyEmpty int64 = 0
	keyTomb  int64 = -1

	// maxLoadNum/maxLoadDen is the load factor (live + tombstones over
	// capacity) beyond which Put privatizes the shard and grows it.
	maxLoadNum = 3
	maxLoadDen = 4

	// initialCap is the active capacity shards start with (clamped to
	// the slot arena): every growth step beyond it (growStep) is a
	// privatize cycle.
	initialCap = 8
)

// ErrFull is returned by Put when the key's shard is at its arena limit
// and holds no reclaimable tombstones.
var ErrFull = errors.New("stmkv: shard full")

// ErrBadKey is returned for keys outside the storable domain. Keys must
// be positive: 0 encodes an empty slot and -1 a tombstone.
var ErrBadKey = errors.New("stmkv: key must be positive")

// ErrBadCursor is returned by ScanPage for a cursor string that did not
// come from a previous ScanPage against this store geometry.
var ErrBadCursor = errors.New("stmkv: malformed scan cursor")

// errNeedGrow aborts a Put whose shard is over the load-factor bound;
// the caller privatizes and grows, then retries.
var errNeedGrow = errors.New("stmkv: shard needs growth")

// Option mutates store construction.
type Option func(*Store)

// WithTransactionalScan makes Scan read each shard in one read-only
// transaction instead of privatizing it — the fence-free contrast
// configuration (on NOrec the privatization idiom needs no fence at
// all; on TL2 the transactional scan pays validation instead).
func WithTransactionalScan() Option { return func(s *Store) { s.txnScan = true } }

// Stats counts the store's privatization traffic. Grows and
// Compactions are the store's own counters. The rest are summed from
// the TM's telemetry board, so they count every structure over the TM,
// and they stay zero on a TM without one.
type Stats struct {
	// Privatizations is the number of privatize→fence→publish cycles
	// (every scan window and every rehash contributes one).
	Privatizations int64
	// Grows is the number of rehashes Put triggered that raised a
	// shard's capacity (by one or more growStep steps); Compactions is
	// the number it triggered at the same capacity, only to drop
	// tombstones.
	Grows, Compactions int64
	// Scans counts Scan and ScanPage calls.
	Scans int64
	// ScanWindows counts privatized scan windows: one
	// privatize→fence→walk→publish cycle each, one or more per shard a
	// privatizing Scan or a ScanPage visits.
	ScanWindows int64
	// GateSpinWakes, GateParks, GateTimeouts count how operations that
	// stalled on a private shard waited on its publish gate: the spin
	// saw a publish, the waiter parked, the park ran into its timeout.
	// ReadThroughs counts Gets that ran beside a scan window instead of
	// stalling.
	GateSpinWakes, GateParks, GateTimeouts, ReadThroughs int64
}

// KV is one key-value pair returned by Scan.
type KV struct {
	Key, Val int64
}

// Store is a sharded transactional KV store over a core.TM.
type Store struct {
	tm     core.TM
	heap   *stmalloc.Heap
	shards int
	// tabs[sh] is shard sh's table block, fixed at construction: the
	// first register of heap shard sh's chunk. Read-only after New.
	tabs    []int64
	slots   int // maximum active capacity per shard
	txnScan bool

	// own privatizes and publishes the shards (package region);
	// operations that found their shard private wait on its gate.
	own *region.Owner

	// Maintenance counters, each on its own cache line: they are bumped
	// by maintenance threads while readers poll Stats.
	grows       padInt64
	compactions padInt64

	// board is the TM's telemetry board when the TM carries one; scans,
	// scan windows and read-throughs are recorded per thread on it.
	board *telemetry.Board
}

// padInt64 is an atomic counter on its own cache line.
type padInt64 struct {
	atomic.Int64
	_ [56]byte
}

// RegsNeeded returns the register count a store with the given geometry
// requires; size the TM with at least this many registers. The budget
// covers the shard headers, a heap header with one heap shard per store
// shard, and one chunk per shard that holds the table block at `slots`
// active slots: each table grows in place inside its own chunk.
func RegsNeeded(shards, slots int) int {
	if shards <= 0 || slots <= 0 {
		return 0
	}
	maxBlock := stmalloc.BlockRegs(2 * slots)
	if maxBlock == 0 {
		return 0 // unallocatable geometry; New rejects it
	}
	return shards*hdrRegs + stmalloc.HeaderRegs(shards) + shards*maxBlock
}

// New builds a store with `shards` shards of at most `slots` active
// slots each over tm's registers [0, RegsNeeded(shards, slots)). The
// headers and the heap are initialized non-transactionally (thread 1),
// so construction must happen before concurrent use.
func New(tm core.TM, shards, slots int, opts ...Option) (*Store, error) {
	if shards <= 0 || slots <= 0 {
		return nil, fmt.Errorf("stmkv: bad geometry shards=%d slots=%d", shards, slots)
	}
	if stmalloc.BlockRegs(2*slots) == 0 {
		return nil, fmt.Errorf("stmkv: %d slots per shard exceeds the allocator's block bound", slots)
	}
	s := &Store{tm: tm, shards: shards, slots: slots, own: region.NewOwner(tm)}
	for _, o := range opts {
		o(s)
	}
	if p, ok := tm.(telemetry.Provider); ok {
		s.board = p.TelemetryBoard()
	}
	need := RegsNeeded(shards, slots)
	if tm.NumRegs() < need {
		return nil, fmt.Errorf("stmkv: TM has %d registers, geometry needs %d", tm.NumRegs(), need)
	}
	heap, err := stmalloc.New(tm, shards*hdrRegs, need, stmalloc.WithShards(shards))
	if err != nil {
		return nil, fmt.Errorf("stmkv: heap: %w", err)
	}
	s.heap = heap
	s.tabs = make([]int64, shards)
	// Start with a small active table and grow on demand: every growth
	// is a privatize→rehash→publish cycle, so the paper's idiom runs on
	// the hot path instead of only in explicit bulk calls.
	initial := slots
	if initial > initialCap {
		initial = initialCap
	}
	for sh := 0; sh < shards; sh++ {
		base := s.base(sh)
		var tab int64
		err := core.Atomically(tm, 1, func(tx core.Txn) error {
			var err error
			tab, err = heap.NewIn(tx, sh, 2*initial)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("stmkv: initial table for shard %d: %w", sh, err)
		}
		s.tabs[sh] = tab
		// Wipe the fresh block: the TM (and the heap region) may have
		// been used before. Construction is single-threaded, so the
		// uninstrumented stores are race-free.
		for i := 0; i < initial; i++ {
			tm.Store(1, int(tab)+2*i, keyEmpty)
			tm.Store(1, int(tab)+2*i+1, 0)
		}
		tm.Store(1, base+offFlag, region.SharedFlag(int64(initial)))
		tm.Store(1, base+offCount, 0)
		tm.Store(1, base+offTombs, 0)
		tm.Store(1, base+offGen, 0)
		tm.Store(1, base+offWinLo, 0)
		tm.Store(1, base+offWinHi, 0)
	}
	return s, nil
}

// Shards returns the shard count.
func (s *Store) Shards() int { return s.shards }

// Stats returns a snapshot of the privatization counters.
func (s *Store) Stats() Stats {
	tel := s.board.Snapshot()
	return Stats{
		Privatizations: tel.Privatizations,
		Grows:          s.grows.Load(),
		Compactions:    s.compactions.Load(),
		Scans:          tel.Scans,
		ScanWindows:    tel.ScanWindows,
		GateSpinWakes:  tel.GateSpinWakes,
		GateParks:      tel.GateParks,
		GateTimeouts:   tel.GateTimeouts,
		ReadThroughs:   tel.ReadThroughs,
	}
}

// HeapStats exposes the table heap's counters: Live is the shard count
// (one table block each) and Frees stays 0, since tables grow in place;
// BumpRegs is the sum of the shards' table blocks.
func (s *Store) HeapStats() stmalloc.Stats { return s.heap.Stats() }

// mix64 is the splitmix64 finalizer: the key hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// shardOf maps a key to its shard.
func (s *Store) shardOf(key int64) int {
	return int(mix64(uint64(key)) % uint64(s.shards))
}

// slotStart picks the probe start for key in a table of cap slots; the
// double mix decorrelates it from the shard choice.
func slotStart(key int64, cap int64) int {
	return int(mix64(mix64(uint64(key))) % uint64(cap))
}

func (s *Store) base(shard int) int { return shard * hdrRegs }

// table returns shard's table block and the base of its header.
func (s *Store) table(shard int) (tab int64, base int) { return s.tabs[shard], s.base(shard) }

func keyReg(tab int64, i int) int { return int(tab) + 2*i }
func valReg(tab int64, i int) int { return int(tab) + 2*i + 1 }

// guard returns the privatization guard of the shard at base: its flag
// and the slot range [winLo, winHi] of a read-private window.
func guard(base int) region.Guard {
	return region.Guard{Flag: base + offFlag, Lo: base + offWinLo, Hi: base + offWinHi}
}

// exclusive is the privatizing transaction that makes the shard at
// base exclusive.
func exclusive(base int) func(core.Txn) error {
	return func(tx core.Txn) error { return guard(base).Take(tx, region.Exclusive, region.NoWindow) }
}

// publish ends an exclusive phase of the shard at base: shared again,
// with cap, its table's capacity now, as the flag's payload.
func (s *Store) publish(th, base int, cap int64) error {
	return s.own.Publish(th, func(tx core.Txn) error { return guard(base).GiveWith(tx, cap) })
}

// Get reads key's value; ok reports presence. th is the caller's TM
// thread id.
func (s *Store) Get(th int, key int64) (v int64, ok bool, err error) {
	if key <= 0 {
		return 0, false, ErrBadKey
	}
	tab, base := s.table(s.shardOf(key))
	var beside bool
	err = s.own.Retry(th, func(tx core.Txn) error {
		v, ok = 0, false
		var cap int64
		var err error
		// The guard yields the capacity, and past it the table is safe
		// to read: a private phase starts only after a fence that
		// waited for every transaction that saw the shard shared, and
		// a read-private owner stores nothing.
		if cap, beside, err = guard(base).Readable(tx); err != nil {
			return err
		}
		i := slotStart(key, cap)
		for j := int64(0); j < cap; j++ {
			k, err := tx.Read(keyReg(tab, i))
			if err != nil {
				return err
			}
			if k == keyEmpty {
				return nil
			}
			if k == key {
				if v, err = tx.Read(valReg(tab, i)); err != nil {
					return err
				}
				ok = true
				return nil
			}
			if i++; i == int(cap) {
				i = 0
			}
		}
		return nil
	})
	if beside && err == nil {
		if sl := s.board.Slot(th); sl != nil {
			sl.ReadThroughs.Add(1)
		}
	}
	return v, ok, err
}

// putInTx is the body of one Put inside a running transaction: the
// guard, the probe, and the insert/update writes. It returns
// region.ErrPrivate, before writing, when the slot it would write lies in
// a read-private window, and errNeedGrow when the shard is over the
// load factor (the caller privatizes, grows, and retries). Both Put and PutBatch build on it;
// the read-own-writes guarantee of every registry TM means a batch may
// put the same key twice in one transaction (the second probe finds
// the first insert in the write set and takes the update path).
func (s *Store) putInTx(tx core.Txn, shard int, key, val int64) error {
	tab, base := s.table(shard)
	cap, w, err := guard(base).Writable(tx)
	if err != nil {
		return err
	}
	i := slotStart(key, cap)
	firstTomb := -1
	for j := int64(0); j < cap; j++ {
		k, err := tx.Read(keyReg(tab, i))
		if err != nil {
			return err
		}
		if k == key {
			if w.Holds(int64(i)) {
				return region.ErrPrivate
			}
			return tx.Write(valReg(tab, i), val)
		}
		if k == keyTomb && firstTomb < 0 {
			firstTomb = i
		}
		if k == keyEmpty {
			at := i
			if firstTomb >= 0 {
				at = firstTomb
			}
			if w.Holds(int64(at)) {
				return region.ErrPrivate
			}
			count, tombs, err := s.counts(tx, base)
			if err != nil {
				return err
			}
			// Inserting into a fresh slot raises count+tombs;
			// keep the table under the load factor so probe
			// chains stay short — unless the shard is already at
			// its arena limit, where filling up beats looping.
			if firstTomb < 0 && cap < int64(s.slots) &&
				(count+tombs+1)*maxLoadDen > cap*maxLoadNum {
				return errNeedGrow
			}
			if firstTomb >= 0 {
				if err := tx.Write(base+offTombs, tombs-1); err != nil {
					return err
				}
			}
			if err := tx.Write(keyReg(tab, at), key); err != nil {
				return err
			}
			if err := tx.Write(valReg(tab, at), val); err != nil {
				return err
			}
			return tx.Write(base+offCount, count+1)
		}
		if i++; i == int(cap) {
			i = 0
		}
	}
	if firstTomb >= 0 {
		if w.Holds(int64(firstTomb)) {
			return region.ErrPrivate
		}
		count, tombs, err := s.counts(tx, base)
		if err != nil {
			return err
		}
		if err := tx.Write(keyReg(tab, firstTomb), key); err != nil {
			return err
		}
		if err := tx.Write(valReg(tab, firstTomb), val); err != nil {
			return err
		}
		if err := tx.Write(base+offTombs, tombs-1); err != nil {
			return err
		}
		return tx.Write(base+offCount, count+1)
	}
	return errNeedGrow
}

// counts reads the live-key and tombstone counts of the shard at base:
// only an insert or a delete, which change them, reads them.
func (s *Store) counts(tx core.Txn, base int) (count, tombs int64, err error) {
	if count, err = tx.Read(base + offCount); err != nil {
		return 0, 0, err
	}
	tombs, err = tx.Read(base + offTombs)
	return count, tombs, err
}

// Put inserts or updates key↦val. When the shard crosses the load
// factor (or is out of free slots), Put privatizes it, grows/compacts
// the table, and retries; ErrFull is returned only when the shard's
// slot arena is exhausted by live keys.
func (s *Store) Put(th int, key, val int64) error {
	if key <= 0 {
		return ErrBadKey
	}
	shard := s.shardOf(key)
	for {
		err := s.own.Retry(th, func(tx core.Txn) error {
			return s.putInTx(tx, shard, key, val)
		})
		if err == nil {
			return nil
		}
		if errors.Is(err, errNeedGrow) {
			if err := s.grow(th, shard, 1); err != nil {
				return err
			}
			continue
		}
		return err
	}
}

// PutBatch commits every pair in one transaction: an atomic multi-key
// write (the benchmark's stmkv.putbatch_ns_per_pair rung times it;
// kvserve issues only single-key writes). The pairs may span
// shards (the transaction reads each touched shard's flag, so the DRF
// guard of Theorem 5.3 still holds per shard) and may repeat keys
// (later writes win — the probe reads its own earlier writes). The
// whole batch commits or none of it does; a shard over the load factor
// is grown and the batch retried. Larger batches amortize commit cost
// but widen the conflict window, so callers should bound them.
func (s *Store) PutBatch(th int, pairs []KV) error {
	if len(pairs) == 0 {
		return nil
	}
	for _, kv := range pairs {
		if kv.Key <= 0 {
			return ErrBadKey
		}
	}
	for {
		needGrow := -1
		err := s.own.Retry(th, func(tx core.Txn) error {
			needGrow = -1
			for _, kv := range pairs {
				sh := s.shardOf(kv.Key)
				if err := s.putInTx(tx, sh, kv.Key, kv.Val); err != nil {
					if errors.Is(err, errNeedGrow) {
						needGrow = sh
					}
					return err
				}
			}
			return nil
		})
		if err == nil {
			return nil
		}
		if errors.Is(err, errNeedGrow) && needGrow >= 0 {
			// Size the growth to the whole batch's demand on that
			// shard — the committed header alone cannot see the
			// aborted transactional inserts (distinct keys only:
			// in-transaction duplicates update, they don't insert).
			distinct := make(map[int64]struct{})
			for _, kv := range pairs {
				if s.shardOf(kv.Key) == needGrow {
					distinct[kv.Key] = struct{}{}
				}
			}
			if err := s.grow(th, needGrow, int64(len(distinct))); err != nil {
				return err
			}
			continue
		}
		return err
	}
}

// Delete removes key, reporting whether it was present.
func (s *Store) Delete(th int, key int64) (removed bool, err error) {
	if key <= 0 {
		return false, ErrBadKey
	}
	tab, base := s.table(s.shardOf(key))
	err = s.own.Retry(th, func(tx core.Txn) error {
		removed = false
		cap, w, err := guard(base).Writable(tx)
		if err != nil {
			return err
		}
		i := slotStart(key, cap)
		for j := int64(0); j < cap; j++ {
			k, err := tx.Read(keyReg(tab, i))
			if err != nil {
				return err
			}
			if k == keyEmpty {
				return nil
			}
			if k == key {
				if w.Holds(int64(i)) {
					return region.ErrPrivate
				}
				count, tombs, err := s.counts(tx, base)
				if err != nil {
					return err
				}
				if err := tx.Write(keyReg(tab, i), keyTomb); err != nil {
					return err
				}
				if err := tx.Write(base+offCount, count-1); err != nil {
					return err
				}
				if err := tx.Write(base+offTombs, tombs+1); err != nil {
					return err
				}
				removed = true
				return nil
			}
			if i++; i == int(cap) {
				i = 0
			}
		}
		return nil
	})
	return removed, err
}

// Len returns the live key count, summed shard by shard (each shard's
// count is read in its own transaction, so the total is not a single
// consistent snapshot under concurrent writers).
func (s *Store) Len(th int) (int64, error) {
	var total int64
	for sh := 0; sh < s.shards; sh++ {
		base := s.base(sh)
		var n int64
		err := s.own.Retry(th, func(tx core.Txn) error {
			if _, _, err := guard(base).Readable(tx); err != nil {
				return err
			}
			var err error
			n, err = tx.Read(base + offCount)
			return err
		})
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// Scan returns every key-value pair, shard by shard. Each shard is
// snapshot-consistent; the snapshot is per shard, not global. The
// default implementation is one ScanPage without a limit, so each shard
// is walked in one read-private window over all its slots (Figure 7);
// with WithTransactionalScan the shard is read in one read-only
// transaction instead.
func (s *Store) Scan(th int) ([]KV, error) {
	if !s.txnScan {
		out, _, err := s.ScanPage(th, "", math.MaxInt)
		return out, err
	}
	if sl := s.board.Slot(th); sl != nil {
		sl.Scans.Add(1)
	}
	var out []KV
	for sh := 0; sh < s.shards; sh++ {
		var err error
		if out, err = s.scanShardTxn(th, sh, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scanShardTxn reads the whole shard in one transaction.
func (s *Store) scanShardTxn(th, shard int, out []KV) ([]KV, error) {
	tab, base := s.table(shard)
	start := len(out)
	err := s.own.Retry(th, func(tx core.Txn) error {
		out = out[:start]
		cap, _, err := guard(base).Readable(tx)
		if err != nil {
			return err
		}
		for i := 0; i < int(cap); i++ {
			k, err := tx.Read(keyReg(tab, i))
			if err != nil {
				return err
			}
			if k <= 0 {
				continue
			}
			v, err := tx.Read(valReg(tab, i))
			if err != nil {
				return err
			}
			out = append(out, KV{k, v})
		}
		return nil
	})
	return out, err
}

// defaultScanPageLimit is the page size ScanPage uses when the caller
// passes limit <= 0.
const defaultScanPageLimit = 256

// scanCursor is the decoded resume point of a paginated scan: the next
// shard and slot to read, plus the table identity (rehash generation
// and capacity) the slot index was cut against, so a rehash between
// pages is detected instead of silently skipping or rereading live keys
// at the wrong offsets.
type scanCursor struct {
	shard, slot, gen, cap int64
}

// encodeCursor renders c as base64 of its four dot-separated decimals.
// Both steps run in stack buffers, so the string is its only
// allocation.
func encodeCursor(c scanCursor) string {
	var raw [maxCursorRaw]byte
	b := raw[:0]
	for i, f := range [...]int64{c.shard, c.slot, c.gen, c.cap} {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(b, f, 10)
	}
	var enc [(maxCursorRaw*8 + 5) / 6]byte
	n := base64.RawURLEncoding.EncodedLen(len(b))
	base64.RawURLEncoding.Encode(enc[:n], b)
	return string(enc[:n])
}

// cursorCodec decodes cursors strictly: a string whose last character
// carries nonzero padding bits is not one encodeCursor emitted.
var cursorCodec = base64.RawURLEncoding.Strict()

// maxCursorRaw is the longest cursor encodeCursor emits, decoded: four
// int64s and three dots.
const maxCursorRaw = 4*19 + 3

// parseCursor accepts exactly the strings encodeCursor emits: strict
// base64 with no line breaks, four canonical decimals (no sign, space
// or leading zero) and nothing after them. The cursor comes from
// outside the program (/scan?cursor=), and parsing allocates only on
// rejection.
func (s *Store) parseCursor(str string) (scanCursor, error) {
	var src [(maxCursorRaw*8 + 5) / 6]byte
	var raw [maxCursorRaw]byte
	n, err := 0, error(nil)
	if len(str) <= len(src) {
		n, err = cursorCodec.Decode(raw[:], src[:copy(src[:], str)])
	}
	// Decode skips \r and \n, so a string longer than its encoding is
	// not canonical.
	bad := len(str) > len(src) || err != nil || cursorCodec.EncodedLen(n) != len(str)
	var f [4]int64
	i, digits := 0, 0
	for _, b := range raw[:n] {
		switch d := int64(b - '0'); {
		case bad:
		case b == '.' && digits > 0 && i < len(f)-1:
			i, digits = i+1, 0
		case b >= '0' && b <= '9' && (digits == 0 || f[i] > 0) && f[i] <= (math.MaxInt64-d)/10:
			f[i], digits = f[i]*10+d, digits+1
		default:
			bad = true
		}
	}
	c := scanCursor{shard: f[0], slot: f[1], gen: f[2], cap: f[3]}
	if bad || i != len(f)-1 || digits == 0 || c.shard >= int64(s.shards) {
		return scanCursor{}, fmt.Errorf("%w: %q", ErrBadCursor, str)
	}
	return c, nil
}

// ScanPage returns up to limit key-value pairs starting at cursor (""
// for the first page) and an opaque cursor for the next page ("" when
// the store is exhausted). It walks each visited shard in one or more
// uninstrumented windows — regardless of WithTransactionalScan — so
// server memory and writer stall time are both O(limit), not O(store):
// this is the pagination fast lane behind kvserve's /scan.
//
// A window is read-private over the slots it will walk, not over the
// whole shard (package comment), so writers to the shard's other slots
// commit beside it. Its privatizing transaction reads the shard's
// capacity, table and live count, starts at the cursor's slot (or 0),
// and ends where the page's remaining pairs should run out at the
// shard's density, with a margin (scanWindowSlots). A walk that reaches
// the window's end before the page is full publishes and opens the next
// window on the same shard where it stopped, exactly as a cursor
// resumes.
//
// Nothing allocates between a window's fence and its publish. Before
// each shard is walked the page gets room for min(limit − pairs so
// far, slots) more pairs: a shard's table never holds more than slots
// keys, so the walk cannot outgrow it, and a huge limit on a sparse
// store reserves at most one shard's worth beyond what the page holds.
// The next cursor is encoded after the last window has published.
//
// Consistency matches Scan's: per window, not global. A page or window
// boundary additionally splits a shard; if a rehash rebuilds the
// shard's table across that boundary, the resume detects the stale
// table identity and restarts that shard from slot 0, so a paginated
// scan delivers every stable key at least once (possibly twice within
// the restarted shard) rather than missing rehash-moved keys.
func (s *Store) ScanPage(th int, cursor string, limit int) (pairs []KV, next string, err error) {
	if limit <= 0 {
		limit = defaultScanPageLimit
	}
	var c scanCursor
	if cursor != "" {
		if c, err = s.parseCursor(cursor); err != nil {
			return nil, "", err
		}
	}
	if sl := s.board.Slot(th); sl != nil {
		sl.Scans.Add(1)
	}
	tm := s.tm
	for sh := int(c.shard); sh < s.shards; sh++ {
		if len(pairs) == limit {
			// Page filled exactly at a shard boundary: cut the cursor
			// at the next shard's start without privatizing it (cap=0
			// never matches a real table, so the resume starts clean).
			return pairs, encodeCursor(scanCursor{int64(sh), 0, 0, 0}), nil
		}
		tab, base := s.table(sh)
		pairs = slices.Grow(pairs, min(limit-len(pairs), s.slots))
		for {
			gen, cap, w, err := s.openScanWindow(th, base, c, limit-len(pairs))
			if err != nil {
				return nil, "", err
			}
			slot := w.Lo
			for ; slot <= w.Hi && len(pairs) < limit; slot++ {
				if k := tm.Load(th, keyReg(tab, int(slot))); k > 0 {
					pairs = append(pairs, KV{k, tm.Load(th, valReg(tab, int(slot)))})
				}
			}
			if err := s.own.Publish(th, guard(base).Give); err != nil {
				return nil, "", err
			}
			if slot >= cap {
				break
			}
			// The next window, or the next page, resumes at the first
			// slot not read, against this table generation.
			c = scanCursor{int64(sh), slot, gen, cap}
			if len(pairs) == limit {
				return pairs, encodeCursor(c), nil
			}
		}
		c = scanCursor{}
	}
	return pairs, "", nil
}

// openScanWindow read-privatizes the slots of the shard at base that
// the next need pairs of a page should span, and fences; a need of
// MaxInt takes every slot from the window's start, as Scan does. The window starts at
// c.slot if c's table identity (generation and capacity) is the shard's
// current one — a mismatch means a rehash moved the keys, and the walk
// restarts at slot 0. It returns the identity of the table the window
// walks.
func (s *Store) openScanWindow(th, base int, c scanCursor, need int) (gen, cap int64, w region.Window, err error) {
	g := guard(base)
	err = s.own.Privatize(th, func(tx core.Txn) error {
		// Check the flag before reading the header, which an exclusive
		// owner stores to; Take reads it again.
		var err error
		if cap, _, err = g.Readable(tx); err != nil {
			return err
		}
		if gen, err = tx.Read(base + offGen); err != nil {
			return err
		}
		count, err := tx.Read(base + offCount)
		if err != nil {
			return err
		}
		w.Lo = 0
		if c.gen == gen && c.cap == cap {
			w.Lo = c.slot
		}
		w.Hi = w.Lo + scanWindowSlots(int64(need), cap-w.Lo, cap, count) - 1
		return g.Take(tx, region.ReadPrivate, w)
	})
	if err != nil {
		return 0, 0, region.NoWindow, err
	}
	if sl := s.board.Slot(th); sl != nil {
		sl.ScanWindows.Add(1)
	}
	return gen, cap, w, nil
}

// scanWindowSlots is how many slots a ScanPage window spans to find need
// more pairs in a table of cap slots holding count keys: the slots need
// pairs fill at the table's density, plus a quarter and 32 slots of
// margin, so a window seldom comes up short. It is at most rest, the
// slots left to walk, and all of them when the shard is empty or the
// product would overflow.
func scanWindowSlots(need, rest, cap, count int64) int64 {
	if count <= 0 || need > math.MaxInt64/5/cap {
		return rest
	}
	return min(rest, need*cap*5/(4*count)+32)
}

// Drain settles the table heap and returns the first error a
// reclamation on it hit (stmalloc.Heap.Drain); tables grow in place, so
// the store itself frees nothing. Each error is surfaced exactly once,
// so a long-running caller (cmd/kvserver drains on every shutdown and
// liveness probe) sees recovery as a nil Drain instead of the first
// failure repeated forever.
func (s *Store) Drain(th int) error { return s.heap.Drain(th) }

// grow makes room in a shard for `need` more inserts after a put hit
// the load factor: it raises the active capacity by growStep
// (repeatedly, for batch demand, up to the arena) or compacts
// tombstones at the arena limit. `need` matters because a failed
// PutBatch aborts, discarding its transactional inserts — the committed
// header alone would say no growth is due and the retry would fail
// identically, forever. Put passes 1; PutBatch passes the shard's share
// of the batch. ErrFull when even a full-arena tombstone-free table
// cannot absorb the demand (conservative for batches whose pairs update
// existing keys — those need no slot — but a put only reports
// errNeedGrow when its probe actually found no room).
func (s *Store) grow(th, shard int, need int64) (err error) {
	base := s.base(shard)
	if err := s.own.Privatize(th, exclusive(base)); err != nil {
		return err
	}
	tm := s.tm
	cap := region.Payload(tm.Load(th, base+offFlag))
	// Publish whatever happens, with the capacity the table has then;
	// the work's own error comes first.
	pub := cap
	defer func() {
		if perr := s.publish(th, base, pub); err == nil {
			err = perr
		}
	}()
	count := tm.Load(th, base+offCount)
	tombs := tm.Load(th, base+offTombs)
	// Re-check under privatization: a concurrent grower may have run
	// between our failed put and our privatizing transaction, in which
	// case no further growth is due and the retry will succeed as is.
	due := (count+tombs+need)*maxLoadDen > cap*maxLoadNum
	// A rehash drops tombstones, so the rebuilt table only needs
	// headroom for the live keys plus the pending inserts.
	newCap := cap
	if due {
		for newCap < int64(s.slots) && (count+need)*maxLoadDen > newCap*maxLoadNum {
			newCap += growStep(newCap, int64(s.slots))
		}
		if newCap > int64(s.slots) {
			newCap = int64(s.slots)
		}
	}
	switch {
	case newCap != cap:
		if err := s.rehashTo(th, shard, cap, newCap); err != nil {
			return err
		}
		pub = newCap
		s.grows.Add(1)
	case due && tombs > 0:
		// Compaction: rebuild at the same capacity, dropping tombstones.
		if err := s.rehashTo(th, shard, cap, cap); err != nil {
			return err
		}
		s.compactions.Add(1)
	case due && count+need > cap:
		// Cannot grow (at the arena), nothing to compact, and the
		// demand exceeds the slots themselves: it will never fit. (At
		// the arena limit puts waive the load factor and fill the
		// table completely, so count+need <= cap still succeeds.)
		return ErrFull
	}
	return nil
}

// growStep is how many slots one growth step adds to a table of cap
// slots in an arena of slots: cap itself (a doubling) until that
// reaches a quarter of the arena, a quarter of the arena from there.
// Near the arena limit a doubling would leave up to half the table's
// block unused; a quarter step leaves at most a quarter, and the
// doublings below it keep the number of rebuilds a fill pays
// logarithmic.
func growStep(cap, slots int64) int64 { return min(cap, max(slots/4, 1)) }

// rehashTo rebuilds the (privatized, quiesced) shard's table of oldCap
// slots in place at newCap active slots, dropping tombstones. It lays
// the new table out in Go memory straight from the old table's loads,
// extends the table's block to 2·newCap registers, then stores every
// key register once and the value register of each occupied slot —
// newCap + live uninstrumented stores, race-free because the shard's
// fence already ran. An empty slot's value register keeps whatever it
// held: nothing reads a value whose key is not present, and an insert
// writes both. Last it bumps the generation, so a ScanPage cursor cut
// against the old layout restarts the shard. The caller publishes
// newCap in the flag.
func (s *Store) rehashTo(th, shard int, oldCap, newCap int64) error {
	tm := s.tm
	tab, base := s.table(shard)
	next := make([]KV, newCap)
	live := 0
	for i := 0; i < int(oldCap); i++ {
		k := tm.Load(th, keyReg(tab, i))
		if k <= 0 {
			continue
		}
		j := slotStart(k, newCap)
		for next[j].Key != keyEmpty {
			if j++; j == int(newCap) {
				j = 0
			}
		}
		next[j] = KV{k, tm.Load(th, valReg(tab, i))}
		live++
	}
	err := core.Atomically(tm, th, func(tx core.Txn) error {
		return s.heap.Extend(tx, tab, int(2*newCap))
	})
	if err != nil {
		return fmt.Errorf("stmkv: rehash to %d slots: %w", newCap, err)
	}
	for i, kv := range next {
		tm.Store(th, keyReg(tab, i), kv.Key)
		if kv.Key != keyEmpty {
			tm.Store(th, valReg(tab, i), kv.Val)
		}
	}
	tm.Store(th, base+offGen, tm.Load(th, base+offGen)+1)
	tm.Store(th, base+offCount, int64(live))
	tm.Store(th, base+offTombs, 0)
	return nil
}
