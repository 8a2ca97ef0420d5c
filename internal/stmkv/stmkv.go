// Package stmkv is a sharded transactional key-value store built on the
// core TM API: the paper's privatization idiom (§2.1, Figure 7) promoted
// from litmus test to hot path.
//
// The store divides its register span into a small per-shard header
// region and a shared transactional heap (internal/stmalloc) that backs
// every shard's hash table. Each shard is an open-addressing table
// (linear probing, tombstone deletion) stored in a heap block; the
// header carries:
//
//	base+0  flag   privatization state in the two low bits (below),
//	               publish count above them
//	base+1  cap    active slot count of the current table block
//	base+2  count  live keys
//	base+3  tombs  tombstones
//	base+4  table  register index of the table block (slot i key at
//	               table+2i, value at table+2i+1)
//
// Point operations (Get/Put/Delete) are single transactions that follow
// the DRF discipline of the paper: they read the shard's flag first and
// touch the header and table only when the flag's state admits them.
// Bulk operations (Scan, ScanPage, Clear, Resize, and the automatic
// growth triggered by Put) privatize the shard exactly as Figure 7
// prescribes — commit a transaction that moves the flag to a private
// state, issue the transactional Fence, operate on the shard with
// uninstrumented Load/Store, and publish it back with a transaction
// that rounds the flag up to the next multiple of four. Under Theorem
// 5.3 the resulting program is DRF assuming strong atomicity, so it is
// safe on every TM in the registry, including weakly atomic TL2.
//
// A shard is in one of three states:
//
//	flag&3  state          owner (uninstrumented)   transactions admitted
//	0       shared         —                        all
//	1       exclusive      loads and stores         none
//	        (grow/rehash, Clear, Resize)
//	3       read-private   loads only               read-only on the shard:
//	        (Scan, ScanPage)                        Get, Len, transactional scan
//
// Put, Delete and every privatizing transaction stall while the flag
// is odd; Get, Len and the transactional scan stall only on state 1.
// So a scan window costs the readers of its shard nothing, and two
// owners never hold one shard at once.
//
// Safety. The paper's data race is a pair of conflicting accesses, one
// transactional and one not, unordered by happens-before — and two
// accesses conflict only if at least one is a write. In the
// read-private state every uninstrumented access to the shard is a
// load, and every transaction admitted past the flag only reads the
// shard's registers, so no conflicting pair exists at all: the readers
// need no ordering with the owner. Writers are kept out exactly as in
// the exclusive state: those that read the flag after the privatizing
// commit see it odd and stall, those that read it before are waited out
// by the fence — which is why read-privatizing still fences. An
// exclusive owner that follows a scan window fences after its own
// privatizing commit, and that fence waits for every transaction still
// running, whichever state it saw. (stmds.SkipMap's GetTx rests on the
// same argument: it reads beside a scan window without consulting the
// guard.) internal/litmus carries the idiom and its racy twin as the
// programs read-privatize and read-privatize-racy.
//
// Growth is where the store meets the allocator: a rehash allocates a
// fresh table block from the heap (a transaction), rebuilds the table
// into it with uninstrumented stores (the private phase — the shard is
// quiesced by its own fence), installs it in the header, and returns
// the old block through stmalloc.FreeQuiesced — the old block needs no
// further grace period because the shard's fence already guaranteed no
// transaction holds a stale reference to it. Freed table blocks are
// recycled across shards, so a store that grows and shrinks repeatedly
// occupies bounded register space.
//
// The privatization frequency is therefore a first-class knob: it is
// driven by how often callers Scan/Clear/Resize and by the growth
// policy (maxLoadNum/maxLoadDen), and the Stats counters expose it.
// WithTransactionalScan provides the contrast configuration — Scan as
// one big read-only transaction per shard, no fence, the natural choice
// on a TM like NOrec whose privatization is safe without fences.
//
// Clear and Resize use *batched* privatization: every shard's flag
// flips odd (ascending order, so concurrent bulk operations never
// deadlock), then ONE fence covers all shards' operate→publish tails
// instead of one fence per shard. No reader can observe a
// half-maintained shard — point operations wait while the shard is
// exclusive (on the store's publish gate, package pubgate, rather than
// by re-running their transaction), and the flag returns to shared only
// after the work published. WithBatchReclaim additionally gives the
// table heap per-thread magazine caches, so the table blocks a rehash
// replaces recycle thread-locally.
package stmkv

import (
	"encoding/base64"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"safepriv/internal/core"
	"safepriv/internal/pubgate"
	"safepriv/internal/stmalloc"
	"safepriv/internal/telemetry"
)

const (
	offFlag  = 0
	offCap   = 1
	offCount = 2
	offTombs = 3
	offTable = 4
	// hdrRegs is the per-shard header size in registers.
	hdrRegs = 5

	// The two low bits of a shard's flag are its privatization state
	// (see the package comment); the bits above count publishes.
	flagStateMask   int64 = 3
	flagExclusive   int64 = 1 // owner loads and stores uninstrumented
	flagReadPrivate int64 = 3 // owner only loads uninstrumented

	keyEmpty int64 = 0
	keyTomb  int64 = -1

	// maxLoadNum/maxLoadDen is the load factor (live + tombstones over
	// capacity) beyond which Put privatizes the shard and grows it.
	maxLoadNum = 3
	maxLoadDen = 4

	// initialCap is the active capacity shards start with (clamped to
	// the slot arena): every doubling beyond it is a privatize cycle.
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

// errShardPrivate aborts a point operation that found its shard
// privatized; the caller yields and retries once the owner publishes.
var errShardPrivate = errors.New("stmkv: shard is privatized")

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

// WithBatchReclaim builds the store's table heap with the stmalloc
// magazine layer for thread ids 1..threads: a replaced table block
// recycles through the rehashing thread's alloc-side cache (it is
// already quiescent after the shard's fence), so repeated grow/Resize
// cycles pop their next table locally instead of contending on the
// heap's shard lists. Size the TM with RegsNeededBatch instead of
// RegsNeeded.
func WithBatchReclaim(threads int) Option { return func(s *Store) { s.batchThreads = threads } }

// Stats counts the store's privatization traffic.
type Stats struct {
	// Privatizations is the number of privatize→fence→publish cycles
	// (every bulk operation on every shard contributes one).
	Privatizations int64
	// Grows is the number of capacity-doubling rehashes.
	Grows int64
	// Scans, Clears count bulk reads and wipes (per shard).
	Scans, Clears int64
	// ScanWindows counts privatized scan windows: one
	// privatize→fence→walk→publish cycle per shard visited by a
	// privatizing Scan or by ScanPage.
	ScanWindows int64
	// GateSpinWakes, GateParks, GateTimeouts count how operations that
	// stalled on a private shard waited (package pubgate): the spin saw
	// a publish, the waiter parked, the park ran into its timeout.
	// ReadThroughs counts Gets that ran beside a scan window instead of
	// stalling. All four are summed from the TM's telemetry board and
	// stay zero on a TM without one.
	GateSpinWakes, GateParks, GateTimeouts, ReadThroughs int64
}

// KV is one key-value pair returned by Scan.
type KV struct {
	Key, Val int64
}

// Store is a sharded transactional KV store over a core.TM.
type Store struct {
	tm           core.TM
	heap         *stmalloc.Heap
	shards       int
	slots        int // maximum active capacity per shard
	txnScan      bool
	batchThreads int // >0: table heap carries magazines for ids 1..batchThreads

	// gate is opened on every publish; operations that found their
	// shard private wait on it (retryShared).
	gate pubgate.Gate

	// Maintenance counters, each on its own cache line: they are bumped
	// by maintenance threads while readers poll Stats.
	privatizations padInt64
	grows          padInt64
	scans          padInt64
	clears         padInt64
	scanWindows    padInt64

	// board is the TM's telemetry board when the TM carries one;
	// privatization cycles are recorded per thread alongside the store's
	// own counter so /stats and bench/ see them.
	board *telemetry.Board
}

// padInt64 is an atomic counter on its own cache line.
type padInt64 struct {
	atomic.Int64
	_ [56]byte
}

// kvHeapShards sizes the table heap's shard count: enough to keep
// concurrent growers of different shards off each other's bump
// pointers, without one free-list head per store shard.
func kvHeapShards(shards int) int {
	if shards < 4 {
		return shards
	}
	return 4
}

// RegsNeeded returns the register count a store with the given geometry
// requires; size the TM with at least this many registers. The budget
// covers the shard headers, the heap header, and a heap arena large
// enough that every shard can grow to `slots` active slots — including
// the transient old-table+new-table double occupancy of a rehash and
// the lower-class blocks stranded on free lists as tables outgrow them.
func RegsNeeded(shards, slots int) int {
	if shards <= 0 || slots <= 0 {
		return 0
	}
	maxBlock := stmalloc.BlockRegs(2 * slots)
	if maxBlock == 0 {
		return 0 // unallocatable geometry; New rejects it
	}
	hs := kvHeapShards(shards)
	// Per size class at most 2*shards blocks are ever demanded at once
	// (each shard's live table plus its in-flight replacement); summed
	// over the power-of-two ladder up to maxBlock that is < 4·shards·
	// maxBlock. One extra block per heap shard absorbs bump-tail
	// fragmentation (a block cannot straddle heap chunks).
	arena := 4*shards*maxBlock + hs*maxBlock
	return shards*hdrRegs + stmalloc.HeaderRegs(hs) + arena
}

// kvMagCap is the magazine capacity of a WithBatchReclaim table heap:
// table blocks are large and few, so the cache is shallow.
const kvMagCap = 2

// RegsNeededBatch is RegsNeeded for a WithBatchReclaim(threads) store:
// the magazine headers plus headroom for the blocks the per-thread
// caches may hold back from the shared pool (per thread at most
// kvMagCap blocks per class, summing to < 2·kvMagCap·maxBlock over the
// power-of-two ladder).
func RegsNeededBatch(shards, slots, threads int) int {
	n := RegsNeeded(shards, slots)
	if n == 0 || threads <= 0 {
		return n
	}
	maxBlock := stmalloc.BlockRegs(2 * slots)
	return n + stmalloc.MagazineRegs(threads) + threads*2*kvMagCap*maxBlock
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
	s := &Store{tm: tm, shards: shards, slots: slots}
	for _, o := range opts {
		o(s)
	}
	if p, ok := tm.(telemetry.Provider); ok {
		s.board = p.TelemetryBoard()
	}
	need := RegsNeededBatch(shards, slots, s.batchThreads)
	if tm.NumRegs() < need {
		return nil, fmt.Errorf("stmkv: TM has %d registers, geometry needs %d", tm.NumRegs(), need)
	}
	heapOpts := []stmalloc.Option{stmalloc.WithShards(kvHeapShards(shards))}
	if s.batchThreads > 0 {
		heapOpts = append(heapOpts, stmalloc.WithMagazines(s.batchThreads, kvMagCap))
	}
	heap, err := stmalloc.New(tm, shards*hdrRegs, need, heapOpts...)
	if err != nil {
		return nil, fmt.Errorf("stmkv: heap: %w", err)
	}
	s.heap = heap
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
			tab, err = heap.New(tx, 1, 2*initial)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("stmkv: initial table for shard %d: %w", sh, err)
		}
		// Wipe the fresh block: the TM (and the heap region) may have
		// been used before. Construction is single-threaded, so the
		// uninstrumented stores are race-free.
		for i := 0; i < initial; i++ {
			tm.Store(1, int(tab)+2*i, keyEmpty)
			tm.Store(1, int(tab)+2*i+1, 0)
		}
		tm.Store(1, base+offFlag, 0)
		tm.Store(1, base+offCap, int64(initial))
		tm.Store(1, base+offCount, 0)
		tm.Store(1, base+offTombs, 0)
		tm.Store(1, base+offTable, tab)
	}
	return s, nil
}

// Shards returns the shard count.
func (s *Store) Shards() int { return s.shards }

// Stats returns a snapshot of the privatization counters.
func (s *Store) Stats() Stats {
	tel := s.board.Snapshot()
	return Stats{
		Privatizations: s.privatizations.Load(),
		Grows:          s.grows.Load(),
		Scans:          s.scans.Load(),
		Clears:         s.clears.Load(),
		ScanWindows:    s.scanWindows.Load(),
		GateSpinWakes:  tel.GateSpinWakes,
		GateParks:      tel.GateParks,
		GateTimeouts:   tel.GateTimeouts,
		ReadThroughs:   tel.ReadThroughs,
	}
}

// HeapStats exposes the table heap's counters: after a Drain,
// Allocs-Frees equals the shard count (one live table block each) —
// the store-level leak-accounting invariant.
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

func keyReg(tab int64, i int) int { return int(tab) + 2*i }
func valReg(tab int64, i int) int { return int(tab) + 2*i + 1 }

// writable is the DRF guard of every transaction that may write the
// shard's registers (Put, Delete, and the privatizing transactions
// themselves): read the shard's flag and refuse to proceed while it is
// odd — private in either state. Because the read is transactional, a
// privatizer committing after it dooms this transaction — the conflict
// Theorem 5.3 relies on. A transaction that passed the guard may safely
// read the rest of the header (cap, table pointer): the uninstrumented
// accesses of a private phase start only after a fence that waited for
// every transaction that saw the flag even.
func writable(tx core.Txn, base int) error {
	f, err := tx.Read(base + offFlag)
	if err != nil {
		return err
	}
	if f&1 == 1 {
		return errShardPrivate
	}
	return nil
}

// readable is the guard of the transactions that only read the shard
// (Get, Len, the transactional scan): they stall on the exclusive state
// alone. beside reports that the shard is read-private, i.e. the
// transaction runs beside a scan window — both sides only load, so no
// pair of their accesses conflicts (package comment, "Safety").
func readable(tx core.Txn, base int) (beside bool, err error) {
	f, err := tx.Read(base + offFlag)
	if err != nil {
		return false, err
	}
	switch f & flagStateMask {
	case flagExclusive:
		return false, errShardPrivate
	case flagReadPrivate:
		return true, nil
	}
	return false, nil
}

// table reads the shard's active geometry inside tx (after the guard):
// the table block pointer and the active capacity.
func (s *Store) table(tx core.Txn, base int) (tab, cap int64, err error) {
	if cap, err = tx.Read(base + offCap); err != nil {
		return 0, 0, err
	}
	if tab, err = tx.Read(base + offTable); err != nil {
		return 0, 0, err
	}
	return tab, cap, nil
}

// Get reads key's value; ok reports presence. th is the caller's TM
// thread id.
func (s *Store) Get(th int, key int64) (v int64, ok bool, err error) {
	if key <= 0 {
		return 0, false, ErrBadKey
	}
	base := s.base(s.shardOf(key))
	var beside bool
	err = s.retryShared(th, func(tx core.Txn) error {
		v, ok = 0, false
		var err error
		if beside, err = readable(tx, base); err != nil {
			return err
		}
		tab, cap, err := s.table(tx, base)
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
// writable() guard, the probe, and the insert/update writes. It returns
// errNeedGrow when the shard is over the load factor (the caller
// privatizes, grows, and retries). Both Put and PutBatch build on it;
// the read-own-writes guarantee of every registry TM means a batch may
// put the same key twice in one transaction (the second probe finds
// the first insert in the write set and takes the update path).
func (s *Store) putInTx(tx core.Txn, base int, key, val int64) error {
	if err := writable(tx, base); err != nil {
		return err
	}
	tab, cap, err := s.table(tx, base)
	if err != nil {
		return err
	}
	count, err := tx.Read(base + offCount)
	if err != nil {
		return err
	}
	tombs, err := tx.Read(base + offTombs)
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
			return tx.Write(valReg(tab, i), val)
		}
		if k == keyTomb && firstTomb < 0 {
			firstTomb = i
		}
		if k == keyEmpty {
			// Inserting into a fresh slot raises count+tombs;
			// keep the table under the load factor so probe
			// chains stay short — unless the shard is already at
			// its arena limit, where filling up beats looping.
			if firstTomb < 0 && cap < int64(s.slots) &&
				(count+tombs+1)*maxLoadDen > cap*maxLoadNum {
				return errNeedGrow
			}
			at := i
			if firstTomb >= 0 {
				at = firstTomb
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

// Put inserts or updates key↦val. When the shard crosses the load
// factor (or is out of free slots), Put privatizes it, grows/compacts
// the table, and retries; ErrFull is returned only when the shard's
// slot arena is exhausted by live keys.
func (s *Store) Put(th int, key, val int64) error {
	if key <= 0 {
		return ErrBadKey
	}
	shard := s.shardOf(key)
	base := s.base(shard)
	for {
		err := s.retryShared(th, func(tx core.Txn) error {
			return s.putInTx(tx, base, key, val)
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

// PutBatch commits every pair in one transaction: the write-coalescing
// primitive behind cmd/kvserver's request batching. The pairs may span
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
		err := s.retryShared(th, func(tx core.Txn) error {
			needGrow = -1
			for _, kv := range pairs {
				sh := s.shardOf(kv.Key)
				if err := s.putInTx(tx, s.base(sh), kv.Key, kv.Val); err != nil {
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
	base := s.base(s.shardOf(key))
	err = s.retryShared(th, func(tx core.Txn) error {
		removed = false
		if err := writable(tx, base); err != nil {
			return err
		}
		tab, cap, err := s.table(tx, base)
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
				count, err := tx.Read(base + offCount)
				if err != nil {
					return err
				}
				tombs, err := tx.Read(base + offTombs)
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
		err := s.retryShared(th, func(tx core.Txn) error {
			if _, err := readable(tx, base); err != nil {
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
// default implementation privatizes each shard (Figure 7); with
// WithTransactionalScan the shard is read in one read-only transaction
// instead.
func (s *Store) Scan(th int) ([]KV, error) {
	if sl := s.board.Slot(th); sl != nil {
		sl.Scans.Add(1)
	}
	var out []KV
	for sh := 0; sh < s.shards; sh++ {
		var err error
		if s.txnScan {
			out, err = s.scanShardTxn(th, sh, out)
		} else {
			out, err = s.scanShardPrivate(th, sh, out)
		}
		if err != nil {
			return nil, err
		}
		if !s.txnScan {
			s.recordScanWindow(th)
		}
		s.scans.Add(1)
	}
	return out, nil
}

// recordScanWindow bumps the per-shard window counters (store stats and
// the TM's telemetry board) for one privatize→fence→walk→publish scan
// window.
func (s *Store) recordScanWindow(th int) {
	s.scanWindows.Add(1)
	if sl := s.board.Slot(th); sl != nil {
		sl.ScanWindows.Add(1)
	}
}

// scanShardPrivate is the paper's idiom: privatize (read-private: the
// walk only loads), fence, read the table uninstrumented, publish.
func (s *Store) scanShardPrivate(th, shard int, out []KV) ([]KV, error) {
	base := s.base(shard)
	if err := s.privatize(th, base, flagReadPrivate); err != nil {
		return nil, err
	}
	tm := s.tm
	tab := tm.Load(th, base+offTable)
	cap := int(tm.Load(th, base+offCap))
	for i := 0; i < cap; i++ {
		if k := tm.Load(th, keyReg(tab, i)); k > 0 {
			out = append(out, KV{k, tm.Load(th, valReg(tab, i))})
		}
	}
	return out, s.publish(th, base)
}

// scanShardTxn reads the whole shard in one transaction.
func (s *Store) scanShardTxn(th, shard int, out []KV) ([]KV, error) {
	base := s.base(shard)
	start := len(out)
	err := s.retryShared(th, func(tx core.Txn) error {
		out = out[:start]
		if _, err := readable(tx, base); err != nil {
			return err
		}
		tab, cap, err := s.table(tx, base)
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

// DefaultScanPageLimit is the page size ScanPage uses when the caller
// passes limit <= 0.
const DefaultScanPageLimit = 256

// scanCursor is the decoded resume point of a paginated scan: the next
// shard and slot to read, plus the table block identity (pointer and
// capacity) the slot index was cut against, so a rehash between pages
// is detected instead of silently skipping or rereading live keys at
// the wrong offsets.
type scanCursor struct {
	shard, slot, tab, cap int64
}

func encodeCursor(c scanCursor) string {
	raw := fmt.Sprintf("%d.%d.%d.%d", c.shard, c.slot, c.tab, c.cap)
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

func (s *Store) parseCursor(str string) (scanCursor, error) {
	raw, err := base64.RawURLEncoding.DecodeString(str)
	if err != nil {
		return scanCursor{}, fmt.Errorf("%w: %v", ErrBadCursor, err)
	}
	var c scanCursor
	if n, err := fmt.Sscanf(string(raw), "%d.%d.%d.%d", &c.shard, &c.slot, &c.tab, &c.cap); err != nil || n != 4 {
		return scanCursor{}, fmt.Errorf("%w: %q", ErrBadCursor, string(raw))
	}
	if c.shard < 0 || c.shard >= int64(s.shards) || c.slot < 0 || c.tab < 0 || c.cap < 0 {
		return scanCursor{}, fmt.Errorf("%w: %q out of range", ErrBadCursor, string(raw))
	}
	return c, nil
}

// ScanPage returns up to limit key-value pairs starting at cursor (""
// for the first page) and an opaque cursor for the next page ("" when
// the store is exhausted). Each visited shard is privatized for one
// uninstrumented window — regardless of WithTransactionalScan — so
// server memory and writer stall time are both O(limit), not O(store):
// this is the pagination fast lane behind kvserve's /scan.
//
// Nothing allocates between a window's fence and its publish. Before
// each shard is privatized the page gets room for min(limit − pairs so
// far, slots) more pairs: a shard's table never holds more than slots
// keys, so the walk cannot outgrow it, and a huge limit on a sparse
// store reserves at most one shard's worth beyond what the page holds.
// The next cursor is encoded after the last window has published.
//
// Consistency matches Scan's: per shard-window, not global. A page
// boundary additionally splits a shard across two windows; if a rehash
// replaces the shard's table between those pages, the cursor detects
// the stale table identity and restarts that shard from slot 0, so a
// paginated scan delivers every stable key at least once (possibly
// twice within the restarted shard) rather than missing rehash-moved
// keys.
func (s *Store) ScanPage(th int, cursor string, limit int) (pairs []KV, next string, err error) {
	if limit <= 0 {
		limit = DefaultScanPageLimit
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
			// at the next shard's start without privatizing it (tab=0
			// never matches a real block, so the resume starts clean).
			return pairs, encodeCursor(scanCursor{int64(sh), 0, 0, 0}), nil
		}
		base := s.base(sh)
		pairs = slices.Grow(pairs, min(limit-len(pairs), s.slots))
		if err := s.privatize(th, base, flagReadPrivate); err != nil {
			return nil, "", err
		}
		s.scans.Add(1)
		s.recordScanWindow(th)
		tab := tm.Load(th, base+offTable)
		cap := tm.Load(th, base+offCap)
		slot := int64(0)
		if sh == int(c.shard) && c.tab == tab && c.cap == cap {
			// Same table block as when the cursor was cut: resume at
			// the exact slot. A mismatch means a rehash moved the keys;
			// restart the shard from slot 0.
			slot = c.slot
		}
		for ; slot < cap && len(pairs) < limit; slot++ {
			if k := tm.Load(th, keyReg(tab, int(slot))); k > 0 {
				pairs = append(pairs, KV{k, tm.Load(th, valReg(tab, int(slot)))})
			}
		}
		if err := s.publish(th, base); err != nil {
			return nil, "", err
		}
		if slot < cap {
			// The page filled inside this shard: the next page resumes
			// at the first slot not read, against this table block.
			return pairs, encodeCursor(scanCursor{int64(sh), slot, tab, cap}), nil
		}
	}
	return pairs, "", nil
}

// Clear empties the store: every shard privatizes, one fence covers
// them all, and each shard is wiped and published before Clear returns.
func (s *Store) Clear(th int) error {
	return s.privatizeAll(th, func(sh int) error {
		base := s.base(sh)
		tm := s.tm
		tab := tm.Load(th, base+offTable)
		cap := int(tm.Load(th, base+offCap))
		for i := 0; i < cap; i++ {
			tm.Store(th, keyReg(tab, i), keyEmpty)
			tm.Store(th, valReg(tab, i), 0)
		}
		tm.Store(th, base+offCount, 0)
		tm.Store(th, base+offTombs, 0)
		s.clears.Add(1)
		return nil
	})
}

// Resize rehashes every shard to the given active capacity (clamped to
// [live keys, slot arena]). Like Clear, all shards privatize up front
// and ONE fence covers every shard's rehash. The replaced table blocks
// return to the heap (through the rehashing thread's magazine cache
// under WithBatchReclaim).
func (s *Store) Resize(th, slots int) error {
	if slots < 1 {
		slots = 1
	}
	if slots > s.slots {
		slots = s.slots
	}
	return s.privatizeAll(th, func(sh int) error {
		base := s.base(sh)
		target := int64(slots)
		if live := s.tm.Load(th, base+offCount); target < live {
			target = live
		}
		return s.rehashTo(th, base, target)
	})
}

// Drain settles the table heap and returns the first error its
// reclamations hit (stmalloc.Heap.Drain). Each error is surfaced
// exactly once, so a long-running caller (cmd/kvserver drains on every
// shutdown and liveness probe) sees recovery as a nil Drain instead of
// the first failure repeated forever.
func (s *Store) Drain(th int) error { return s.heap.Drain(th) }

// grow makes room in a shard for `need` more inserts after a put hit
// the load factor: it doubles the active capacity (repeatedly, for
// batch demand, up to the arena) or compacts tombstones at the arena
// limit. `need` matters because a failed PutBatch aborts, discarding
// its transactional inserts — the committed header alone would say no
// growth is due and the retry would fail identically, forever. Put
// passes 1; PutBatch passes the shard's share of the batch. ErrFull
// when even a full-arena tombstone-free table cannot absorb the
// demand (conservative for batches whose pairs update existing keys —
// those need no slot — but a put only reports errNeedGrow when its
// probe actually found no room).
func (s *Store) grow(th, shard int, need int64) error {
	base := s.base(shard)
	if err := s.privatize(th, base, flagExclusive); err != nil {
		return err
	}
	tm := s.tm
	cap := tm.Load(th, base+offCap)
	count := tm.Load(th, base+offCount)
	tombs := tm.Load(th, base+offTombs)
	// Re-check under privatization: a concurrent grower may have run
	// between our failed put and our privatizing transaction, in which
	// case no further doubling is due and the retry will succeed as is.
	due := (count+tombs+need)*maxLoadDen > cap*maxLoadNum
	// A rehash drops tombstones, so the rebuilt table only needs
	// headroom for the live keys plus the pending inserts.
	newCap := cap
	if due {
		for newCap < int64(s.slots) && (count+need)*maxLoadDen > newCap*maxLoadNum {
			newCap *= 2
		}
		if newCap > int64(s.slots) {
			newCap = int64(s.slots)
		}
	}
	switch {
	case newCap != cap:
		if err := s.rehashTo(th, base, newCap); err != nil {
			_ = s.publish(th, base)
			return err
		}
		s.grows.Add(1)
	case due && tombs > 0:
		// Compaction: rebuild at the same capacity, dropping tombstones.
		if err := s.rehashTo(th, base, cap); err != nil {
			_ = s.publish(th, base)
			return err
		}
	case due && count+need > cap:
		// Cannot double (at the arena), nothing to compact, and the
		// demand exceeds the slots themselves: it will never fit. (At
		// the arena limit puts waive the load factor and fill the
		// table completely, so count+need <= cap still succeeds.)
		err := s.publish(th, base)
		if err == nil {
			err = ErrFull
		}
		return err
	}
	return s.publish(th, base)
}

// rehashTo rebuilds the (privatized, quiesced) shard's table at newCap
// active slots, dropping tombstones: allocate a fresh block from the
// heap, fill it with uninstrumented stores — race-free because the
// shard's fence already ran — install it in the header, and return the
// old block to the heap. The old block needs no further grace period
// (FreeQuiesced): every transaction that could have read this shard's
// table pointer completed before the fence.
func (s *Store) rehashTo(th, base int, newCap int64) error {
	tm := s.tm
	oldCap := tm.Load(th, base+offCap)
	oldTab := tm.Load(th, base+offTable)
	var newTab int64
	err := core.Atomically(tm, th, func(tx core.Txn) error {
		var err error
		newTab, err = s.heap.New(tx, th, int(2*newCap))
		return err
	})
	if err != nil {
		return fmt.Errorf("stmkv: rehash to %d slots: %w", newCap, err)
	}
	for i := 0; i < int(newCap); i++ {
		tm.Store(th, keyReg(newTab, i), keyEmpty)
		tm.Store(th, valReg(newTab, i), 0)
	}
	var live int64
	for i := 0; i < int(oldCap); i++ {
		k := tm.Load(th, keyReg(oldTab, i))
		if k <= 0 {
			continue
		}
		v := tm.Load(th, valReg(oldTab, i))
		j := slotStart(k, newCap)
		for tm.Load(th, keyReg(newTab, j)) != keyEmpty {
			if j++; j == int(newCap) {
				j = 0
			}
		}
		tm.Store(th, keyReg(newTab, j), k)
		tm.Store(th, valReg(newTab, j), v)
		live++
	}
	tm.Store(th, base+offTable, newTab)
	tm.Store(th, base+offCap, newCap)
	tm.Store(th, base+offCount, live)
	tm.Store(th, base+offTombs, 0)
	s.heap.FreeQuiesced(th, oldTab, int(2*oldCap))
	return nil
}

// acquirePrivate commits the transaction moving the shard's flag from
// shared to state (flagExclusive or flagReadPrivate) — the privatizing
// transaction of Figure 7, without the fence. If another thread holds
// the shard private in either state, it waits its turn.
func (s *Store) acquirePrivate(th, base int, state int64) error {
	err := s.retryShared(th, func(tx core.Txn) error {
		f, err := tx.Read(base + offFlag)
		if err != nil {
			return err
		}
		if f&1 == 1 {
			return errShardPrivate // another bulk op holds the shard
		}
		return tx.Write(base+offFlag, f+state)
	})
	if err != nil {
		return err
	}
	s.privatizations.Add(1)
	if sl := s.board.Slot(th); sl != nil {
		sl.Privatizations.Add(1)
	}
	return nil
}

// privatize commits a transaction moving the shard's flag to state,
// then fences: after it returns, no transaction that saw the shard
// shared is still running, so the uninstrumented accesses state allows
// are race-free (Figure 7). The read-private state needs the fence as
// much as the exclusive one: it waits out the writers that saw the flag
// even.
func (s *Store) privatize(th, base int, state int64) error {
	if err := s.acquirePrivate(th, base, state); err != nil {
		return err
	}
	s.tm.Fence(th)
	return nil
}

// privatizeAll is the batched bulk-maintenance cycle: commit the
// exclusive-privatizing transaction for every shard (ascending order,
// so concurrent bulk operations cannot deadlock), run ONE fence, then
// work(shard) and the publish that re-shares it, shard by shard. The
// fence starts after every privatizing transaction committed, so no
// transaction that saw any of the shards shared is still live when the
// work runs. work must use only uninstrumented accesses and heap
// calls. Every shard is published even when work fails on another; the
// errors are joined.
func (s *Store) privatizeAll(th int, work func(shard int) error) error {
	for sh := 0; sh < s.shards; sh++ {
		if err := s.acquirePrivate(th, s.base(sh), flagExclusive); err != nil {
			// Re-share what we already hold: a half-acquired bulk op
			// must not leave shards privatized forever. A publish that
			// fails here leaves its shard stuck odd — report it instead
			// of letting point operations time out against it silently.
			for done := 0; done < sh; done++ {
				if perr := s.publish(th, s.base(done)); perr != nil {
					err = errors.Join(err, fmt.Errorf("stmkv: rollback publish of shard %d failed (shard stuck private): %w", done, perr))
				}
			}
			return err
		}
	}
	s.tm.Fence(th)
	var errs []error
	for sh := 0; sh < s.shards; sh++ {
		if err := work(sh); err != nil {
			errs = append(errs, err)
		}
		if err := s.publish(th, s.base(sh)); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// publish commits a transaction rounding the shard's flag up to the
// next multiple of four — shared again, from either private state — and
// wakes every operation waiting on the gate.
func (s *Store) publish(th, base int) error {
	err := core.Atomically(s.tm, th, func(tx core.Txn) error {
		f, err := tx.Read(base + offFlag)
		if err != nil {
			return err
		}
		return tx.Write(base+offFlag, (f|flagStateMask)+1)
	})
	if err == nil {
		s.gate.Open()
	}
	return err
}

// retryShared runs body transactionally, waiting on the store's
// publish gate and retrying for as long as it reports the shard private.
// Bodies start with the writable() or readable() guard, so they never
// touch a shard's table in a state that forbids it.
func (s *Store) retryShared(th int, body func(core.Txn) error) error {
	return s.gate.Retry(s.tm, th, errShardPrivate, body)
}
