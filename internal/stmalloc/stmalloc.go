// Package stmalloc is a sharded free-list allocator over a TM's
// register space whose Free is the paper's privatization idiom made
// reusable (PAPER.md Figure 7, §2.1): safe memory reclamation for
// transactional data structures.
//
// The life of a block:
//
//  1. New(tx, th, n) allocates inside the caller's transaction, so an
//     aborted transaction leaks nothing — the pop (or bump) rolls back
//     with everything else.
//  2. The data structure unlinks the block transactionally (a Remove
//     or Dequeue that commits).
//  3. Free(th, ptr, n) runs the TM's fence (core.TM.Fence): once every
//     transaction active at the Free has finished — so no stale
//     reference survives — the block is wiped with *uninstrumented*
//     stores (the idiom's private phase) and pushed back onto its home
//     shard's free list by a small transaction (the publish), all on
//     the caller's thread before Free returns.
//
// The free lists themselves live in TM registers (each free block's
// first register is the next-free link, shard list heads live in the
// heap header), so allocation is a pure transaction and doomed readers
// of allocator state are caught by the TM's opacity machinery like any
// other conflict.
//
// Two escape hatches adjust the reclamation path:
//
//   - WithTransactionalFree is the fallback for TMs whose fence is
//     unsafe or absent (the engine's nofence/skipro anomaly specs):
//     Free pushes the block back immediately with a transaction and
//     never touches it uninstrumented. This is safe on any opaque TM —
//     a doomed reader still holding the block sees only transactional
//     writes, which its validation catches — it just gives up the
//     uninstrumented wipe the idiom buys.
//   - FreeQuiesced skips the grace period because the caller already
//     ran one: a privatize→fence→operate cycle (stmkv's growth path)
//     that unlinked the block while the shard was quiescent may return
//     it straight to the free list.
//
// # The magazine layer
//
// WithMagazines gives each thread two things (after Bonwick's
// slab/magazine design, with RCU call_rcu-style batch reclamation): an
// alloc-side cache of quiesced blocks per size class, living in TM
// registers only that thread normally touches, and a list of parked
// frees, living in plain Go memory. A block's magazine life:
//
//  1. Park. Free appends (ptr, class) to the thread's parked list under
//     a per-thread mutex. No transaction runs and the block is not
//     touched.
//  2. Retire. The Free that fills the list to capacity+1 blocks runs
//     ONE fence for the whole list. Reclamation cost scales with free
//     epochs, not free count.
//  3. Recycle. After the grace period, one uninstrumented wipe pass
//     covers every block, then one transaction pushes them onto the
//     freeing thread's own alloc-side cache, up to recycleFactor ×
//     capacity blocks per class. The rest go to their home shard lists
//     (coalescing with free buddies); on a heap that has ever split,
//     every block does, so the buddy layer keeps re-forming large
//     blocks.
//  4. Reuse. New pops from the thread's cache: a transaction that never
//     conflicts with other allocators. An empty cache refills by
//     unlinking up to capacity+1 blocks from one shard free list in the
//     allocating transaction.
//
// A thread's blocks therefore stay with the thread that allocates them
// next, and two threads churning the same class stop meeting on the
// shard list heads at every retire and every refill.
//
// Why the parked list is safe without a transaction. A block is
// parked only after the caller's unlinking transaction committed, so
// every transaction that can still hold a reference to it was active
// at its Free, hence also when its batch retires, and the batch's
// grace period waits for all of them. Until then nothing writes the
// block at all, not even transactionally: a doomed reader still walking
// it reads exactly what it read before the unlink. After the grace
// period the block is private, so the uninstrumented wipe is race-free,
// and the recycle transaction's commit publishes it again. This is the
// per-free path's argument (Fig. 7) applied to a batch. It is why the
// list lives in Go memory rather than as a chain threaded through the
// blocks' link registers: pushing onto such a chain, even
// transactionally, writes a block that doomed readers may still be
// traversing.
//
// FreeQuiesced blocks (already fenced by the caller) are wiped
// immediately and recycled through the alloc-side cache. FlushThread
// retires a leaving thread's parked list to the shard lists (never into
// the cache it is flushing) and returns its cache to them; Drain
// retires every thread's parked frees under ONE shared grace period,
// routing each block to its owner, before settling. When every shard
// list and bump region is empty, New moves the thread's own cached
// blocks of other classes to the shard lists (so a split or a
// coalescing pass can use them) and steals half of another thread's
// cache of the class before reporting ErrOutOfSpace — parked frees are
// never stolen (they have not quiesced).
//
// # Block splitting and coalescing
//
// The size classes are powers of two and every block is aligned to its
// own size relative to its shard chunk (the bump frontier rounds up,
// returning the skipped pad to the free lists as smaller blocks), so
// every block has a well-defined buddy: the block of the same size
// whose chunk offset differs only in the size bit. On an allocation
// miss — no free block of the class anywhere and every bump region
// exhausted for it — New (and its variable-size alias NewSized) splits
// the smallest fitting larger free block inside the allocating
// transaction: the lower half (recursively) serves the request, the
// upper halves go onto their classes' free lists. All of it is
// transactional free-list surgery, so an abort rolls the split back
// with everything else. Symmetrically, once a heap has ever split, a
// block being published back to a free list first coalesces with its
// buddy when both are free — cascading upward — so node-sized frees
// re-form the large blocks that bucket arrays and tables need. A heap
// that never splits never pays the buddy search. As a last resort
// before ErrOutOfSpace, the allocator runs a whole-shard coalescing
// pass over the free lists: a request larger than any free block still
// succeeds when the free space exists as fragmented split buddies.
//
// # Exact accounting
//
// Per-shard statistics (allocations, frees, bump high-water, splits,
// coalesces) are kept in registers and updated transactionally, so
// they are exact: aborted attempts do not count, and Allocs-Frees
// equals the number of live blocks (the leak-accounting invariant the
// tests pin). The invariant counts blocks AS CURRENTLY SIZED: a split
// turns one free block into several free blocks and a coalesce merges
// two free blocks into one — free space reorganizing, with no counter
// movement — while the allocation itself counts exactly one block at
// its requested class and its Free counts exactly one at the same
// class. A split→free→coalesce round trip therefore nets to zero:
// after a Drain, Allocs-Frees is the caller-held block count no matter
// how the free space has been cut up or re-formed underneath. With
// magazines the counters move per thread and are counted when a block
// passes between the heap and the caller, not when it migrates between
// pools: allocations in a per-thread register (transactional, like the
// shard counters), frees in a per-thread atomic bumped by Free itself —
// exact, because Free runs once per block outside any transaction. A
// parked block therefore counts as freed (it is not Live) and as
// pending (PendingFrees) until its batch recycles.
package stmalloc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"safepriv/internal/core"
	"safepriv/internal/telemetry"
)

// ErrOutOfSpace is returned by New when no shard can serve the request
// from its free list or bump region. Typed so data structures can
// surface exhaustion distinctly from TM-level errors.
var ErrOutOfSpace = errors.New("stmalloc: arena exhausted")

// numClasses bounds the size-class ladder: class c serves blocks of
// 1<<c registers, c in [0, numClasses). 14 classes put the largest
// block at 8192 registers — enough for a hash-map bucket array to
// keep its load factor at or below one through the bench live-set
// sizes (a 4096-entry table wants 4096+ buckets, and a bucket array
// is a single block).
const numClasses = 14

// MaxBlockRegs is the largest allocatable block (registers).
const MaxBlockRegs = 1 << (numClasses - 1)

// Per-shard header layout (registers, relative to the shard's header
// base): bump pointer, transactional alloc/free/split/coalesce
// counters, then one free-list head per size class.
const (
	offBump      = 0
	offAllocs    = 1
	offFrees     = 2
	offSplits    = 3
	offCoalesces = 4
	offLists     = 5
	// shardHdr rounds the 19 live header registers up to 24 — a whole
	// number of cache lines (192B at 8B per register) — so consecutive
	// shard headers never share a cache line: two shards' hot counters
	// stay apart. Part of the false-sharing audit; the stripe and rcu
	// slots were already padded.
	shardHdr = 24
)

// shardHdrLive is the number of registers a shard header actually
// uses; the rest of shardHdr is cache-line padding.
const shardHdrLive = offLists + numClasses

// HeaderRegs returns the header size of a heap with the given shard
// count; the usable arena is everything after it (and after the
// magazine headers, when magazines are enabled).
func HeaderRegs(shards int) int { return shards * shardHdr }

// Per-thread magazine header layout (registers, relative to the
// thread's magazine base): the thread's transactional alloc counter,
// then per size class the alloc-side cache (head, count). Cached blocks
// link through their first register, like the shard free lists. Parked
// frees live outside the TM (parkList).
const (
	offMagAllocs = 0
	magClassBase = 1
	magAllocHead = 0
	magAllocCnt  = 1
	magClassRegs = 2
	// magHdrRegs rounds the 29 live registers (1 counter + 14 classes ×
	// 2) up to 32 — a whole number of cache lines (256B) — so adjacent
	// threads' magazine headers never share a line: thread t's alloc
	// counter, written on every allocation, would otherwise sit on the
	// same line as thread t+1's cache heads.
	magHdrRegs = 32
)

// magHdrLive is the number of registers a magazine header actually
// uses; the rest of magHdrRegs is cache-line padding.
const magHdrLive = magClassBase + numClasses*magClassRegs

// defaultMagCap is the default magazine capacity when WithMagazines is
// given capacity <= 0: blocks per refill of a class's alloc-side cache
// (plus the one the refill serves), and parked frees per thread before
// a batch retire (plus the one that triggers it).
const defaultMagCap = 8

// recycleFactor bounds how many recycled blocks a batch retire may push
// onto its owner's alloc-side cache: recycleFactor × capacity per class.
// Past it blocks go to the shard lists, so one thread's burst of frees
// cannot hoard an unbounded share of the arena.
const recycleFactor = 4

// MagazineRegs returns the register footprint of the per-thread
// magazine headers for the given thread count — the extra header
// budget a WithMagazines heap needs beyond HeaderRegs.
func MagazineRegs(threads int) int {
	if threads <= 0 {
		return 0
	}
	return threads * magHdrRegs
}

// BlockRegs returns the register footprint a request for n registers
// actually occupies (the size-class roundup), or 0 if n is not
// allocatable.
func BlockRegs(n int) int {
	c, ok := classOf(n)
	if !ok {
		return 0
	}
	return 1 << c
}

// classOf maps a request size to its size class.
func classOf(n int) (int, bool) {
	if n <= 0 || n > MaxBlockRegs {
		return 0, false
	}
	c := 0
	for 1<<c < n {
		c++
	}
	return c, true
}

// ClassDemand is one entry of a block-demand profile: Count live
// blocks serving requests of Regs registers each. A profile with one
// entry per size class a client touches describes its steady-state
// heap geometry (stmkv's tables are single-class; a stmds.SkipMap
// spans four classes, one per tower-height band).
type ClassDemand struct {
	Regs  int // request size in registers (rounded up to its class)
	Count int // live blocks of this class the arena must hold at once
}

// RegsForDemand returns the total register budget (headers included) a
// heap needs to keep the given demand profile live: pass the result as
// `limit-first` to New. It generalizes the single-class geometry of
// stmkv.RegsNeededBatch to multi-size-class clients:
//
//   - every demanded block at its size-class roundup, plus
//   - one max-class block of slack per shard, because a block cannot
//     straddle shard chunks, so each chunk's bump tail can strand up
//     to one block of fragmentation, plus
//   - when magazines are enabled (magThreads > 0, capacity magCap or
//     the default), 2 × magCap blocks of every demanded class for every
//     thread: a full alloc-side cache and a full parked list, whose
//     blocks are neither live nor on a shard free list. A batch retire
//     may recycle up to recycleFactor × magCap blocks into a cache, but
//     the excess needs no budget: those blocks are quiesced, so when
//     the shard lists and bump regions run dry another thread's New
//     steals them (stealHalf) and its own New spills them to the shard
//     lists before splitting — they strand nothing.
//
// Returns 0 if any entry is unallocatable (Regs out of range or a
// negative Count) — the same convention as BlockRegs.
func RegsForDemand(shards, magThreads, magCap int, demand []ClassDemand) int {
	if shards < 1 {
		shards = 1
	}
	if magCap <= 0 {
		magCap = defaultMagCap
	}
	classes := make(map[int]bool)
	arena, maxBlock := 0, 0
	for _, d := range demand {
		b := BlockRegs(d.Regs)
		if b == 0 || d.Count < 0 {
			return 0
		}
		arena += d.Count * b
		classes[b] = true
		if b > maxBlock {
			maxBlock = b
		}
	}
	if magThreads > 0 {
		stock := 0
		for b := range classes {
			stock += 2 * magCap * b
		}
		arena += magThreads * stock
	}
	arena += shards * maxBlock
	return HeaderRegs(shards) + MagazineRegs(magThreads) + arena
}

// Option mutates heap construction.
type Option func(*Heap)

// WithShards sets the shard count (default 8, clamped so every shard
// chunk holds at least one minimal block).
func WithShards(n int) Option { return func(h *Heap) { h.shards = n } }

// WithTransactionalFree makes Free push blocks back immediately inside
// a transaction, with no grace period and no uninstrumented wipe — the
// reclamation mode that stays safe when the TM's fence is a no-op
// (nofence/skipro anomaly specs).
func WithTransactionalFree() Option { return func(h *Heap) { h.txnFree = true } }

// WithMagazines adds the per-thread magazine layer for thread ids
// 1..threads (see the package comment): thread-local alloc-side caches
// refilled `capacity` blocks at a time, and parked-free lists retired
// as one batch under one grace period every capacity+1 frees (capacity
// <= 0 selects the default). Threads outside 1..threads (the TM's
// reserved reclaim thread, harness spares) fall back to the shared
// path. Incompatible with WithTransactionalFree, whose whole point is
// to never ride the fence the batch retire amortizes.
func WithMagazines(threads, capacity int) Option {
	return func(h *Heap) {
		h.magThreads = threads
		h.magCap = capacity
	}
}

// ShardStats is one shard's traffic snapshot.
type ShardStats struct {
	// Allocs and Frees count blocks (transactionally exact).
	Allocs, Frees int64
	// BumpRegs is the shard's bump high-water: registers ever taken
	// from its chunk (free-list reuse does not advance it).
	BumpRegs int64
	// Splits counts buddy halvings (a split from class C down to class
	// c is C-c halvings); Coalesces counts buddy merges. Both are
	// transactionally exact — free space reorganizing, so neither moves
	// Allocs or Frees.
	Splits, Coalesces int64
}

// Stats is a heap-wide snapshot.
type Stats struct {
	// Allocs, Frees count blocks across all shards; Live = Allocs-Frees
	// is the number of blocks currently held by callers.
	Allocs, Frees, Live int64
	// BumpRegs sums the shards' bump high-waters: the heap's
	// steady-state register footprint.
	BumpRegs int64
	// PendingFrees counts Free calls whose grace period has not yet
	// completed (their blocks are neither live nor on a free list —
	// including frees parked on a thread's list awaiting a batch
	// retire).
	PendingFrees int64
	// MagAlloc counts quiesced blocks cached on the per-thread
	// alloc-side caches at snapshot time; MagFree counts parked frees
	// (on the threads' parked lists, not yet retired). Zero on heaps
	// without magazines.
	MagAlloc, MagFree int64
	// Batches counts batch retires: grace-period registrations that
	// each covered a whole magazine (or flush) of frees. On the batch
	// path Frees/Batches is the amortization factor. Zero on heaps
	// without magazines.
	Batches int64
	// Splits and Coalesces sum the shards' buddy halvings and merges.
	// They never move Allocs or Frees: the leak invariant counts blocks
	// as currently sized, and split/coalesce only reorganize free
	// space.
	Splits, Coalesces int64
	// Shards holds the per-shard breakdown.
	Shards []ShardStats
}

// Heap is a sharded free-list allocator over the register range
// [first, limit) of one TM. The header (HeaderRegs registers) sits at
// the front of the range; the rest is split into per-shard bump
// chunks. Construction reinitializes the header non-transactionally,
// so it must happen before concurrent use.
type Heap struct {
	tm         core.TM
	first      int // header base
	arena      int // first register after the header(s)
	limit      int
	chunk      int // registers per shard chunk
	shards     int
	txnFree    bool
	magThreads int // 0 = no magazine layer

	// magCap is the magazine capacity (see defaultMagCap), fixed by
	// WithMagazines.
	magCap int

	// parked[th] is magazine thread th's parked-free list (index 0
	// unused).
	parked []parkList

	// board, when set, receives magazine hit/miss and batch telemetry.
	board *telemetry.Board

	// affinity[th] is thread th's last successful refill shard + 1
	// (0 = none yet): refills and bumps try it first so a thread keeps
	// drawing from one shard instead of ping-ponging the shard headers
	// across cores. A hint only — correctness never depends on it.
	affinity []atomic.Int32

	// pending counts Frees begun but not yet pushed back, and batches
	// counts batch retires (magazine fills and flushes). Each sits on
	// its own cache line: every freeing thread bumps them, and they
	// previously shared one line with each other and firstErr.
	pending  padInt64
	batches  padInt64
	firstErr paddedErr

	// everSplit gates the publish-time buddy search: heaps that never
	// split never pay it. Set inside the (possibly aborting) split
	// attempt, so it is a conservative hint, never a correctness
	// condition — at worst a publish searches a list and finds no
	// buddy.
	everSplit atomic.Bool
}

// padInt64 is an atomic counter on its own cache line.
type padInt64 struct {
	atomic.Int64
	_ [56]byte
}

// paddedErr holds the first error a reclamation hit (Free returns none;
// Drain surfaces it), padded off the counters around it.
type paddedErr struct {
	atomic.Pointer[error]
	_ [56]byte
}

// parkList is one magazine thread's parked frees: blocks whose Free has
// returned but whose batch has not retired. Plain Go memory, not TM
// registers — nothing touches a parked block until its grace period
// has passed (see the package comment). mu serializes the owner's Free
// against FlushThread, Drain and Stats; frees counts the thread's
// frees. spare is the slice of the list's last published batch, kept
// for its next one, so a steady-state retire allocates no slice.
// Padded so neighbouring threads' lists never share a cache line.
type parkList struct {
	mu     sync.Mutex
	blocks []retired
	spare  []retired
	frees  atomic.Int64
	_      [64]byte
}

// park appends r and, when that fills the list past capacity, empties
// it, returning the whole batch to retire.
func (p *parkList) park(r retired, capacity int) []retired {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blocks = append(p.blocks, r)
	if len(p.blocks) <= capacity {
		return nil
	}
	return p.takeLocked(capacity)
}

// take empties the list, returning its blocks (nil when empty).
func (p *parkList) take(capacity int) []retired {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.blocks) == 0 {
		return nil
	}
	return p.takeLocked(capacity)
}

// takeLocked hands the current slice to the caller — it lives on until
// the retire has published it — and continues on the spare, or on a
// fresh slice sized for a full batch.
func (p *parkList) takeLocked(capacity int) []retired {
	b := p.blocks
	p.blocks, p.spare = p.spare, nil
	if p.blocks == nil {
		p.blocks = make([]retired, 0, capacity+1)
	}
	return b
}

// reuse keeps a published batch's slice as the list's spare.
func (p *parkList) reuse(b []retired) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.spare == nil {
		p.spare = b[:0]
	}
}

// count returns the number of parked blocks.
func (p *parkList) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.blocks)
}

// New builds a heap over tm's registers [first, limit). Register 0
// must not be part of the arena (0 encodes nil free-list links), so
// first must be positive.
func New(tm core.TM, first, limit int, opts ...Option) (*Heap, error) {
	h := &Heap{tm: tm, first: first, limit: limit, shards: 8}
	for _, o := range opts {
		o(h)
	}
	if first <= 0 || limit > tm.NumRegs() || first >= limit {
		return nil, fmt.Errorf("stmalloc: bad arena [%d, %d) over %d registers", first, limit, tm.NumRegs())
	}
	if h.shards < 1 {
		return nil, fmt.Errorf("stmalloc: bad shard count %d", h.shards)
	}
	if h.magThreads < 0 {
		return nil, fmt.Errorf("stmalloc: bad magazine thread count %d", h.magThreads)
	}
	if h.magThreads > 0 {
		if h.txnFree {
			return nil, fmt.Errorf("stmalloc: magazines batch reclamation through the fence; they cannot combine with WithTransactionalFree")
		}
		if h.magCap <= 0 {
			h.magCap = defaultMagCap
		}
	}
	// Clamp shards so every chunk holds at least one minimal block.
	for h.shards > 1 && (limit-first-HeaderRegs(h.shards)-MagazineRegs(h.magThreads))/h.shards < 1 {
		h.shards--
	}
	h.arena = first + HeaderRegs(h.shards) + MagazineRegs(h.magThreads)
	if h.arena >= limit {
		return nil, fmt.Errorf("stmalloc: arena [%d, %d) cannot hold a %d-shard header plus %d magazine threads", first, limit, h.shards, h.magThreads)
	}
	h.chunk = (limit - h.arena) / h.shards
	// Reinitialize the header: fresh bump pointers, empty lists, zero
	// counters. Non-transactional — construction precedes concurrency.
	for s := 0; s < h.shards; s++ {
		tm.Store(1, h.hdr(s)+offBump, int64(h.chunkStart(s)))
		tm.Store(1, h.hdr(s)+offAllocs, 0)
		tm.Store(1, h.hdr(s)+offFrees, 0)
		tm.Store(1, h.hdr(s)+offSplits, 0)
		tm.Store(1, h.hdr(s)+offCoalesces, 0)
		for c := 0; c < numClasses; c++ {
			tm.Store(1, h.hdr(s)+offLists+c, 0)
		}
	}
	for t := 1; t <= h.magThreads; t++ {
		for r := 0; r < magHdrRegs; r++ {
			tm.Store(1, h.magBase(t)+r, 0)
		}
	}
	h.parked = make([]parkList, h.magThreads+1)
	for t := 1; t <= h.magThreads; t++ {
		h.parked[t].blocks = make([]retired, 0, h.magCap+1)
	}
	h.affinity = make([]atomic.Int32, h.magThreads+2)
	// Auto-attach the TM's telemetry board (all registry TMs carry
	// one), so magazine hit/miss rates flow without per-site wiring;
	// SetBoard can still override.
	if p, ok := tm.(telemetry.Provider); ok {
		h.board = p.TelemetryBoard()
	}
	return h, nil
}

// maxChain bounds every free-chain walk: no committed chain can hold
// more blocks than the arena has registers, so a longer walk means a
// doomed transaction read a cyclic link and must abort. Deliberately
// capacity-independent: the same guard serves the shard free lists,
// which no magazine capacity bounds.
func (h *Heap) maxChain() int { return h.limit - h.arena }

// SetBoard attaches a telemetry board: magazine hits/misses and batch
// retires are recorded into the acting thread's slot. Call before the
// heap sees traffic.
func (h *Heap) SetBoard(b *telemetry.Board) { h.board = b }

func (h *Heap) hdr(s int) int        { return h.first + s*shardHdr }
func (h *Heap) chunkStart(s int) int { return h.arena + s*h.chunk }
func (h *Heap) chunkEnd(s int) int   { return h.arena + (s+1)*h.chunk }

// magBase is thread th's magazine header base; magClass the base of
// its class-c cache/magazine slot.
func (h *Heap) magBase(th int) int      { return h.first + h.shards*shardHdr + (th-1)*magHdrRegs }
func (h *Heap) magClass(th, c int) int  { return h.magBase(th) + magClassBase + c*magClassRegs }
func (h *Heap) hasMagazine(th int) bool { return h.magThreads > 0 && th >= 1 && th <= h.magThreads }

// MaxBlock returns the largest block (registers) this heap can serve:
// the size-class bound clamped to the chunk size.
func (h *Heap) MaxBlock() int {
	m := MaxBlockRegs
	for m > h.chunk {
		m >>= 1
	}
	return m
}

// Shards returns the shard count.
func (h *Heap) Shards() int { return h.shards }

// validPtr reports whether v is a plausible block pointer. Free-list
// link registers are only ever written transactionally, so committed
// state always holds valid pointers — but a doomed transaction racing
// an uninstrumented private phase can transiently read garbage, and
// must abort rather than dereference it.
func (h *Heap) validPtr(v int64) bool {
	return v >= int64(h.arena) && v < int64(h.limit)
}

// New allocates n consecutive registers inside tx and returns the
// index of the first. th picks the preferred shard; allocation falls
// over to other shards (free list first, then bump, then a buddy split
// of a larger free block, then a coalescing pass over fragmented
// buddies) before reporting ErrOutOfSpace. Aborted transactions roll
// the allocation back — splits included, they are plain transactional
// free-list surgery. On a magazine heap the common case pops from the
// calling thread's cache — registers no other thread touches, so
// concurrent allocators never conflict — refilling a magazine's worth
// from a shard free list when the cache runs dry.
func (h *Heap) New(tx core.Txn, th, n int) (int64, error) {
	c, ok := classOf(n)
	if !ok || 1<<c > h.chunk {
		return 0, fmt.Errorf("stmalloc: cannot serve %d-register block (max %d): %w", n, h.MaxBlock(), ErrOutOfSpace)
	}
	if h.hasMagazine(th) {
		return h.newMag(tx, th, c, n)
	}
	return h.newShared(tx, th, c, n)
}

// NewSized is New under the name variable-size clients should reach
// for: the entry point of the buddy layer. A request whose size-class
// roundup has no free block and no bump space left splits the smallest
// fitting larger free block inside tx (abort-safe), and a Free of the
// resulting block later coalesces with its buddy when both are free —
// so a client cycling through growing bucket arrays (stmds.HashMap)
// recycles each retired array into node-sized blocks instead of
// stranding arena space. Identical to New in behavior; both share the
// split/coalesce miss path.
func (h *Heap) NewSized(tx core.Txn, th, n int) (int64, error) {
	return h.New(tx, th, n)
}

// newShared is the magazine-less allocation path: shard free lists,
// then bump regions, then buddy splits, then the last-resort
// coalescing pass; shard counters.
func (h *Heap) newShared(tx core.Txn, th, c, n int) (int64, error) {
	size := int64(1) << c
	start := h.homeShard(th)
	for i := 0; i < h.shards; i++ {
		s := (start + i) % h.shards
		// Free list for the class.
		head, err := h.popList(tx, s, c)
		if err != nil {
			return 0, err
		}
		if head == 0 {
			// Bump region.
			if head, err = h.bump(tx, s, size); err != nil {
				return 0, err
			}
		}
		if head != 0 {
			if err := h.countAlloc(tx, s); err != nil {
				return 0, err
			}
			h.noteShard(th, s)
			return head, nil
		}
	}
	// No exact block and no bump space anywhere: split the smallest
	// fitting larger free block.
	for i := 0; i < h.shards; i++ {
		s := (start + i) % h.shards
		ptr, err := h.splitFrom(tx, s, c)
		if err != nil {
			return 0, err
		}
		if ptr != 0 {
			if err := h.countAlloc(tx, s); err != nil {
				return 0, err
			}
			h.noteShard(th, s)
			return ptr, nil
		}
	}
	// Last resort before ErrOutOfSpace: the free space may exist only
	// as fragmented split buddies. Coalesce each shard's lists and
	// retry the class list and the split.
	for i := 0; i < h.shards; i++ {
		s := (start + i) % h.shards
		ptr, err := h.coalesceAndRetry(tx, s, c)
		if err != nil {
			return 0, err
		}
		if ptr != 0 {
			if err := h.countAlloc(tx, s); err != nil {
				return 0, err
			}
			h.noteShard(th, s)
			return ptr, nil
		}
	}
	return 0, fmt.Errorf("stmalloc: no shard can serve %d registers: %w", n, ErrOutOfSpace)
}

// popList pops one block from shard s's class-c free list (0 when
// empty).
func (h *Heap) popList(tx core.Txn, s, c int) (int64, error) {
	head, err := tx.Read(h.hdr(s) + offLists + c)
	if err != nil {
		return 0, err
	}
	if head == 0 {
		return 0, nil
	}
	if !h.validPtr(head) {
		return 0, core.ErrAborted // doomed read of in-flight state
	}
	next, err := tx.Read(int(head))
	if err != nil {
		return 0, err
	}
	if next != 0 && !h.validPtr(next) {
		return 0, core.ErrAborted
	}
	if err := tx.Write(h.hdr(s)+offLists+c, next); err != nil {
		return 0, err
	}
	return head, nil
}

// splitFrom pops the smallest free block of a class above c on shard s
// and splits it down to class c inside tx: the lower half (recursively)
// is returned for the current allocation, the upper halves go onto
// their classes' free lists. Alignment is preserved — the popped block
// is aligned to its own size, so every fragment is aligned to its.
// Returns 0 when no larger class has a free block.
func (h *Heap) splitFrom(tx core.Txn, s, c int) (int64, error) {
	for C := c + 1; C < numClasses && 1<<C <= h.chunk; C++ {
		ptr, err := h.popList(tx, s, C)
		if err != nil {
			return 0, err
		}
		if ptr == 0 {
			continue
		}
		h.everSplit.Store(true)
		for k := C - 1; k >= c; k-- {
			frag := ptr + int64(1)<<k
			fh, err := tx.Read(h.hdr(s) + offLists + k)
			if err != nil {
				return 0, err
			}
			if fh != 0 && !h.validPtr(fh) {
				return 0, core.ErrAborted
			}
			if err := tx.Write(int(frag), fh); err != nil {
				return 0, err
			}
			if err := tx.Write(h.hdr(s)+offLists+k, frag); err != nil {
				return 0, err
			}
		}
		if err := h.countShard(tx, s, offSplits, int64(C-c)); err != nil {
			return 0, err
		}
		return ptr, nil
	}
	return 0, nil
}

// coalesceAndRetry is the pre-ErrOutOfSpace fallback: merge every free
// buddy pair on shard s's lists bottom-up, then retry the class list
// and the split path. Returns 0 when the shard still cannot serve
// class c.
func (h *Heap) coalesceAndRetry(tx core.Txn, s, c int) (int64, error) {
	if err := h.coalesceShard(tx, s); err != nil {
		return 0, err
	}
	ptr, err := h.popList(tx, s, c)
	if err != nil || ptr != 0 {
		return ptr, err
	}
	return h.splitFrom(tx, s, c)
}

// coalesceShard merges every free buddy pair it can find on shard s's
// lists, bottom-up so merges cascade: two free class-c buddies become
// one free class-c+1 block, which may pair again at c+1. A whole-list
// rewrite per class, so it runs only on the brink of exhaustion — the
// publish path's incremental cascade (pushFree) keeps steady-state
// fragmentation down without it.
func (h *Heap) coalesceShard(tx core.Txn, s int) error {
	base := int64(h.chunkStart(s))
	for c := 0; c+1 < numClasses && 1<<(c+1) <= h.chunk; c++ {
		reg := h.hdr(s) + offLists + c
		head, err := tx.Read(reg)
		if err != nil {
			return err
		}
		var blocks []int64
		for cur := head; cur != 0; {
			if !h.validPtr(cur) || len(blocks) > h.maxChain() {
				return core.ErrAborted
			}
			blocks = append(blocks, cur)
			if cur, err = tx.Read(int(cur)); err != nil {
				return err
			}
		}
		if len(blocks) < 2 {
			continue
		}
		size := int64(1) << c
		at := make(map[int64]bool, len(blocks))
		for _, p := range blocks {
			at[p] = true
		}
		var survivors, merged []int64
		for _, p := range blocks {
			switch {
			case (p-base)&size == 0 && at[p+size]:
				merged = append(merged, p) // lower half of a free pair
			case (p-base)&size != 0 && at[p-size]:
				// upper half of a free pair: consumed by its lower half
			default:
				survivors = append(survivors, p)
			}
		}
		if len(merged) == 0 {
			continue
		}
		// Rewrite the class list as the survivors, then push every
		// merged block onto the next class up (read fresh when the loop
		// reaches it, so cascades happen naturally).
		prev := int64(0)
		for i := len(survivors) - 1; i >= 0; i-- {
			if err := tx.Write(int(survivors[i]), prev); err != nil {
				return err
			}
			prev = survivors[i]
		}
		if err := tx.Write(reg, prev); err != nil {
			return err
		}
		up := h.hdr(s) + offLists + c + 1
		for _, p := range merged {
			uh, err := tx.Read(up)
			if err != nil {
				return err
			}
			if uh != 0 && !h.validPtr(uh) {
				return core.ErrAborted
			}
			if err := tx.Write(int(p), uh); err != nil {
				return err
			}
			if err := tx.Write(up, p); err != nil {
				return err
			}
		}
		if err := h.countShard(tx, s, offCoalesces, int64(len(merged))); err != nil {
			return err
		}
	}
	return nil
}

// bump takes size registers from shard s's bump region, returning 0
// (no error) when the chunk is exhausted. The frontier rounds up so
// every block is aligned to its own size relative to the chunk start —
// the invariant the buddy arithmetic (splitFrom, pushFree,
// coalesceShard) rests on: a block's buddy is the same-size block
// whose chunk offset differs only in the size bit. The skipped pad is
// not stranded: it decomposes into maximal aligned power-of-two blocks
// pushed onto their classes' free lists inside the same transaction.
// Single-class traffic never pays a pad (the frontier stays aligned).
func (h *Heap) bump(tx core.Txn, s int, size int64) (int64, error) {
	b, err := tx.Read(h.hdr(s) + offBump)
	if err != nil {
		return 0, err
	}
	if !h.validBump(s, b) {
		return 0, core.ErrAborted
	}
	base := int64(h.chunkStart(s))
	aligned := b + (size-(b-base)&(size-1))&(size-1)
	if aligned+size > int64(h.chunkEnd(s)) {
		return 0, nil
	}
	for p := b; p < aligned; {
		off := p - base
		k := 0
		for k+1 < numClasses && off&(1<<(k+1)-1) == 0 && p+1<<(k+1) <= aligned {
			k++
		}
		fh, err := tx.Read(h.hdr(s) + offLists + k)
		if err != nil {
			return 0, err
		}
		if fh != 0 && !h.validPtr(fh) {
			return 0, core.ErrAborted
		}
		if err := tx.Write(int(p), fh); err != nil {
			return 0, err
		}
		if err := tx.Write(h.hdr(s)+offLists+k, p); err != nil {
			return 0, err
		}
		p += 1 << k
	}
	if err := tx.Write(h.hdr(s)+offBump, aligned+size); err != nil {
		return 0, err
	}
	return aligned, nil
}

// newMag is the magazine allocation path, in falling order of
// preference: the thread's own cache, a batch refill from a shard free
// list (the thread's affinity shard first, so repeat refills keep
// drawing from one shard instead of ping-ponging shard headers across
// cores), a bump region, a split of a larger free block, HALF of
// another thread's cache (parked frees are never taken — they have not
// quiesced), and the last-resort coalescing pass.
func (h *Heap) newMag(tx core.Txn, th, c, n int) (int64, error) {
	ptr, err := h.popMag(tx, th, c)
	if err != nil {
		return 0, err
	}
	if sl := h.board.Slot(th); sl != nil {
		if ptr != 0 {
			sl.MagHits.Add(1)
		} else {
			sl.MagMisses.Add(1)
		}
	}
	if ptr == 0 {
		start := h.homeShard(th)
		for i := 0; i < h.shards && ptr == 0; i++ {
			s := (start + i) % h.shards
			if ptr, err = h.refill(tx, th, s, c); err != nil {
				return 0, err
			}
			if ptr != 0 {
				h.noteShard(th, s)
			}
		}
	}
	if ptr == 0 {
		size := int64(1) << c
		start := h.homeShard(th)
		for i := 0; i < h.shards && ptr == 0; i++ {
			s := (start + i) % h.shards
			if ptr, err = h.bump(tx, s, size); err != nil {
				return 0, err
			}
			if ptr != 0 {
				h.noteShard(th, s)
			}
		}
	}
	if ptr == 0 {
		// No exact block, no bump space: split a larger free block. The
		// thread's own cache may hold the only one — a batch retire
		// recycles into it until the heap first splits — so move the
		// cache to the shard lists first, where the split (and, failing
		// that, the coalescing pass) can reach it.
		if err := h.spillCache(tx, th); err != nil {
			return 0, err
		}
		start := h.homeShard(th)
		for i := 0; i < h.shards && ptr == 0; i++ {
			s := (start + i) % h.shards
			if ptr, err = h.splitFrom(tx, s, c); err != nil {
				return 0, err
			}
			if ptr != 0 {
				h.noteShard(th, s)
			}
		}
	}
	if ptr == 0 {
		for t := 1; t <= h.magThreads && ptr == 0; t++ {
			if t == th {
				continue
			}
			if ptr, err = h.stealHalf(tx, th, t, c); err != nil {
				return 0, err
			}
		}
	}
	if ptr == 0 {
		// Last resort before ErrOutOfSpace: the free space may exist
		// only as fragmented split buddies (e.g. cache spills and
		// flushes push fragments back without merging). Coalesce and
		// retry.
		start := h.homeShard(th)
		for i := 0; i < h.shards && ptr == 0; i++ {
			s := (start + i) % h.shards
			if ptr, err = h.coalesceAndRetry(tx, s, c); err != nil {
				return 0, err
			}
			if ptr != 0 {
				h.noteShard(th, s)
			}
		}
	}
	if ptr == 0 {
		return 0, fmt.Errorf("stmalloc: no shard or magazine can serve %d registers: %w", n, ErrOutOfSpace)
	}
	if err := h.countMagAlloc(tx, th); err != nil {
		return 0, err
	}
	return ptr, nil
}

// homeShard is the shard thread th tries first: its sticky refill
// affinity when one is recorded, else the static th-derived home.
func (h *Heap) homeShard(th int) int {
	if th >= 0 && th < len(h.affinity) {
		if a := h.affinity[th].Load(); a > 0 {
			return int(a-1) % h.shards
		}
	}
	s := th % h.shards
	if s < 0 {
		s = 0
	}
	return s
}

// noteShard records a successful refill/bump source as th's affinity.
// A hint only (plain atomic, racy reads fine): correctness never
// depends on it.
func (h *Heap) noteShard(th, s int) {
	if th >= 0 && th < len(h.affinity) {
		h.affinity[th].Store(int32(s + 1))
	}
}

// stealHalf migrates half of victim's alloc-side class-c cache into
// thread th's (empty, we just missed on it) cache, returning the first
// stolen block for the current allocation. The previous exhaustion
// path stole a single block, so every allocation under exhaustion
// re-ran the whole miss gauntlet and conflicted with the victim again;
// taking half amortizes one cross-thread conflict over several future
// local pops (the work-stealing deque split, applied to magazines).
func (h *Heap) stealHalf(tx core.Txn, th, victim, c int) (int64, error) {
	reg := h.magClass(victim, c)
	head, err := tx.Read(reg + magAllocHead)
	if err != nil {
		return 0, err
	}
	if head == 0 {
		return 0, nil
	}
	if !h.validPtr(head) {
		return 0, core.ErrAborted
	}
	cnt, err := tx.Read(reg + magAllocCnt)
	if err != nil {
		return 0, err
	}
	if cnt < 1 {
		cnt = 1 // committed state keeps head/cnt consistent; stay defensive
	}
	take := (cnt + 1) / 2
	chain := make([]int64, 0, take)
	cur := head
	for int64(len(chain)) < take && cur != 0 {
		if !h.validPtr(cur) || len(chain) > h.maxChain() {
			return 0, core.ErrAborted
		}
		chain = append(chain, cur)
		nxt, err := tx.Read(int(cur))
		if err != nil {
			return 0, err
		}
		if nxt != 0 && !h.validPtr(nxt) {
			return 0, core.ErrAborted
		}
		cur = nxt
	}
	// Victim keeps the remainder of its chain.
	if err := tx.Write(reg+magAllocHead, cur); err != nil {
		return 0, err
	}
	if err := tx.Write(reg+magAllocCnt, cnt-int64(len(chain))); err != nil {
		return 0, err
	}
	if len(chain) > 1 {
		// Install the rest as th's cache: the links from chain[1] on
		// are already threaded, just cut the new tail.
		own := h.magClass(th, c)
		if err := tx.Write(own+magAllocHead, chain[1]); err != nil {
			return 0, err
		}
		if err := tx.Write(own+magAllocCnt, int64(len(chain)-1)); err != nil {
			return 0, err
		}
		if err := tx.Write(int(chain[len(chain)-1]), 0); err != nil {
			return 0, err
		}
	}
	return chain[0], nil
}

// popMag pops one block from thread owner's alloc-side cache (0 when
// empty). Popping another thread's cache is legal — all alloc-side
// cache traffic is transactional — it just conflicts with the owner.
func (h *Heap) popMag(tx core.Txn, owner, c int) (int64, error) {
	reg := h.magClass(owner, c)
	head, err := tx.Read(reg + magAllocHead)
	if err != nil {
		return 0, err
	}
	if head == 0 {
		return 0, nil
	}
	if !h.validPtr(head) {
		return 0, core.ErrAborted
	}
	next, err := tx.Read(int(head))
	if err != nil {
		return 0, err
	}
	if next != 0 && !h.validPtr(next) {
		return 0, core.ErrAborted
	}
	if err := tx.Write(reg+magAllocHead, next); err != nil {
		return 0, err
	}
	cnt, err := tx.Read(reg + magAllocCnt)
	if err != nil {
		return 0, err
	}
	return head, tx.Write(reg+magAllocCnt, cnt-1)
}

// refill unlinks up to magCap+1 blocks from shard s's class-c free
// list in one step: the first serves the current allocation, the rest
// become the (empty) alloc-side cache — one shared-list access
// amortized over the next magCap thread-local pops. Returns 0 when the
// list is empty.
func (h *Heap) refill(tx core.Txn, th, s, c int) (int64, error) {
	head, err := tx.Read(h.hdr(s) + offLists + c)
	if err != nil {
		return 0, err
	}
	if head == 0 {
		return 0, nil
	}
	if !h.validPtr(head) {
		return 0, core.ErrAborted
	}
	// Take up to magCap+1 blocks, head..tail (n of them); the list
	// keeps the remainder after tail.
	second, tail, n := int64(0), head, 1
	for {
		next, err := tx.Read(int(tail))
		if err != nil {
			return 0, err
		}
		if next != 0 && !h.validPtr(next) {
			return 0, core.ErrAborted
		}
		if next == 0 || n == h.magCap+1 {
			if err := tx.Write(h.hdr(s)+offLists+c, next); err != nil {
				return 0, err
			}
			break
		}
		if n == 1 {
			second = next
		}
		tail, n = next, n+1
	}
	if n > 1 {
		// The chain from second on is already linked; install it as the
		// cache and cut the tail.
		reg := h.magClass(th, c)
		if err := tx.Write(reg+magAllocHead, second); err != nil {
			return 0, err
		}
		if err := tx.Write(reg+magAllocCnt, int64(n-1)); err != nil {
			return 0, err
		}
		if err := tx.Write(int(tail), 0); err != nil {
			return 0, err
		}
	}
	return head, nil
}

// countMagAlloc bumps thread th's transactional allocation counter.
func (h *Heap) countMagAlloc(tx core.Txn, th int) error {
	reg := h.magBase(th) + offMagAllocs
	v, err := tx.Read(reg)
	if err != nil {
		return err
	}
	return tx.Write(reg, v+1)
}

// pushMag pushes the wiped, quiescent class-c block at ptr onto thread
// owner's alloc-side cache inside tx, unless the cache already holds
// limit blocks; it reports whether it did.
func (h *Heap) pushMag(tx core.Txn, owner int, ptr int64, c int, limit int64) (bool, error) {
	reg := h.magClass(owner, c)
	cnt, err := tx.Read(reg + magAllocCnt)
	if err != nil || cnt >= limit {
		return false, err
	}
	head, err := tx.Read(reg + magAllocHead)
	if err != nil {
		return false, err
	}
	if head != 0 && !h.validPtr(head) {
		return false, core.ErrAborted
	}
	if err := tx.Write(int(ptr), head); err != nil {
		return false, err
	}
	if err := tx.Write(reg+magAllocHead, ptr); err != nil {
		return false, err
	}
	return true, tx.Write(reg+magAllocCnt, cnt+1)
}

// validBump guards the bump pointer the same way validPtr guards list
// links (a bump register can transiently hold garbage for a doomed
// reader racing nothing in this package, but stay paranoid: it is
// cheap and makes the allocator robust under any TM).
func (h *Heap) validBump(s int, b int64) bool {
	return b >= int64(h.chunkStart(s)) && b <= int64(h.chunkEnd(s))
}

func (h *Heap) countAlloc(tx core.Txn, s int) error {
	return h.countShard(tx, s, offAllocs, 1)
}

// countShard adds n to one of shard s's transactional counters
// (offAllocs, offFrees, offSplits, offCoalesces) — exact, because an
// aborted transaction rolls the bump back.
func (h *Heap) countShard(tx core.Txn, s, off int, n int64) error {
	reg := h.hdr(s) + off
	v, err := tx.Read(reg)
	if err != nil {
		return err
	}
	return tx.Write(reg, v+n)
}

// shardOf maps a block pointer to its home shard.
func (h *Heap) shardOf(ptr int64) int {
	s := (int(ptr) - h.arena) / h.chunk
	if s < 0 {
		s = 0
	}
	if s >= h.shards {
		s = h.shards - 1
	}
	return s
}

// Free returns the n-register block at ptr to the heap once no
// transaction can still hold a stale reference: it runs the TM's
// fence, then wipes the block uninstrumented and pushes it (in a small
// transaction) onto its home shard's free list. The caller must have
// unlinked the block transactionally before calling Free, must not be
// inside a transaction, and must not touch the block afterwards. Under
// WithTransactionalFree the fence and the wipe are skipped. On a
// magazine thread the block is parked instead and reclaimed with its
// batch (see the package comment).
func (h *Heap) Free(th int, ptr int64, n int) {
	c, ok := classOf(n)
	if !ok {
		h.fail(fmt.Errorf("stmalloc: Free of unallocatable size %d at %d", n, ptr))
		return
	}
	h.pending.Add(1)
	if h.hasMagazine(th) {
		h.freeMag(th, ptr, c)
		return
	}
	if !h.txnFree {
		h.tm.Fence(th)
	}
	h.release(th, ptr, c, !h.txnFree)
}

// retired is one block awaiting (or leaving) a batch retire. owner is
// the magazine thread whose alloc-side cache the block recycles into,
// or 0 to publish it to its home shard's free list.
type retired struct {
	ptr   int64
	class int
	owner int
}

// freeMag is the magazine Free: count the free, park the block on the
// thread's list — no transaction, and the block is not touched — and,
// when that fills the list past capacity, retire the whole list as one
// batch.
func (h *Heap) freeMag(th int, ptr int64, c int) {
	p := &h.parked[th]
	p.frees.Add(1)
	batch := p.park(retired{ptr: ptr, class: c, owner: th}, h.magCap)
	if sl := h.board.Slot(th); sl != nil {
		if batch != nil {
			sl.MagMisses.Add(1) // full list: pays a grace period
		} else {
			sl.MagHits.Add(1) // parked thread-locally
		}
	}
	if batch != nil {
		h.retire(th, batch, p)
	}
}

// retire reclaims a batch of unlinked blocks: ONE fence covers the
// whole batch, after which every block is wiped uninstrumented and
// published (publishBatch). A batch taken whole from a parked list
// names it as home, which gets the slice back once published.
func (h *Heap) retire(th int, batch []retired, home *parkList) {
	h.batches.Add(1)
	if sl := h.board.Slot(th); sl != nil {
		sl.ReclaimBatches.Add(1)
	}
	h.tm.Fence(th)
	h.publishBatch(th, batch)
	if home != nil {
		home.reuse(batch)
	}
}

// publishBatch is the tail of a batch retire, after the grace period:
// one uninstrumented wipe pass over every block (the idiom's private
// phase, amortized — all blocks are unreachable and quiescent), then
// publish transactions routing each block (recycle). Publishes chunk so
// one retire cannot exceed the TM's comfortable write-set size.
func (h *Heap) publishBatch(th int, batch []retired) {
	defer h.pending.Add(-int64(len(batch)))
	for _, r := range batch {
		// Register ptr+0 is skipped — the publish below turns it into
		// the free-list link.
		for i := 1; i < 1<<r.class; i++ {
			h.tm.Store(th, int(r.ptr)+i, 0)
		}
	}
	const chunk = 64
	for lo := 0; lo < len(batch); lo += chunk {
		hi := lo + chunk
		if hi > len(batch) {
			hi = len(batch)
		}
		part := batch[lo:hi]
		err := core.Atomically(h.tm, th, func(tx core.Txn) error {
			for _, r := range part {
				if err := h.recycle(tx, r); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			h.fail(fmt.Errorf("stmalloc: batch publish of %d blocks failed: %w", len(part), err))
			return
		}
	}
}

// recycle publishes one wiped, quiescent block inside tx: onto its
// owner's alloc-side cache while that holds fewer than recycleFactor ×
// capacity blocks of the class, else onto its home shard's list. On a
// heap that has ever split every block takes the shard list, where it
// can coalesce with its buddy.
func (h *Heap) recycle(tx core.Txn, r retired) error {
	if r.owner != 0 && !h.everSplit.Load() {
		if ok, err := h.pushMag(tx, r.owner, r.ptr, r.class, int64(recycleFactor*h.magCap)); ok || err != nil {
			return err
		}
	}
	return h.pushFree(tx, r.ptr, r.class)
}

// FreeQuiesced is Free for a block the caller already knows to be
// quiescent — its own privatize→fence cycle guarantees no transaction
// holds a stale reference (stmkv's growth path). The grace period is
// skipped; the wipe happens inline, and on a magazine heap the block
// recycles straight through the thread's alloc-side cache (spilling to
// its home shard's list when the cache is full), so the next
// allocation of the class pops it locally.
func (h *Heap) FreeQuiesced(th int, ptr int64, n int) {
	c, ok := classOf(n)
	if !ok {
		h.fail(fmt.Errorf("stmalloc: FreeQuiesced of unallocatable size %d at %d", n, ptr))
		return
	}
	h.pending.Add(1)
	if h.hasMagazine(th) {
		h.parked[th].frees.Add(1)
		// Quiescent already: the uninstrumented wipe is race-free now.
		for i := 1; i < 1<<c; i++ {
			h.tm.Store(th, int(ptr)+i, 0)
		}
		err := core.Atomically(h.tm, th, func(tx core.Txn) error {
			if ok, err := h.pushMag(tx, th, ptr, c, int64(h.magCap)); ok || err != nil {
				return err
			}
			// Cache full: spill to the home shard's list (coalescing
			// with free buddies on a heap that has ever split).
			return h.pushFree(tx, ptr, c)
		})
		h.pending.Add(-1)
		if err != nil {
			h.fail(fmt.Errorf("stmalloc: quiesced free of %d failed: %w", ptr, err))
		}
		return
	}
	h.release(th, ptr, c, !h.txnFree)
}

// FlushThread empties thread th's magazines: its parked frees retire as
// ONE batch (one grace period for everything the thread had parked)
// bound for the shard free lists — never into the cache being flushed —
// and its alloc-side cache returns to the shard free lists at once (its
// blocks are wiped and quiescent, so no grace period is needed). Call
// it when a worker goroutine retires mid-run so its parked frees and
// cached blocks don't strand. It is a no-op without magazines.
func (h *Heap) FlushThread(th int) {
	if !h.hasMagazine(th) {
		return
	}
	p := &h.parked[th]
	if batch := p.take(h.magCap); batch != nil {
		for i := range batch {
			batch[i].owner = 0
		}
		h.retire(th, batch, p)
	}
	err := core.Atomically(h.tm, th, func(tx core.Txn) error {
		return h.spillCache(tx, th)
	})
	if err != nil {
		h.fail(fmt.Errorf("stmalloc: alloc-cache flush of thread %d failed: %w", th, err))
	}
}

// spillCache moves every block on thread owner's alloc-side cache onto
// its home shard's free list inside tx. No counter updates: the blocks
// move between free pools, not between the heap and a caller. The
// push does not coalesce (the last-resort pass in New does).
func (h *Heap) spillCache(tx core.Txn, owner int) error {
	for c := 0; c < numClasses; c++ {
		reg := h.magClass(owner, c)
		head, err := tx.Read(reg + magAllocHead)
		if err != nil {
			return err
		}
		if head == 0 {
			continue
		}
		n := 0
		for cur := head; cur != 0; {
			if !h.validPtr(cur) || n > h.maxChain() {
				return core.ErrAborted
			}
			nxt, err := tx.Read(int(cur))
			if err != nil {
				return err
			}
			if nxt != 0 && !h.validPtr(nxt) {
				return core.ErrAborted
			}
			s := h.shardOf(cur)
			sh, err := tx.Read(h.hdr(s) + offLists + c)
			if err != nil {
				return err
			}
			if sh != 0 && !h.validPtr(sh) {
				return core.ErrAborted
			}
			if err := tx.Write(int(cur), sh); err != nil {
				return err
			}
			if err := tx.Write(h.hdr(s)+offLists+c, cur); err != nil {
				return err
			}
			cur = nxt
			n++
		}
		if err := tx.Write(reg+magAllocHead, 0); err != nil {
			return err
		}
		if err := tx.Write(reg+magAllocCnt, 0); err != nil {
			return err
		}
	}
	return nil
}

// pushFree publishes the class-c block at ptr onto its home shard's
// free list inside tx. On a heap that has ever split, the push first
// cascades buddy merges: while the block's buddy sits free on the same
// class list, unlink it, merge, and try again one class up — "Free of
// a split block coalesces with its buddy when both are free". Heaps
// that never split skip the search entirely.
func (h *Heap) pushFree(tx core.Txn, ptr int64, c int) error {
	s := h.shardOf(ptr)
	if h.everSplit.Load() {
		base := int64(h.chunkStart(s))
		for c+1 < numClasses && 1<<(c+1) <= h.chunk {
			size := int64(1) << c
			budOff := (ptr - base) ^ size
			if budOff+size > int64(h.chunk) {
				break
			}
			found, err := h.unlinkBlock(tx, s, c, base+budOff)
			if err != nil {
				return err
			}
			if !found {
				break
			}
			if budOff < ptr-base {
				ptr = base + budOff
			}
			c++
			if err := h.countShard(tx, s, offCoalesces, 1); err != nil {
				return err
			}
		}
	}
	head, err := tx.Read(h.hdr(s) + offLists + c)
	if err != nil {
		return err
	}
	if head != 0 && !h.validPtr(head) {
		return core.ErrAborted
	}
	if err := tx.Write(int(ptr), head); err != nil {
		return err
	}
	return tx.Write(h.hdr(s)+offLists+c, ptr)
}

// unlinkBlock removes the block `want` from shard s's class-c free
// list if present, reporting whether it was found.
func (h *Heap) unlinkBlock(tx core.Txn, s, c int, want int64) (bool, error) {
	prev := h.hdr(s) + offLists + c
	cur, err := tx.Read(prev)
	if err != nil {
		return false, err
	}
	n := 0
	for cur != 0 {
		if !h.validPtr(cur) || n > h.maxChain() {
			return false, core.ErrAborted
		}
		nxt, err := tx.Read(int(cur))
		if err != nil {
			return false, err
		}
		if cur == want {
			if nxt != 0 && !h.validPtr(nxt) {
				return false, core.ErrAborted
			}
			return true, tx.Write(prev, nxt)
		}
		prev, cur = int(cur), nxt
		n++
	}
	return false, nil
}

// release is the tail of every reclamation: optionally wipe the block
// uninstrumented (legal only when it is quiescent), then push it onto
// its home shard's class list with a transaction whose commit makes
// the block reachable again — the publish of the idiom. The push
// coalesces with free buddies on a heap that has ever split.
func (h *Heap) release(th int, ptr int64, c int, wipe bool) {
	defer h.pending.Add(-1)
	if wipe {
		// The idiom's private phase: the block is unreachable and
		// quiescent, so uninstrumented stores are race-free. Register
		// ptr+0 is skipped — the push below turns it into the free-list
		// link. Callers must initialize blocks they allocate.
		for i := 1; i < 1<<c; i++ {
			h.tm.Store(th, int(ptr)+i, 0)
		}
	}
	s := h.shardOf(ptr)
	err := core.Atomically(h.tm, th, func(tx core.Txn) error {
		if err := h.pushFree(tx, ptr, c); err != nil {
			return err
		}
		return h.countShard(tx, s, offFrees, 1)
	})
	if err != nil {
		h.fail(fmt.Errorf("stmalloc: free of %d (shard %d) failed: %w", ptr, s, err))
	}
}

func (h *Heap) fail(err error) {
	h.firstErr.CompareAndSwap(nil, &err)
}

// Drain settles the heap and returns the first error any reclamation
// hit. On a magazine heap it takes every thread's parked frees and
// retires them under ONE shared fence; each block still recycles into
// its own thread's alloc-side cache, and the caches stay in place. th
// must be a valid thread id not currently inside a transaction.
//
// Each error is surfaced exactly once: the Drain that returns it
// clears it, so periodic drains in a long-running process report
// recovery as nil instead of repeating the first failure forever.
func (h *Heap) Drain(th int) error {
	var all []retired
	for t := 1; t <= h.magThreads; t++ {
		all = append(all, h.parked[t].take(h.magCap)...)
	}
	if len(all) > 0 {
		h.retire(th, all, nil)
	}
	if e := h.firstErr.Swap(nil); e != nil {
		return *e
	}
	return nil
}

// Stats reads the counters non-transactionally. Call it quiesced
// (after Drain, or with no concurrent mutators) for exact numbers;
// under concurrency it is an approximation.
func (h *Heap) Stats() Stats {
	st := Stats{
		Shards:       make([]ShardStats, h.shards),
		PendingFrees: h.pending.Load(),
		Batches:      h.batches.Load(),
	}
	for s := 0; s < h.shards; s++ {
		sh := ShardStats{
			Allocs:    h.tm.Load(1, h.hdr(s)+offAllocs),
			Frees:     h.tm.Load(1, h.hdr(s)+offFrees),
			BumpRegs:  h.tm.Load(1, h.hdr(s)+offBump) - int64(h.chunkStart(s)),
			Splits:    h.tm.Load(1, h.hdr(s)+offSplits),
			Coalesces: h.tm.Load(1, h.hdr(s)+offCoalesces),
		}
		st.Shards[s] = sh
		st.Allocs += sh.Allocs
		st.Frees += sh.Frees
		st.BumpRegs += sh.BumpRegs
		st.Splits += sh.Splits
		st.Coalesces += sh.Coalesces
	}
	for t := 1; t <= h.magThreads; t++ {
		st.Allocs += h.tm.Load(1, h.magBase(t)+offMagAllocs)
		st.Frees += h.parked[t].frees.Load()
		st.MagFree += int64(h.parked[t].count())
		for c := 0; c < numClasses; c++ {
			st.MagAlloc += h.tm.Load(1, h.magClass(t, c)+magAllocCnt)
		}
	}
	st.Live = st.Allocs - st.Frees
	return st
}

// Footprint returns the heap's steady-state register footprint: the
// sum of the shards' bump high-waters. A churn workload whose frees
// keep up with its allocations has a bounded footprint no matter how
// many operations run; a bump-only allocator's grows without bound.
func (h *Heap) Footprint() int64 { return h.Stats().BumpRegs }
