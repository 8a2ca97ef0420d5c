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
//  2. The data structure unlinks the block transactionally (a Delete
//     that commits).
//  3. Free(th, ptr, n) retires the block: the heap's region.Owner
//     fences (core.TM.Fence), and once every transaction active at the
//     Free has finished — so no stale reference survives — the block is
//     wiped with *uninstrumented* stores (the idiom's private phase) and
//     pushed back onto its home shard's free list by a small
//     transaction (the publish), all on the caller's thread before Free
//     returns.
//
// The free lists themselves live in TM registers (each free block's
// first register is the next-free link, shard list heads live in the
// heap header), so allocation is a pure transaction and doomed readers
// of allocator state are caught by the TM's opacity machinery like any
// other conflict.
//
// Every block is reclaimed one way: retire runs ONE fence for a batch
// of blocks, then one uninstrumented wipe pass and the publish
// transactions. A per-free Free is a batch of one; a magazine retire
// (below) is a batch of capacity+1. The one escape is FreeQuiesced,
// which skips the fence because the caller already ran one: a
// privatize→fence→operate cycle (stmds.HashMap.Grow's doubling) that
// unlinked the block while the structure was quiescent may publish it
// straight away.
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
//     capacity blocks per class. The rest go to their home shard lists.
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
// immediately and pushed onto their home shard's list, on any thread.
// Drain retires every thread's parked frees under ONE shared grace
// period, routing each block to its owner, before settling. When every
// shard list and bump region is empty, New steals half of another
// thread's cache of the class before reporting errOutOfSpace — parked
// frees are never stolen (they have not quiesced).
//
// # Size classes
//
// The ladder is quantum-spaced at the small end and geometric above
// it, like jemalloc's (Evans, BSDCan 2006): one class for each size
// from 1 to 8 registers, then the powers of two from 16 to 8192. A
// request takes the smallest class that holds it, so a SkipMap tower
// (2+h registers) or a hash-map node (3) occupies exactly the
// registers it uses, while a bucket array (a power of two of at least
// 16 registers) keeps a class of its own size. A free list serves only
// its own class: New never splits a larger free block and Free never
// merges a block with its neighbours. None needs to, because every
// client sizes its heap per class (RegsForDemand takes one ClassDemand
// per class), so a class's blocks come from the bump regions once and
// then circulate within the class.
// A request that no class list, bump region or stolen cache can serve
// is errOutOfSpace, whatever free blocks of other classes exist. The
// bump frontier advances by exactly the block's size: no block needs
// alignment, so no register is skipped.
//
// # Exact accounting
//
// Allocations are counted in registers, per shard or per magazine
// thread, inside the allocating transaction, so aborted attempts do not
// count. Frees are counted once, by Free and FreeQuiesced, in one heap
// atomic: exact, because each runs once per block outside any
// transaction. Allocs-Frees therefore equals the number of live blocks
// (the leak-accounting invariant the tests pin), and a block whose
// retire has not yet published it counts as freed (it is not Live) and
// as pending (PendingFrees).
package stmalloc

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"safepriv/internal/core"
	"safepriv/internal/region"
	"safepriv/internal/telemetry"
)

// errOutOfSpace is wrapped by every error New returns when no shard
// can serve the request from its free list or bump region.
var errOutOfSpace = errors.New("stmalloc: arena exhausted")

// smallClasses is the number of quantum-spaced classes: class c <
// smallClasses serves blocks of exactly c+1 registers.
const smallClasses = 8

// numClasses bounds the size-class ladder: the smallClasses exact
// classes of 1..8 registers, then class c >= smallClasses serves
// blocks of 16<<(c-smallClasses) registers, 16 up to 8192. The largest
// block is enough for a hash-map bucket array to keep its load factor
// at or below one through the bench live-set sizes (a 4096-entry table
// wants 4096+ buckets, and a bucket array is a single block).
const numClasses = smallClasses + 10

// MaxBlockRegs is the largest allocatable block (registers): the top
// class, 8192 registers.
const MaxBlockRegs = 16 << (numClasses - 1 - smallClasses)

// Per-shard header layout (registers, relative to the shard's header
// base): bump pointer, transactional alloc counter, then one free-list
// head per size class.
const (
	offBump   = 0
	offAllocs = 1
	offLists  = 2
	// shardHdr rounds the 20 live header registers (bump, counter and
	// 18 list heads) up to 24 — a whole number of cache lines (192B at
	// 8B per register) — so consecutive shard headers never share a
	// cache line: two shards' hot counters stay apart. Part of the false-sharing audit; the stripe and rcu
	// slots were already padded.
	shardHdr = 24
)

// headerRegs returns the header size of a heap with the given shard
// count; the usable arena is everything after it (and after the
// magazine headers, when magazines are enabled).
func headerRegs(shards int) int { return shards * shardHdr }

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
	// magHdrRegs rounds the 37 live registers (1 counter + 18 classes ×
	// 2) up to 40 — a whole number of cache lines (320B) — so adjacent
	// threads' magazine headers never share a line: thread t's alloc
	// counter, written on every allocation, would otherwise sit on the
	// same line as thread t+1's cache heads.
	magHdrRegs = 40
)

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

// magazineRegs returns the register footprint of the per-thread
// magazine headers for the given thread count — the extra header
// budget a WithMagazines heap needs beyond headerRegs.
func magazineRegs(threads int) int {
	if threads <= 0 {
		return 0
	}
	return threads * magHdrRegs
}

// BlockRegs returns the register footprint a request for n registers
// actually occupies — n itself up to 8, else the next power of two —
// or 0 if n is not allocatable.
func BlockRegs(n int) int {
	c, ok := classOf(n)
	if !ok {
		return 0
	}
	return classRegs(c)
}

// classOf maps a request size to the smallest size class holding it.
func classOf(n int) (int, bool) {
	switch {
	case n <= 0 || n > MaxBlockRegs:
		return 0, false
	case n <= smallClasses:
		return n - 1, true
	}
	// 9..16 → class 8 (16 registers), 17..32 → class 9, ...
	return smallClasses + bits.Len(uint(n-1)) - 4, true
}

// classRegs is the block size of class c.
func classRegs(c int) int {
	if c < smallClasses {
		return c + 1
	}
	return 16 << (c - smallClasses)
}

// ClassDemand is one entry of a block-demand profile: Count live
// blocks serving requests of Regs registers each. A profile with one
// entry per size class a client touches describes its steady-state
// heap geometry (a stmds.HashMap's nodes are one class; a stmds.SkipMap
// spans eight classes: one per tower height up to 6, then the 16- and
// 32-register classes).
type ClassDemand struct {
	Regs  int // request size in registers (rounded up to its class)
	Count int // live blocks of this class the arena must hold at once
}

// RegsForDemand returns the total register budget (headers included) a
// heap needs to keep the given demand profile live: pass the result as
// `limit-first` to New. It covers multi-size-class clients:
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
//     steals them (stealHalf) — they strand nothing.
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
	return headerRegs(shards) + magazineRegs(magThreads) + arena
}

// Option mutates heap construction.
type Option func(*Heap)

// WithShards sets the shard count (default 8, clamped so every shard
// chunk holds at least one minimal block).
func WithShards(n int) Option { return func(h *Heap) { h.shards = n } }

// WithMagazines adds the per-thread magazine layer for thread ids
// 1..threads (see the package comment): thread-local alloc-side caches
// refilled `capacity` blocks at a time, and parked-free lists retired
// as one batch under one grace period every capacity+1 frees (capacity
// <= 0 selects the default). Threads outside 1..threads (the TM's
// reserved reclaim thread, harness spares) fall back to the shared
// path.
func WithMagazines(threads, capacity int) Option {
	return func(h *Heap) {
		h.magThreads = threads
		h.magCap = capacity
	}
}

// Stats is a heap-wide snapshot.
type Stats struct {
	// Allocs, Frees count blocks across all shards; Live = Allocs-Frees
	// is the number of blocks currently held by callers.
	Allocs, Frees, Live int64
	// BumpRegs sums the shards' bump high-waters (registers ever taken
	// from their chunks; free-list reuse does not advance them): the
	// heap's steady-state register footprint.
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
	// Batches counts batch retires: grace periods that each covered a
	// whole magazine of frees, or a Drain's parked frees. On the batch
	// path Frees/Batches is the amortization factor. It is read from
	// the TM's telemetry board (ReclaimBatches), so it sums every heap
	// over the TM, and it is zero without magazines or without a board.
	Batches int64
	// Splits and Coalesces are always zero: a free list serves only its
	// own class, so no block is ever split or merged. They remain for
	// readers that still report them.
	Splits, Coalesces int64
}

// Heap is a sharded free-list allocator over the register range
// [first, limit) of one TM. The header (headerRegs registers) sits at
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
	magThreads int // 0 = no magazine layer

	// own fences every retire: the one fence of the private phase, as
	// for every other structure's (package region).
	own *region.Owner

	// magCap is the magazine capacity (see defaultMagCap), fixed by
	// WithMagazines.
	magCap int

	// parked[th] is magazine thread th's parked-free list (index 0
	// unused).
	parked []parkList

	// drained collects every parked list for Drain's one retire; drainMu
	// guards it, so a steady-state Drain allocates nothing.
	drainMu sync.Mutex
	drained []retired

	// board, when set, receives magazine hit/miss and batch telemetry.
	board *telemetry.Board

	// listed[s*numClasses+c] hints that shard s's class-c free list
	// holds a block: a publish sets it, and an allocation that finds the
	// list empty clears it. A hint only, like affinity.
	listed []atomic.Bool

	// affinity[th] is thread th's last successful refill shard + 1
	// (0 = none yet): refills and bumps try it first so a thread keeps
	// drawing from one shard instead of ping-ponging the shard headers
	// across cores. A hint only — correctness never depends on it.
	affinity []atomic.Int32

	counts   freeCounts
	firstErr paddedErr
}

// freeCounts are the heap's free counters, on a cache line of their
// own: frees counts every Free and FreeQuiesced, published the blocks
// their retires have published, so frees-published are pending. A free
// bumps one shared counter, a retire the other once for its batch. The
// padding on both sides keeps the fields every New and Free reads
// (board, affinity, parked) off the line the counters bounce on.
type freeCounts struct {
	_                [64]byte
	frees, published atomic.Int64
	_                [56]byte
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
// against Drain and Stats. spare is the slice of the list's last
// published batch, kept for its next one, so a steady-state retire
// allocates no slice. Padded so neighbouring threads' lists never share
// a cache line.
type parkList struct {
	mu     sync.Mutex
	blocks []retired
	spare  []retired
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

// drainTo empties the list onto dst and returns the extended dst.
func (p *parkList) drainTo(dst []retired) []retired {
	p.mu.Lock()
	defer p.mu.Unlock()
	dst = append(dst, p.blocks...)
	p.blocks = p.blocks[:0]
	return dst
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
	if h.magThreads > 0 && h.magCap <= 0 {
		h.magCap = defaultMagCap
	}
	// Clamp shards so every chunk holds at least one minimal block.
	for h.shards > 1 && (limit-first-headerRegs(h.shards)-magazineRegs(h.magThreads))/h.shards < 1 {
		h.shards--
	}
	h.arena = first + headerRegs(h.shards) + magazineRegs(h.magThreads)
	if h.arena >= limit {
		return nil, fmt.Errorf("stmalloc: arena [%d, %d) cannot hold a %d-shard header plus %d magazine threads", first, limit, h.shards, h.magThreads)
	}
	h.chunk = (limit - h.arena) / h.shards
	// Reinitialize the header: fresh bump pointers, empty lists, zero
	// counters. Non-transactional — construction precedes concurrency.
	for s := 0; s < h.shards; s++ {
		tm.Store(1, h.hdr(s)+offBump, int64(h.chunkStart(s)))
		tm.Store(1, h.hdr(s)+offAllocs, 0)
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
	h.listed = make([]atomic.Bool, h.shards*numClasses)
	h.own = region.NewOwner(tm)
	// Attach the TM's telemetry board (all registry TMs carry one), so
	// magazine hit/miss rates flow without per-site wiring.
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

func (h *Heap) hdr(s int) int        { return h.first + s*shardHdr }
func (h *Heap) chunkStart(s int) int { return h.arena + s*h.chunk }
func (h *Heap) chunkEnd(s int) int   { return h.arena + (s+1)*h.chunk }

// magBase is thread th's magazine header base; magClass the base of
// its class-c cache/magazine slot.
func (h *Heap) magBase(th int) int      { return h.first + h.shards*shardHdr + (th-1)*magHdrRegs }
func (h *Heap) magClass(th, c int) int  { return h.magBase(th) + magClassBase + c*magClassRegs }
func (h *Heap) hasMagazine(th int) bool { return h.magThreads > 0 && th >= 1 && th <= h.magThreads }

// MaxBlock returns the largest block (registers) this heap can serve:
// the largest class that fits in a shard chunk.
func (h *Heap) MaxBlock() int {
	c := numClasses - 1
	for c > 0 && classRegs(c) > h.chunk {
		c--
	}
	return classRegs(c)
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
// over to other shards (free lists first, then bump regions) before
// reporting errOutOfSpace. Aborted transactions roll the allocation
// back. On a magazine heap the common case pops from the
// calling thread's cache — registers no other thread touches, so
// concurrent allocators never conflict — refilling a magazine's worth
// from a shard free list when the cache runs dry.
func (h *Heap) New(tx core.Txn, th, n int) (int64, error) {
	c, ok := classOf(n)
	if !ok || classRegs(c) > h.chunk {
		return 0, fmt.Errorf("stmalloc: cannot serve %d-register block (max %d): %w", n, h.MaxBlock(), errOutOfSpace)
	}
	if h.hasMagazine(th) {
		return h.newMag(tx, th, c, n)
	}
	return h.newShared(tx, th, c, n)
}

// newShared is the magazine-less allocation path, reuse before growth:
// the home shard's class free list and every other shard's that a
// publish has hinted (listed), then each shard's bump region, then the
// lists not tried yet, so every block is tried before errOutOfSpace;
// shard counters.
func (h *Heap) newShared(tx core.Txn, th, c, n int) (int64, error) {
	start := h.homeShard(th)
	for step := 0; step < 3*h.shards; step++ {
		i := step % h.shards
		s := (start + i) % h.shards
		hint := &h.listed[s*numClasses+c]
		hinted := i == 0 || hint.Load()
		var head int64
		var err error
		switch pass := step / h.shards; {
		case pass == 1:
			head, err = h.bump(tx, s, int64(classRegs(c)))
		case (pass == 0) == hinted:
			if head, err = h.popList(tx, s, c); head == 0 && pass == 0 {
				hint.Store(false)
			}
		default:
			continue
		}
		if err != nil {
			return 0, err
		}
		if head != 0 {
			if err := count(tx, h.hdr(s)+offAllocs); err != nil {
				return 0, err
			}
			h.noteShard(th, s)
			return head, nil
		}
	}
	return 0, fmt.Errorf("stmalloc: no shard can serve %d registers: %w", n, errOutOfSpace)
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

// bump takes size registers from shard s's bump region, returning 0
// (no error) when the chunk is exhausted.
func (h *Heap) bump(tx core.Txn, s int, size int64) (int64, error) {
	b, err := tx.Read(h.hdr(s) + offBump)
	if err != nil {
		return 0, err
	}
	if !h.validBump(s, b) {
		return 0, core.ErrAborted
	}
	if b+size > int64(h.chunkEnd(s)) {
		return 0, nil
	}
	if err := tx.Write(h.hdr(s)+offBump, b+size); err != nil {
		return 0, err
	}
	return b, nil
}

// newMag is the magazine allocation path, in falling order of
// preference: the thread's own cache, a batch refill from a shard free
// list (the thread's affinity shard first, so repeat refills keep
// drawing from one shard instead of ping-ponging shard headers across
// cores), a bump region, then HALF of another thread's cache (parked
// frees are never taken — they have not quiesced).
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
		size := int64(classRegs(c))
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
		return 0, fmt.Errorf("stmalloc: no shard or magazine can serve %d registers: %w", n, errOutOfSpace)
	}
	if err := count(tx, h.magBase(th)+offMagAllocs); err != nil {
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

// count adds one to the transactional allocation counter at register
// reg (a shard's or a magazine thread's) — exact, because an aborted
// transaction rolls the add back.
func count(tx core.Txn, reg int) error {
	v, err := tx.Read(reg)
	if err != nil {
		return err
	}
	return tx.Write(reg, v+1)
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
// transaction can still hold a stale reference. The caller must have
// unlinked the block transactionally before calling Free, must not be
// inside a transaction, and must not touch the block afterwards. Off a
// magazine thread the block retires as a batch of one: a fence, then
// the wipe and the publish onto its home shard's free list. On a
// magazine thread it is parked instead and retires with its batch (see
// the package comment).
func (h *Heap) Free(th int, ptr int64, n int) {
	r, ok := h.freed("Free", ptr, n)
	if !ok {
		return
	}
	if h.hasMagazine(th) {
		h.freeMag(th, r)
		return
	}
	h.retire(th, []retired{r})
}

// FreeQuiesced is Free for a block the caller already knows to be
// quiescent — its own privatize→fence cycle guarantees no transaction
// holds a stale reference (stmds.HashMap.Grow's old bucket array). The
// fence is skipped:
// the block is wiped inline and pushed onto its home shard's list, on
// magazine threads too.
func (h *Heap) FreeQuiesced(th int, ptr int64, n int) {
	if r, ok := h.freed("FreeQuiesced", ptr, n); ok {
		h.publishBatch(th, []retired{r})
	}
}

// freed counts one free of the n-register block at ptr, as pending
// until it is published, and returns it bound for its home shard's
// list. It returns false, recording the error for Drain, when n is not
// allocatable.
func (h *Heap) freed(op string, ptr int64, n int) (retired, bool) {
	c, ok := classOf(n)
	if !ok {
		h.fail(fmt.Errorf("stmalloc: %s of unallocatable size %d at %d", op, n, ptr))
		return retired{}, false
	}
	h.counts.frees.Add(1)
	return retired{ptr: ptr, class: c}, true
}

// retired is one block awaiting (or leaving) a retire. owner is the
// magazine thread whose alloc-side cache the block recycles into, or 0
// to publish it to its home shard's free list.
type retired struct {
	ptr   int64
	class int
	owner int
}

// freeMag is the magazine Free: park the block on the thread's list,
// bound for its cache — no transaction, and the block is not touched —
// and, when that fills the list past capacity, retire the whole list as
// one batch and keep its slice for the list's next one.
func (h *Heap) freeMag(th int, r retired) {
	p := &h.parked[th]
	r.owner = th
	batch := p.park(r, h.magCap)
	if sl := h.board.Slot(th); sl != nil {
		if batch != nil {
			sl.MagMisses.Add(1) // full list: pays a grace period
			sl.ReclaimBatches.Add(1)
		} else {
			sl.MagHits.Add(1) // parked thread-locally
		}
	}
	if batch != nil {
		h.retire(th, batch)
		p.reuse(batch)
	}
}

// retire reclaims a batch of unlinked blocks: ONE fence covers the
// whole batch, after which publishBatch wipes every block
// uninstrumented and publishes it. A per-free Free retires a batch of
// one, a magazine Free or a Drain whole parked lists.
func (h *Heap) retire(th int, batch []retired) {
	h.own.Fence(th)
	h.publishBatch(th, batch)
}

// publishBatch is the tail of every reclamation, after the grace
// period: one uninstrumented wipe pass over every block (the idiom's
// private phase — all blocks are unreachable and quiescent), then
// publish transactions routing each block (recycle). Publishes chunk so
// one retire cannot exceed the TM's comfortable write-set size.
func (h *Heap) publishBatch(th int, batch []retired) {
	defer h.counts.published.Add(int64(len(batch)))
	for _, r := range batch {
		// Register ptr+0 is skipped — the publish below turns it into
		// the free-list link. Callers must initialize blocks they
		// allocate.
		for i := 1; i < classRegs(r.class); i++ {
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
			h.fail(fmt.Errorf("stmalloc: publish of %d blocks failed: %w", len(part), err))
			return
		}
	}
}

// recycle publishes one wiped, quiescent block inside tx: onto its
// owner's alloc-side cache while that holds fewer than recycleFactor ×
// capacity blocks of the class, else onto its home shard's list.
func (h *Heap) recycle(tx core.Txn, r retired) error {
	if r.owner != 0 {
		if ok, err := h.pushMag(tx, r.owner, r.ptr, r.class, int64(recycleFactor*h.magCap)); ok || err != nil {
			return err
		}
	}
	return h.pushFree(tx, r.ptr, r.class)
}

// pushFree publishes the class-c block at ptr onto its home shard's
// free list inside tx.
func (h *Heap) pushFree(tx core.Txn, ptr int64, c int) error {
	s := h.shardOf(ptr)
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
	if hint := &h.listed[s*numClasses+c]; !hint.Load() {
		hint.Store(true)
	}
	return tx.Write(h.hdr(s)+offLists+c, ptr)
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
	h.drainMu.Lock()
	for t := 1; t <= h.magThreads; t++ {
		h.drained = h.parked[t].drainTo(h.drained)
	}
	if len(h.drained) > 0 {
		if sl := h.board.Slot(th); sl != nil {
			sl.ReclaimBatches.Add(1)
		}
		h.retire(th, h.drained)
		h.drained = h.drained[:0]
	}
	h.drainMu.Unlock()
	if e := h.firstErr.Swap(nil); e != nil {
		return *e
	}
	return nil
}

// Stats reads the counters non-transactionally. Call it quiesced
// (after Drain, or with no concurrent mutators) for exact numbers;
// under concurrency it is an approximation.
func (h *Heap) Stats() Stats {
	published := h.counts.published.Load()
	st := Stats{
		Frees:   h.counts.frees.Load(),
		Batches: h.board.Snapshot().ReclaimBatches,
	}
	st.PendingFrees = st.Frees - published
	for s := 0; s < h.shards; s++ {
		st.Allocs += h.tm.Load(1, h.hdr(s)+offAllocs)
		st.BumpRegs += h.tm.Load(1, h.hdr(s)+offBump) - int64(h.chunkStart(s))
	}
	for t := 1; t <= h.magThreads; t++ {
		st.Allocs += h.tm.Load(1, h.magBase(t)+offMagAllocs)
		st.MagFree += int64(h.parked[t].count())
		for c := 0; c < numClasses; c++ {
			st.MagAlloc += h.tm.Load(1, h.magClass(t, c)+magAllocCnt)
		}
	}
	st.Live = st.Allocs - st.Frees
	return st
}
