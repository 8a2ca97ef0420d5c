package stmds

import (
	"math"
	"math/bits"

	"safepriv/internal/core"
	"safepriv/internal/region"
	"safepriv/internal/stmalloc"
	"safepriv/internal/telemetry"
)

// SkipMapDemand is the stmalloc demand profile of a SkipMap holding up
// to `nodes` live towers under the geometric(1/4) level generator: one
// entry per block class the towers land in. Level draws height h with
// probability (3/4)·4^-(h-1) below skipMaxLevel and 4^-(skipMaxLevel-1)
// at it, so a class's share p is the sum over the heights whose
// towerRegs(h) round to it (h = 1..6 each have a class of their own,
// 7..8 share the 16-register class). Its count is the expected nodes·p
// plus four binomial standard deviations plus 8, so a run at the stated
// size does not die of per-class variance: churn tests treat
// out-of-space errors as a sizing bug, not a retry.
func SkipMapDemand(nodes int) []stmalloc.ClassDemand {
	var d []stmalloc.ClassDemand
	p := 0.0
	for h := 1; h <= skipMaxLevel; h++ {
		share := math.Ldexp(1, -2*(h-1)) // P(height >= h) = 4^-(h-1)
		if h < skipMaxLevel {
			share *= 0.75
		}
		p += share
		regs := stmalloc.BlockRegs(towerRegs(h))
		if h < skipMaxLevel && stmalloc.BlockRegs(towerRegs(h+1)) == regs {
			continue // the next height shares this class
		}
		mean := float64(nodes) * p
		count := int(math.Ceil(mean+4*math.Sqrt(mean*(1-p)))) + 8
		d = append(d, stmalloc.ClassDemand{Regs: regs, Count: count})
		p = 0
	}
	return d
}

// SkipMap is a transactional skiplist map from int64 keys to int64
// values: the O(log n) ordered map. Layout over TM registers:
//
//   - The head block is SkipHeadRegs consecutive registers starting at
//     `head`: head+l holds the link to the level-l list's first node
//     (nilPtr when that level is empty).
//   - A node of tower height h occupies towerRegs(h) = 2+h registers:
//     node+0 = key, node+1 = value, node+2+l = the link to the level-l
//     successor for l in [0, h). No register holds h: Delete's descent
//     finds every level the tower is on (Pugh, CACM 1990).
//   - A link register carries its successor's key beside the pointer
//     (link): the high 32 bits hold the key clamped to ±(2³¹−1), the
//     low 32 the node's register index, and nil stays 0, so a zeroed
//     head still reads as empty. A descent compares the target with
//     that hint and reads the successor's key register only when the
//     hint is a clamp value: for keys strictly inside ±(2³¹−1) a step
//     costs one read, not two, and every other int64 key stays exact
//     through the fallback read. A node's key never changes while it
//     is linked, so every link to it carries the same word.
//
// Towers are variable-height, so a SkipMap is a multi-size-class heap
// client: heights 1..6 land in the exact 3- to 8-register stmalloc
// block classes and 7..8 in the 16-register class (see
// SkipMapDemand). Delete unlinks the whole tower in ONE transaction
// and hands the node back to the allocator only after that transaction
// commits, which on stmalloc is the paper's Fig. 7 idiom: the unlink
// is the privatization, the allocator rides the fence (or a magazine
// batch retire) before the registers are wiped and reused.
//
// Tower heights come from a deterministic per-thread xorshift64
// generator (Level), so a given schedule allocates the same towers on
// every TM — the property the differential suites rely on. Put draws
// the height once per call, outside the retry loop, so TM-dependent
// abort counts cannot skew the geometry.
//
// SkipMap needs no pointer-validity guards against reclaimed nodes:
// traversals only follow pointers read inside the transaction, and on
// an opaque TM a doomed reader aborts before it can observe the
// registers of a block that was unlinked, grace-period-settled, and
// wiped (the guards in stmalloc protect its own uninstrumented-phase
// metadata, which bypasses that argument). DeleteTx cannot walk out of
// a tower either: it unlinks only the levels whose descent stopped at
// the node.
//
// # Range scans and the per-window atomicity contract
//
// RangeWindows reads the map with the paper's privatization
// idiom instead of one big read-only transaction: the scan privatizes a
// bounded KEY WINDOW at a time through package region — a transaction
// takes the head block's region.Guard read-private over the window's
// key bounds, one fence (region.Owner.Fence) quiesces every
// transaction that saw it shared, the level-0 chain is walked with
// uninstrumented Loads to the window boundary, and a publishing
// transaction gives the guard back. A window walks at most windowPairs
// pairs, over a key range sized from the density the previous window
// found; the caller's span only caps that range. Writers (Put and
// Delete) read the guard first; while a window is private, only writes
// that could touch a register the walker reads stall (key >= lo and
// level-0 predecessor key <= hi — everything else proceeds), parking
// on the map's publish gate exactly like stmkv's point operations, for
// at most one bounded walk. Reads (GetTx) never consult the guard: they
// only load what the walker only loads, so region's read-private
// argument admits them beside the window.
//
// The atomicity contract is PER WINDOW, not per scan: each window's
// pairs are a consistent frozen snapshot of the chain as of that
// window's fence, keys are strictly increasing across the whole scan
// (the cursor only moves forward), and every returned pair was live at
// its window's fence instant — but pairs from different windows come
// from different instants, so a scan concurrent with churn is not a
// serializable whole-map snapshot. Use Snapshot when the caller needs
// one (small maps, or quiesced phases); use RangeWindows when the map
// is large and churned — the scan costs O(n) plain reads plus
// O(windows) fences instead of O(n) transactional reads, and cannot
// abort-storm.
type SkipMap struct {
	tm     core.TM
	head   int
	alloc  *stmalloc.Heap
	levels levels // tower heights, one stream per thread id

	// own takes and publishes the scan windows (package region);
	// writers aimed into the active window wait on its gate. guard is
	// the window's mark, the last three registers of the head block.
	own   *region.Owner
	guard region.Guard

	// board is the TM's telemetry board when it carries one; scans and
	// scan windows are recorded per thread.
	board *telemetry.Board
}

// skipMaxLevel is the fixed number of skiplist levels. Under Level's
// geometric(1/4) heights, 4^8 = 65 536 towers keep the expected
// traversal O(log n) far past any arena this repo sizes.
const skipMaxLevel = 8

// SkipHeadRegs is the register footprint of a SkipMap head block: one
// head pointer per level, consecutive from `head`, followed by the
// three registers of the scan window's region.Guard (flag, lo, hi).
// While a window over keys [lo, hi] is read-private, the registers of
// every node with a key in it — and the level-0 link leading into it —
// are the scanner's to load.
const SkipHeadRegs = skipMaxLevel + 3

// skipNodeHdr is the per-node header (key, value) preceding the
// next-pointer tower.
const skipNodeHdr = 2

// towerRegs returns the register footprint of a node with tower height
// h.
func towerRegs(height int) int { return skipNodeHdr + height }

// NewSkipMap returns a skiplist map whose head block occupies registers
// [head, head+SkipHeadRegs) and whose nodes come from alloc. threads is
// the highest thread id that will call Put (level-generator state is
// per thread so concurrent Puts stay deterministic per thread). The
// head registers must start zeroed (VInit), which reads as "all levels
// empty". It panics when tm has more than 2³² registers, since a link
// holds a node's index in 32 bits.
func NewSkipMap(tm core.TM, head, threads int, alloc *stmalloc.Heap) *SkipMap {
	if uint64(tm.NumRegs()) > 1<<32 {
		panic("stmds: a SkipMap link holds a register index in 32 bits")
	}
	s := &SkipMap{tm: tm, head: head, alloc: alloc, levels: newLevels(threads), own: region.NewOwner(tm),
		guard: region.Guard{Flag: head + skipMaxLevel, Lo: head + skipMaxLevel + 1, Hi: head + skipMaxLevel + 2}}
	if p, ok := tm.(telemetry.Provider); ok {
		s.board = p.TelemetryBoard()
	}
	return s
}

// levels holds one xorshift64 state per thread id, indexed by the id:
// the tower-height streams Level draws from.
type levels []uint64

// newLevels returns the streams of thread ids 0..threads.
func newLevels(threads int) levels {
	l := make(levels, threads+1)
	for th := range l {
		l[th] = splitmix64(uint64(th))
	}
	return l
}

// splitmix64 seeds the per-thread xorshift states far apart even though
// thread ids are consecutive small integers.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		return 0x2545F4914F6CDD1D // xorshift state must be nonzero
	}
	return x
}

// Level draws the next tower height for thread th from the map's
// streams (levels.next).
func (s *SkipMap) Level(th int) int { return s.levels.next(th) }

// next draws the next tower height for thread th: a geometric(1/4)
// variable clamped to [1, skipMaxLevel], from th's private xorshift64
// stream; an id out of range draws from stream 0. Each level above the
// first takes two bits of the draw and is reached when both are set.
// p = 1/4 is Pugh's (CACM 1990) recommendation: the expected search
// cost L(n)/p is about that of p = 1/2, but a tower carries 1⅓
// successor pointers on average instead of 2. Deterministic: the i-th
// call for a given th returns the same height in every run and on every
// TM. Not transactional state — a retried Put must NOT redraw (Put
// draws once per call; the windowed executor memoizes the draw across
// attempt reruns).
func (l levels) next(th int) int {
	if th < 0 || th >= len(l) {
		th = 0
	}
	x := l[th]
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	l[th] = x
	h := 1
	for x&3 == 3 && h < skipMaxLevel {
		h++
		x >>= 2
	}
	return h
}

// hintMax is the clamp of a link's key hint: a hint of ±hintMax stands
// for any key at or past it, and a descent reads the key register.
const hintMax = 1<<31 - 1

// link is the word a link register holds for a successor node with key
// k: k clamped to ±hintMax in the high 32 bits, node in the low 32.
// node is never 0, so a link is never nilPtr.
func link(k, node int64) int64 { return min(max(k, -hintMax), hintMax)<<32 | node }

// linkNode returns the node a link word points at (nilPtr for nil).
func linkNode(w int64) int64 { return w & (1<<32 - 1) }

// linkHint returns the clamped key a link word carries.
func linkHint(w int64) int64 { return w >> 32 }

// nextReg returns the link register of node's level-l successor, with
// node==nilPtr standing for the head block.
func (s *SkipMap) nextReg(node int64, level int) int {
	if node == nilPtr {
		return s.head + level
	}
	return int(node) + skipNodeHdr + level
}

// skipPath is what a descent to key k found. On every level l,
// succ[l] is the link word to the first node with key >= k on the
// level-l list (nilPtr when there is none) and update[l] the register
// holding it (a head register or a next field). succ[0] links the
// candidate: the node holding k, if any node does. candKey is its key
// (meaningful when succ[0] != nilPtr), and prevKey the key of the
// level-0 predecessor owning update[0] (math.MinInt64 when that is the
// head block) — the write paths compare it against an active scan
// window's bounds. Both are exact: a clamped hint was resolved by
// reading the key register.
type skipPath struct {
	update  [skipMaxLevel]int
	succ    [skipMaxLevel]int64
	candKey int64
	prevKey int64
}

// findTx descends the tower to k and fills p. A step reads one link
// register and compares k with the successor's key hint; it reads the
// successor's key register as well only when the hint is ±hintMax. It
// reads no register twice: succ[l] is the last link read on level l,
// and a level whose walk arrives at the node the level above stopped
// at stops there without comparing again (its key is >= k). One
// transactional read set of O(log n) expected size, where a sorted
// list's walk would read O(n) registers and abort on any write behind
// it.
func (s *SkipMap) findTx(tx core.Txn, k int64, p *skipPath) error {
	prev := nilPtr // nilPtr marks "still at the head block"
	p.prevKey = math.MinInt64
	// stop is the link word to the node the last level stopped at
	// (nilPtr: none yet) and stopKey its key. Every link to a node is
	// the same word, so comparing words compares nodes.
	stop, stopKey := nilPtr, int64(0)
	for level := skipMaxLevel - 1; level >= 0; level-- {
		reg := s.nextReg(prev, level)
		for {
			w, err := tx.Read(reg)
			if err != nil {
				return err
			}
			p.succ[level] = w
			if w == nilPtr || w == stop {
				break
			}
			key := linkHint(w)
			if key == hintMax || key == -hintMax {
				if key, err = tx.Read(int(linkNode(w))); err != nil {
					return err
				}
			}
			if key >= k {
				stop, stopKey = w, key
				break
			}
			// prev only ever advances, so after the level-0 loop it IS
			// the level-0 predecessor and prevKey its key.
			prev, p.prevKey = linkNode(w), key
			reg = s.nextReg(prev, level)
		}
		p.update[level] = reg
	}
	// A non-nil succ[0] is where level 0 stopped.
	p.candKey = stopKey
	return nil
}

// GetTx is Get inside a caller-owned transaction. Reads never consult
// the scan guard: a private window is only ever read by its scanner,
// so transactional reads racing the walk are read-read and race-free.
func (s *SkipMap) GetTx(tx core.Txn, k int64) (v int64, ok bool, err error) {
	var p skipPath
	if err := s.findTx(tx, k, &p); err != nil || p.succ[0] == nilPtr || p.candKey != k {
		return 0, false, err
	}
	if v, err = tx.Read(int(linkNode(p.succ[0])) + 1); err != nil {
		return 0, false, err
	}
	return v, true, nil
}

// PutTx is Put inside a caller-owned transaction, with the tower height
// supplied by the caller (clamped to [1, skipMaxLevel]). Passing the
// height in keeps the level draw outside the transaction so retries and
// cross-TM runs insert identical towers. Reports whether k was absent.
// Returns region.ErrPrivate (without writing anything) when the write
// would touch an active scan window; Put parks and retries, callers
// driving PutTx directly must do the same.
//
// The window check is the writer side of the scan-window protocol, read
// before any write (wtstm writes in place). A write touches registers
// the uninstrumented walker reads when its key lands at or past the
// window start AND it splices at a node whose level-0 successor chain
// the walker follows (predecessor key <= hi): [prevKey, k] overlaps the
// window. Writes strictly below the window, or splicing strictly past
// it, proceed: the walker only follows level-0 pointers of nodes with
// keys in [lo, hi], plus the boundary node's key.
func (s *SkipMap) PutTx(tx core.Txn, th int, k, v int64, height int) (bool, error) {
	if height < 1 {
		height = 1
	}
	if height > skipMaxLevel {
		height = skipMaxLevel
	}
	_, w, err := s.guard.Writable(tx)
	if err != nil {
		return false, err
	}
	var p skipPath
	if err := s.findTx(tx, k, &p); err != nil {
		return false, err
	}
	if w.Overlaps(p.prevKey, k) {
		return false, region.ErrPrivate
	}
	if p.succ[0] != nilPtr && p.candKey == k {
		return false, tx.Write(int(linkNode(p.succ[0]))+1, v) // update in place
	}
	node, err := s.alloc.New(tx, th, towerRegs(height))
	if err != nil {
		return false, err
	}
	if err := tx.Write(int(node), k); err != nil {
		return false, err
	}
	if err := tx.Write(int(node)+1, v); err != nil {
		return false, err
	}
	// The new tower takes over each predecessor's link word, and each
	// predecessor links the new node with k as its hint.
	nw := link(k, node)
	for l := 0; l < height; l++ {
		if err := tx.Write(int(node)+skipNodeHdr+l, p.succ[l]); err != nil {
			return false, err
		}
		if err := tx.Write(p.update[l], nw); err != nil {
			return false, err
		}
	}
	return true, nil
}

// DeleteTx is Delete inside a caller-owned transaction: it unlinks the
// whole tower (every level it appears on) in this one transaction and
// returns the node for the caller to free AFTER the transaction
// commits — never before, or the fence would not cover the unlink.
// victimRegs is the block size to pass to stmalloc's Free: the tower's
// 2+h registers, with h counted from the levels the descent stopped at
// the node rather than read from it. Like PutTx it returns
// region.ErrPrivate before writing anything when the unlink would touch
// an active scan window.
func (s *SkipMap) DeleteTx(tx core.Txn, k int64) (removed bool, victim int64, victimRegs int, err error) {
	_, w, err := s.guard.Writable(tx)
	if err != nil {
		return false, 0, 0, err
	}
	var p skipPath
	if err := s.findTx(tx, k, &p); err != nil || p.succ[0] == nilPtr {
		return false, 0, 0, err
	}
	if w.Overlaps(p.prevKey, k) {
		return false, 0, 0, region.ErrPrivate
	}
	if p.candKey != k {
		return false, 0, 0, nil
	}
	// The tower spans exactly the levels whose descent stopped at cand:
	// keys are unique, so cand is the first key >= k on every level it
	// is on, and a level it is not on stops at another node. Its height
	// is therefore the count of those levels, and no register stores it.
	// Each predecessor takes over the tower's link word on its level.
	cw := p.succ[0]
	cand := linkNode(cw)
	h := 0
	for ; h < skipMaxLevel && p.succ[h] == cw; h++ {
		nxt, err := tx.Read(int(cand) + skipNodeHdr + h)
		if err != nil {
			return false, 0, 0, err
		}
		if err := tx.Write(p.update[h], nxt); err != nil {
			return false, 0, 0, err
		}
	}
	return true, cand, towerRegs(h), nil
}

// SnapshotTx walks level 0 inside a caller-owned transaction, returning
// the pairs in key order.
func (s *SkipMap) SnapshotTx(tx core.Txn) ([]KV, error) {
	var out []KV
	w, err := tx.Read(s.head)
	if err != nil {
		return nil, err
	}
	for cur := linkNode(w); cur != nilPtr; cur = linkNode(w) {
		key, err := tx.Read(int(cur))
		if err != nil {
			return nil, err
		}
		val, err := tx.Read(int(cur) + 1)
		if err != nil {
			return nil, err
		}
		out = append(out, KV{key, val})
		if w, err = tx.Read(int(cur) + skipNodeHdr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// LenTx counts the pairs by walking level 0 inside a caller-owned
// transaction.
func (s *SkipMap) LenTx(tx core.Txn) (int, error) {
	n := 0
	w, err := tx.Read(s.head)
	if err != nil {
		return 0, err
	}
	for cur := linkNode(w); cur != nilPtr; cur = linkNode(w) {
		n++
		if w, err = tx.Read(int(cur) + skipNodeHdr); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// Get returns the value stored under k; ok reports presence.
func (s *SkipMap) Get(th int, k int64) (v int64, ok bool, err error) {
	err = core.Atomically(s.tm, th, func(tx core.Txn) error {
		v, ok, err = s.GetTx(tx, k)
		return err
	})
	return v, ok, err
}

// Put inserts or updates k↦v, reporting whether k was absent. The tower
// height is drawn once per call (not per attempt), so aborted attempts
// retry the same insertion. A put that hits an active scan window parks
// on the publish gate and retries.
func (s *SkipMap) Put(th int, k, v int64) (bool, error) {
	height := s.Level(th)
	var added bool
	err := s.own.Retry(th, func(tx core.Txn) (err error) {
		added, err = s.PutTx(tx, th, k, v, height)
		return err
	})
	return added, err
}

// Delete removes k, reporting whether it was present. The unlinked
// tower goes back to the allocator after the removing transaction
// commits — the Fig. 7 privatization cycle, with one grace period (or
// one magazine slot) covering all 2+h registers at once. A delete that
// hits an active scan window parks on the publish gate and retries.
func (s *SkipMap) Delete(th int, k int64) (bool, error) {
	var removed bool
	var victim int64
	var victimRegs int
	err := s.own.Retry(th, func(tx core.Txn) (err error) {
		removed, victim, victimRegs, err = s.DeleteTx(tx, k)
		return err
	})
	if err == nil && removed {
		s.alloc.Free(th, victim, victimRegs)
	}
	return removed, err
}

// Snapshot returns the pairs in key order, read in one transaction.
func (s *SkipMap) Snapshot(th int) ([]KV, error) {
	var out []KV
	err := core.Atomically(s.tm, th, func(tx core.Txn) (err error) {
		out, err = s.SnapshotTx(tx)
		return err
	})
	return out, err
}

// Len returns the pair count, read in one transaction.
func (s *SkipMap) Len(th int) (int, error) {
	n := 0
	err := core.Atomically(s.tm, th, func(tx core.Txn) (err error) {
		n, err = s.LenTx(tx)
		return err
	})
	return n, err
}

// WindowIter is a resumable windowed range scan (see the SkipMap type
// comment for the per-window atomicity contract). Each Next call
// privatizes the next key window, fences once, walks the frozen
// level-0 chain uninstrumented, publishes, and advances the cursor.
// A window walks at most windowPairs pairs, over a key range sized
// from the density the previous window found, so a writer aimed into
// it waits out one bounded walk whatever the caller's span.
// A WindowIter is owned by a single goroutine; the privatize→publish
// cycle is contained inside each Next call, so an abandoned iterator
// never leaves a window privatized. Every window's pairs land in one
// buffer the iterator keeps, so a walk allocates only when a window
// wants more room than any before it.
type WindowIter struct {
	s       *SkipMap
	to      int64
	span    uint64 // cap on a window's key width, in [1, MaxInt64]
	width   uint64 // the next window's key width, in [1, span]
	cursor  int64
	done    bool
	started bool
	// want is the capacity of the next window's slice, cut from buf
	// (grown first when it is shorter) before the window is privatized
	// (see Next).
	want int
	buf  []KV
}

// Window bounds: no window walks more than windowPairs pairs (16 KiB
// of slice). Slices are sized from the pairs the previous window
// found, but never below minWindowCap, so a sparse stretch of keys
// does not shrink the slice to a pair or two.
const (
	windowPairs  = 1024
	minWindowCap = 16
)

// RangeWindows returns a windowed scan iterator over keys in
// [from, to]. span caps the key width of each window (span < 1: no
// cap); within it, every Next call privatizes a key range sized to
// hold about windowPairs pairs at the density the previous window
// found — min(span, windowPairs) keys for the first one.
func (s *SkipMap) RangeWindows(from, to, span int64) *WindowIter {
	if span < 1 {
		span = math.MaxInt64
	}
	w := min(span, windowPairs)
	it := &WindowIter{s: s, to: to, span: uint64(span), width: uint64(w), cursor: from, want: int(w)}
	if from > to {
		it.done = true
	}
	return it
}

// Cursor returns the key the next window starts at — the scan's resume
// token. Valid between Next calls.
func (it *WindowIter) Cursor() int64 { return it.cursor }

// Done reports whether the scan is exhausted.
func (it *WindowIter) Done() bool { return it.done }

// Next runs one window cycle and returns the window's pairs in
// ascending key order (possibly none) and whether more windows remain.
// The pairs are a consistent snapshot of the window as of its fence.
// They live in the iterator's buffer and are valid until the next
// Next call: a caller that keeps them past it must copy them.
//
// The window is [cursor, cursor+width-1] ∩ [cursor, to]. After the
// walk, width becomes covered × windowPairs / pairs, the key range
// that holds windowPairs pairs at the density just seen (covered is
// the number of keys the walk accounted for); an empty window doubles
// it. Width stays in [1, span].
//
// Nothing allocates between the window's fence and its publish: the
// slice is cut from the buffer, grown first if it is too short, before
// the privatizing transaction, with room for the previous window's
// pair count plus an eighth, at most windowPairs and the window's
// width. A walk that fills the slice — a window denser than its
// estimate, or one that reaches windowPairs pairs — ends the window
// early, at the first node it has no room for. The cursor resumes at
// that node's key, which the frozen chain already gave the walker, and
// the next window's slice is twice as large (up to windowPairs). An
// early end never ends the scan, even when the window's bounds reach
// the scan's end.
func (it *WindowIter) Next(th int) (pairs []KV, more bool, err error) {
	s := it.s
	if it.done {
		return nil, false, nil
	}
	if !it.started {
		it.started = true
		if sl := s.board.Slot(th); sl != nil {
			sl.Scans.Add(1)
		}
	}
	// Clamp the window to [cursor, cursor+width-1] ∩ [cursor, to]; the
	// unsigned difference is exact for cursor <= to even at the int64
	// extremes, and hi-lo+1 <= width never exceeds MaxInt64.
	lo, hi := it.cursor, it.to
	if uint64(hi)-uint64(lo) >= it.width {
		hi = lo + int64(it.width-1)
	}
	if cap(it.buf) < it.want {
		it.buf = make([]KV, it.want)
	}
	pairs = it.buf[:0:it.want]
	// Privatize: take the guard read-private over [lo, hi] (waiting
	// while another scan holds a window), capture the first node with
	// key >= lo in the same transaction — opacity makes the captured
	// pointer consistent with the commit that made the window private —
	// and fence.
	var start int64
	err = s.own.Privatize(th, func(tx core.Txn) error {
		if err := s.guard.Take(tx, region.ReadPrivate, region.Window{Lo: lo, Hi: hi}); err != nil {
			return err
		}
		var p skipPath
		err := s.findTx(tx, lo, &p)
		start = linkNode(p.succ[0])
		return err
	})
	if err != nil {
		return nil, false, err
	}
	if sl := s.board.Slot(th); sl != nil {
		sl.ScanWindows.Add(1)
	}
	// The fence quiesced every transaction that saw the guard even, and
	// writers that see it odd stall before touching the window, so the
	// level-0 chain from start through the first key past hi is frozen:
	// walk it with plain uninstrumented loads.
	tm := s.tm
	cur := start
	endOfChain := cur == nilPtr
	// boundary is the key of the node the walk stopped at: the first key
	// past hi, or the first key there was no room for (early). It is
	// meaningful when !endOfChain.
	var boundary int64
	early := false
	for cur != nilPtr {
		k := tm.Load(th, int(cur))
		if k > hi {
			boundary = k
			break
		}
		if len(pairs) == cap(pairs) {
			boundary, early = k, true
			break
		}
		pairs = append(pairs, KV{k, tm.Load(th, int(cur)+1)})
		if cur = linkNode(tm.Load(th, int(cur)+skipNodeHdr)); cur == nilPtr {
			endOfChain = true
		}
	}
	if err := s.own.Publish(th, s.guard.Give); err != nil {
		return pairs, false, err
	}
	// Size the next window. Its key range comes from this window's
	// density: an early end accounted for the keys below boundary, a
	// full walk for the whole window. Its slice doubles after an early
	// end, else holds this window's count plus an eighth for churn
	// between windows; a window never holds more than width keys.
	covered := uint64(hi) - uint64(lo) + 1
	if early {
		covered = uint64(boundary) - uint64(lo)
	}
	it.width = nextWidth(it.width, covered, len(pairs), it.span)
	if early {
		it.want = 2 * cap(pairs)
	} else {
		it.want = max(len(pairs)+len(pairs)/8, minWindowCap)
	}
	it.want = int(min(uint64(it.want), windowPairs, it.width))
	// Advance. Reaching the end of the chain ends the scan outright:
	// the end-of-chain pointer the walker read was itself frozen
	// (inserts at or past lo stalled), so no key past the window
	// existed at the fence instant. An early end resumes at the node it
	// stopped at, a key in [lo, hi]. Otherwise skip the cursor ahead to
	// the boundary key — the frozen chain proves the gap between them
	// is empty.
	switch {
	case early:
		it.cursor = boundary
	case endOfChain || boundary > it.to || hi >= it.to:
		it.done = true
	default:
		it.cursor = boundary // in (hi, to]: skip the known-empty gap
	}
	return pairs, !it.done, nil
}

// nextWidth returns the key width that holds windowPairs pairs at the
// density of n pairs over covered keys, or twice width when n is 0,
// capped at span. covered, width and span are at most MaxInt64, so the
// doubling fits in a uint64 and the scaling is done in 128 bits. The
// n pairs have distinct keys among the covered ones, so covered >= n
// and the result is at least 1.
func nextWidth(width, covered uint64, n int, span uint64) uint64 {
	if n == 0 {
		return min(2*width, span)
	}
	hi, lo := bits.Mul64(covered, windowPairs)
	if hi >= uint64(n) {
		return span // the quotient does not fit in 64 bits
	}
	w, _ := bits.Div64(hi, lo, uint64(n))
	return min(w, span)
}
