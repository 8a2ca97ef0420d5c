package stmds

import (
	"errors"
	"math"
	"math/bits"

	"safepriv/internal/core"
	"safepriv/internal/pubgate"
	"safepriv/internal/stmalloc"
	"safepriv/internal/telemetry"
)

// MapDemand is the stmalloc demand profile of a sorted-list Map (or
// Set: same class) holding up to `nodes` live entries — single-class,
// like stmkv's tables.
func MapDemand(nodes int) []stmalloc.ClassDemand {
	return []stmalloc.ClassDemand{{Regs: mapNodeRegs, Count: nodes}}
}

// SkipMapDemand is the stmalloc demand profile of a SkipMap holding up
// to `nodes` live towers under the geometric(1/2) level generator.
// Tower heights split across four block classes — TowerRegs(h) = 3+h
// rounds to 4, 8, 16, 32 registers for h = 1, 2–5, 6–13, 14–16 — with
// expected shares 1/2, 15/32, ~1/32, ~2^-13 of the towers. Counts
// carry slack above the expectation so a run at the stated size does
// not die of per-class variance: churn tests treat ErrOutOfSpace as a
// sizing bug, not a retry.
func SkipMapDemand(nodes int) []stmalloc.ClassDemand {
	return []stmalloc.ClassDemand{
		{Regs: TowerRegs(1), Count: nodes*60/100 + 8}, // height 1        → 4-reg blocks
		{Regs: TowerRegs(5), Count: nodes*55/100 + 8}, // heights 2..5    → 8-reg blocks
		{Regs: TowerRegs(13), Count: nodes*8/100 + 8}, // heights 6..13   → 16-reg blocks
		{Regs: TowerRegs(16), Count: nodes*2/100 + 4}, // heights 14..16  → 32-reg blocks
	}
}

// SkipMap is a transactional skiplist map from int64 keys to int64
// values: the O(log n) ordered map that replaces Map's O(n) list walk
// for large key sets. Layout over TM registers:
//
//   - The head block is SkipHeadRegs consecutive registers starting at
//     `head`: head+l holds the level-l list head pointer (nilPtr when
//     that level is empty).
//   - A node of tower height h occupies TowerRegs(h) = 3+h registers:
//     node+0 = key, node+1 = value, node+2 = height, node+3+l = the
//     level-l successor pointer for l in [0, h).
//
// Towers are variable-height, so a SkipMap is a multi-size-class heap
// client: heights 1..16 land in the 4/8/16/32-register stmalloc block
// classes (one class per height band — see SkipMapDemand). Delete
// unlinks the whole tower in ONE transaction and hands the node back to
// the allocator only after that transaction commits, which on stmalloc
// is the paper's Fig. 7 idiom: the unlink is the privatization, the
// allocator rides the fence (or a magazine batch retire) before the
// registers are wiped and reused.
//
// Tower heights come from a deterministic per-thread xorshift64
// generator (Level), so a given schedule allocates the same towers on
// every TM — the property the differential suites rely on. Put draws
// the height once per call, outside the retry loop, so TM-dependent
// abort counts cannot skew the geometry.
//
// Like Map, SkipMap needs no pointer-validity guards against reclaimed
// nodes: traversals only follow pointers read inside the transaction,
// and on an opaque TM a doomed reader aborts before it can observe the
// registers of a block that was unlinked, grace-period-settled, and
// wiped (the guards in stmalloc protect its own uninstrumented-phase
// metadata, which bypasses that argument). The one defensive check is
// DeleteTx's height-range guard, which turns an impossible on-disk
// height into core.ErrAborted instead of an out-of-bounds walk.
//
// # Range scans and the per-window atomicity contract
//
// Range and RangeWindows read the map with the paper's privatization
// idiom instead of one big read-only transaction: the scan privatizes a
// bounded KEY WINDOW at a time — a transaction flips the head block's
// guard register odd and records the window bounds, one transactional
// Fence quiesces every transaction that saw the guard even, the level-0
// chain is walked with uninstrumented Loads to the window boundary, and
// a publishing transaction flips the guard back even. A window walks at
// most windowPairs pairs, over a key range sized from the density the
// previous window found; the caller's span only caps that range.
// Writers (Put and Delete) read the guard first; while a window is
// private, only writes that could touch a register the walker reads
// stall (key >= lo and level-0 predecessor key <= hi — everything else
// proceeds), parking on the map's publish gate exactly like stmkv's
// point operations, for at most one bounded walk.
//
// The atomicity contract is PER WINDOW, not per scan: each window's
// pairs are a consistent frozen snapshot of the chain as of that
// window's fence, keys are strictly increasing across the whole scan
// (the cursor only moves forward), and every returned pair was live at
// its window's fence instant — but pairs from different windows come
// from different instants, so a scan concurrent with churn is not a
// serializable whole-map snapshot. Use Snapshot when the caller needs
// one (small maps, or quiesced phases); use Range when the map is large
// and churned — the scan costs O(n) plain reads plus O(windows) fences
// instead of O(n) transactional reads, and cannot abort-storm.
type SkipMap struct {
	tm    core.TM
	head  int
	alloc Allocator
	rng   []uint64 // per-thread level-generator state, indexed by thread id

	// gate is opened on every window publish; writers aimed into the
	// active window wait on it (retryWindow).
	gate pubgate.Gate

	// board is the TM's telemetry board when it carries one; scans and
	// scan windows are recorded per thread.
	board *telemetry.Board
}

// SkipMaxLevel is the fixed number of skiplist levels. 2^16 towers keep
// the expected traversal O(log n) far past any arena this repo sizes.
const SkipMaxLevel = 16

// SkipHeadRegs is the register footprint of a SkipMap head block: one
// head pointer per level, consecutive from `head`, followed by the
// three scan-guard registers.
const SkipHeadRegs = SkipMaxLevel + 3

// Scan-guard register offsets within the head block. The guard is the
// skiplist analogue of stmkv's shard flag, scoped to a key window:
// while gFlag is odd, the registers of every node with key in
// [gLo, gHi] — and the level-0 successor pointer leading into that
// range — are private to the scanning thread.
const (
	skipGFlag = SkipMaxLevel     // scan epoch: even = shared, odd = window private
	skipGLo   = SkipMaxLevel + 1 // active window's lower key bound (inclusive)
	skipGHi   = SkipMaxLevel + 2 // active window's upper key bound (inclusive)
)

// errWindowPrivate aborts an op that would touch a privatized window —
// a SkipMap scan window (or a scan that found another one in
// progress), or a HashMap that a doubling holds; the caller waits on
// the publish gate and retries.
var errWindowPrivate = errors.New("stmds: window is privatized")

// skipNodeHdr is the per-node header (key, value, height) preceding the
// next-pointer tower.
const skipNodeHdr = 3

// TowerRegs returns the register footprint of a node with tower height
// h.
func TowerRegs(height int) int { return skipNodeHdr + height }

// NewSkipMap returns a skiplist map whose head block occupies registers
// [head, head+SkipHeadRegs) and whose nodes come from alloc. threads is
// the highest thread id that will call Put (level-generator state is
// per thread so concurrent Puts stay deterministic per thread). The
// head registers must start zeroed (VInit), which reads as "all levels
// empty".
func NewSkipMap(tm core.TM, head, threads int, alloc Allocator) *SkipMap {
	s := &SkipMap{tm: tm, head: head, alloc: alloc, rng: make([]uint64, threads+1)}
	for th := range s.rng {
		s.rng[th] = splitmix64(uint64(th))
	}
	if p, ok := tm.(telemetry.Provider); ok {
		s.board = p.TelemetryBoard()
	}
	return s
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

// Level draws the next tower height for thread th: a geometric(1/2)
// variable clamped to [1, SkipMaxLevel], from th's private xorshift64
// stream. Deterministic: the i-th call for a given th returns the same
// height in every run and on every TM. Not transactional state — a
// retried Put must NOT redraw (Put draws once per call; the windowed
// executor memoizes the draw across attempt reruns).
func (s *SkipMap) Level(th int) int {
	if th < 0 || th >= len(s.rng) {
		th = 0
	}
	x := s.rng[th]
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng[th] = x
	h := 1
	for x&1 == 1 && h < SkipMaxLevel {
		h++
		x >>= 1
	}
	return h
}

// nextReg returns the register holding the level-l successor pointer of
// node, with node==nilPtr standing for the head block.
func (s *SkipMap) nextReg(node int64, level int) int {
	if node == nilPtr {
		return s.head + level
	}
	return int(node) + skipNodeHdr + level
}

// skipPath is what a descent to key k found. On every level l,
// succ[l] is the first node with key >= k on the level-l list (nilPtr
// when there is none) and update[l] the register holding the pointer
// to it (a head register or a next field). succ[0] is the candidate:
// the node holding k, if any node does. candKey is its key (meaningful
// when succ[0] != nilPtr), and prevKey the key of the level-0
// predecessor owning update[0] (math.MinInt64 when that is the head
// block) — the write paths compare it against an active scan window's
// bounds.
type skipPath struct {
	update  [SkipMaxLevel]int
	succ    [SkipMaxLevel]int64
	candKey int64
	prevKey int64
}

// findTx descends the tower to k and fills p. It reads no register
// twice: succ[l] is the last pointer read on level l, and a level
// whose walk arrives at the node the level above stopped at stops
// there without reading that node's key again (it is >= k). One
// transactional read set of O(log n) expected size — the structural
// reason SkipMap aborts less than Map under the same churn.
func (s *SkipMap) findTx(tx core.Txn, k int64, p *skipPath) error {
	prev := nilPtr // nilPtr marks "still at the head block"
	p.prevKey = math.MinInt64
	// stop is the node the last level stopped at (nilPtr: none yet) and
	// stopKey its key.
	stop, stopKey := nilPtr, int64(0)
	for level := SkipMaxLevel - 1; level >= 0; level-- {
		reg := s.nextReg(prev, level)
		for {
			cur, err := tx.Read(reg)
			if err != nil {
				return err
			}
			p.succ[level] = cur
			if cur == nilPtr || cur == stop {
				break
			}
			key, err := tx.Read(int(cur))
			if err != nil {
				return err
			}
			if key >= k {
				stop, stopKey = cur, key
				break
			}
			// prev only ever advances, so after the level-0 loop it IS
			// the level-0 predecessor and prevKey its key.
			prev, p.prevKey = cur, key
			reg = s.nextReg(prev, level)
		}
		p.update[level] = reg
	}
	// A non-nil succ[0] is where level 0 stopped.
	p.candKey = stopKey
	return nil
}

// guardCheck implements the writer side of the scan-window protocol:
// called with the guard epoch gf (which the caller read BEFORE any
// write — wtstm writes in place, so the guard read must come first)
// and the write's key k plus its level-0 predecessor key. When a
// window is private and the write could touch a register the
// uninstrumented walker reads — its key lands at or past the window
// start AND it splices at a node whose level-0 successor chain the
// walker follows (predecessor key <= hi) — the write must stall.
// Writes strictly below the window, or splicing strictly past it,
// proceed: the walker never reads their registers (it only follows
// level-0 pointers of nodes with keys in [lo, hi], plus the boundary
// node's key).
func (s *SkipMap) guardCheck(tx core.Txn, gf, k, prevKey int64) error {
	if gf&1 == 0 {
		return nil
	}
	lo, err := tx.Read(s.head + skipGLo)
	if err != nil {
		return err
	}
	hi, err := tx.Read(s.head + skipGHi)
	if err != nil {
		return err
	}
	if k >= lo && prevKey <= hi {
		return errWindowPrivate
	}
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
	if v, err = tx.Read(int(p.succ[0]) + 1); err != nil {
		return 0, false, err
	}
	return v, true, nil
}

// PutTx is Put inside a caller-owned transaction, with the tower height
// supplied by the caller (clamped to [1, SkipMaxLevel]). Passing the
// height in keeps the level draw outside the transaction so retries and
// cross-TM runs insert identical towers. Reports whether k was absent.
// Returns errWindowPrivate (without writing anything) when the write
// would touch an active scan window; Put parks and retries, callers
// driving PutTx directly must do the same.
func (s *SkipMap) PutTx(tx core.Txn, th int, k, v int64, height int) (bool, error) {
	if height < 1 {
		height = 1
	}
	if height > SkipMaxLevel {
		height = SkipMaxLevel
	}
	gf, err := tx.Read(s.head + skipGFlag)
	if err != nil {
		return false, err
	}
	var p skipPath
	if err := s.findTx(tx, k, &p); err != nil {
		return false, err
	}
	if err := s.guardCheck(tx, gf, k, p.prevKey); err != nil {
		return false, err
	}
	if p.succ[0] != nilPtr && p.candKey == k {
		return false, tx.Write(int(p.succ[0])+1, v) // update in place
	}
	node, err := s.alloc.New(tx, th, TowerRegs(height))
	if err != nil {
		return false, err
	}
	if err := tx.Write(int(node), k); err != nil {
		return false, err
	}
	if err := tx.Write(int(node)+1, v); err != nil {
		return false, err
	}
	if err := tx.Write(int(node)+2, int64(height)); err != nil {
		return false, err
	}
	for l := 0; l < height; l++ {
		if err := tx.Write(int(node)+skipNodeHdr+l, p.succ[l]); err != nil {
			return false, err
		}
		if err := tx.Write(p.update[l], node); err != nil {
			return false, err
		}
	}
	return true, nil
}

// DeleteTx is Delete inside a caller-owned transaction: it unlinks the
// whole tower (every level it appears on) in this one transaction and
// returns the node for the caller to free AFTER the transaction
// commits — never before, or the fence would not cover the unlink.
// victimRegs is the block size to pass to Allocator.Free. Like PutTx it
// returns errWindowPrivate before writing anything when the unlink
// would touch an active scan window.
func (s *SkipMap) DeleteTx(tx core.Txn, k int64) (removed bool, victim int64, victimRegs int, err error) {
	gf, err := tx.Read(s.head + skipGFlag)
	if err != nil {
		return false, 0, 0, err
	}
	var p skipPath
	if err := s.findTx(tx, k, &p); err != nil || p.succ[0] == nilPtr {
		return false, 0, 0, err
	}
	if err := s.guardCheck(tx, gf, k, p.prevKey); err != nil {
		return false, 0, 0, err
	}
	cand := p.succ[0]
	if p.candKey != k {
		return false, 0, 0, nil
	}
	hgt, err := tx.Read(int(cand) + 2)
	if err != nil {
		return false, 0, 0, err
	}
	if hgt < 1 || int(hgt) > SkipMaxLevel {
		// No committed state stores an out-of-range height; a doomed
		// transaction may have read a node already wiped by the
		// allocator's uninstrumented phase. Abort and retry rather than
		// walk a bogus tower.
		return false, 0, 0, core.ErrAborted
	}
	for l := 0; l < int(hgt); l++ {
		// In committed state succ[l] is cand on every level the tower
		// spans (keys are unique, so cand is the first key >= k wherever
		// it appears); re-check defensively all the same.
		if p.succ[l] != cand {
			continue
		}
		nxt, err := tx.Read(int(cand) + skipNodeHdr + l)
		if err != nil {
			return false, 0, 0, err
		}
		if err := tx.Write(p.update[l], nxt); err != nil {
			return false, 0, 0, err
		}
	}
	return true, cand, TowerRegs(int(hgt)), nil
}

// SnapshotTx walks level 0 inside a caller-owned transaction, returning
// the pairs in key order.
func (s *SkipMap) SnapshotTx(tx core.Txn) ([]KV, error) {
	var out []KV
	cur, err := tx.Read(s.head)
	if err != nil {
		return nil, err
	}
	for cur != nilPtr {
		key, err := tx.Read(int(cur))
		if err != nil {
			return nil, err
		}
		val, err := tx.Read(int(cur) + 1)
		if err != nil {
			return nil, err
		}
		out = append(out, KV{key, val})
		if cur, err = tx.Read(int(cur) + skipNodeHdr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// LenTx counts the pairs by walking level 0 inside a caller-owned
// transaction.
func (s *SkipMap) LenTx(tx core.Txn) (int, error) {
	n := 0
	cur, err := tx.Read(s.head)
	if err != nil {
		return 0, err
	}
	for cur != nilPtr {
		n++
		if cur, err = tx.Read(int(cur) + skipNodeHdr); err != nil {
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
	err := s.retryWindow(th, func(tx core.Txn) (err error) {
		added, err = s.PutTx(tx, th, k, v, height)
		return err
	})
	return added, err
}

// Delete removes k, reporting whether it was present. The unlinked
// tower goes back to the allocator after the removing transaction
// commits — the Fig. 7 privatization cycle, with one grace period (or
// one magazine slot) covering all 3+h registers at once. A delete that
// hits an active scan window parks on the publish gate and retries.
func (s *SkipMap) Delete(th int, k int64) (bool, error) {
	var removed bool
	var victim int64
	var victimRegs int
	err := s.retryWindow(th, func(tx core.Txn) (err error) {
		removed, victim, victimRegs, err = s.DeleteTx(tx, k)
		return err
	})
	if err == nil && removed {
		s.alloc.Free(th, victim, victimRegs)
	}
	return removed, err
}

// retryWindow runs body transactionally, waiting on the publish gate
// while it reports the scan window privatized.
func (s *SkipMap) retryWindow(th int, body func(core.Txn) error) error {
	return s.gate.Retry(s.tm, th, errWindowPrivate, body)
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
// never leaves a window privatized.
type WindowIter struct {
	s       *SkipMap
	to      int64
	span    uint64 // cap on a window's key width, in [1, MaxInt64]
	width   uint64 // the next window's key width, in [1, span]
	cursor  int64
	done    bool
	started bool
	// want is the capacity of the next window's slice, allocated before
	// the window is privatized (see Next).
	want int
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
//
// The window is [cursor, cursor+width-1] ∩ [cursor, to]. After the
// walk, width becomes covered × windowPairs / pairs, the key range
// that holds windowPairs pairs at the density just seen (covered is
// the number of keys the walk accounted for); an empty window doubles
// it. Width stays in [1, span].
//
// Nothing allocates between the window's fence and its publish: the
// slice is allocated before the privatizing transaction, with room for
// the previous window's pair count plus an eighth, at most
// windowPairs and the window's width. A walk that fills the slice — a
// window denser than its estimate, or one that reaches windowPairs
// pairs — ends the window early, at the first node it has no room
// for. The cursor resumes at that node's key, which the frozen chain
// already gave the walker, and the next window's slice is twice as
// large (up to windowPairs). An early end never ends the scan, even
// when the window's bounds reach the scan's end.
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
	pairs = make([]KV, 0, it.want)
	// Privatize: flip the guard odd, record the bounds, and capture the
	// first node with key >= lo in the same transaction — opacity makes
	// the captured pointer consistent with the commit that made the
	// window private.
	var start int64
	err = s.retryWindow(th, func(tx core.Txn) error {
		f, err := tx.Read(s.head + skipGFlag)
		if err != nil {
			return err
		}
		if f&1 == 1 {
			return errWindowPrivate // another scan holds a window
		}
		if err := tx.Write(s.head+skipGFlag, f+1); err != nil {
			return err
		}
		if err := tx.Write(s.head+skipGLo, lo); err != nil {
			return err
		}
		if err := tx.Write(s.head+skipGHi, hi); err != nil {
			return err
		}
		var p skipPath
		err = s.findTx(tx, lo, &p)
		start = p.succ[0]
		return err
	})
	if err != nil {
		return nil, false, err
	}
	if sl := s.board.Slot(th); sl != nil {
		sl.Privatizations.Add(1)
		sl.ScanWindows.Add(1)
	}
	s.tm.Fence(th)
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
		if cur = tm.Load(th, int(cur)+skipNodeHdr); cur == nilPtr {
			endOfChain = true
		}
	}
	if err := s.publishWindow(th); err != nil {
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

// publishWindow commits the guard back to even and wakes every writer
// waiting on the gate.
func (s *SkipMap) publishWindow(th int) error {
	err := core.Atomically(s.tm, th, func(tx core.Txn) error {
		f, err := tx.Read(s.head + skipGFlag)
		if err != nil {
			return err
		}
		return tx.Write(s.head+skipGFlag, f+1)
	})
	if err == nil {
		s.gate.Open()
	}
	return err
}

// Range streams every pair with from <= key <= to into fn in ascending
// key order through a windowed scan with no span cap (each window
// still walks at most windowPairs pairs); fn returning false stops the
// scan early. The per-window atomicity contract applies — see the
// SkipMap type comment.
func (s *SkipMap) Range(th int, from, to int64, fn func(k, v int64) bool) error {
	it := s.RangeWindows(from, to, 0)
	for {
		pairs, more, err := it.Next(th)
		if err != nil {
			return err
		}
		for _, kv := range pairs {
			if !fn(kv.Key, kv.Val) {
				return nil
			}
		}
		if !more {
			return nil
		}
	}
}
