package main

import (
	"fmt"
	"time"

	"safepriv/internal/stmds"
	"safepriv/internal/stmkv"
)

// tally counts what was attempted — operations, completed scan walks,
// post-slice checks — and what failed among it: errors, wrong values,
// oracle mismatches. It is also how a report carries those counts.
type tally struct {
	Attempted    int64  `json:"attempted"`
	Failed       int64  `json:"failed"`
	FirstFailure string `json:"first_failure,omitempty"`
}

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if t.FirstFailure == "" {
		t.FirstFailure = fmt.Sprintf(format, args...)
	}
}

// add folds another tally in.
func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	if t.FirstFailure == "" {
		t.FirstFailure = o.FirstFailure
	}
}

// pointWorker is one closed-loop client: it issues its next operation
// when the previous one returns, which is the shape both of a keep-alive
// HTTP client and of an in-process caller.
type pointWorker struct {
	tally
	ops      int64         // operations of the latest run
	elapsed  time.Duration // and how long it took
	b        backend
	rng      splitmix64
	mix      mix
	residues []int64 // key residues (mod 8) this worker writes
	own      bitmap  // presence of the keys on those residues
	ownMask  uint8   // bit r set: residue r is this worker's
	every    int     // time one operation in every (a power of two)
	lat      *recorder
	tr       *tracer // non-nil in traced slices of in-process workloads
	spans    [3]string
}

func newPointWorker(b backend, m mix, residues []int64, every int, spanPrefix string) *pointWorker {
	w := &pointWorker{b: b, mix: m, residues: residues, own: newBitmap(), every: every}
	for _, r := range residues {
		w.ownMask |= 1 << uint(r)
	}
	// Capacity for 8 s at 4 M ops/s per worker; later samples are counted
	// as dropped, not stored.
	w.lat = newRecorder(1 << 21)
	for k := opGet; k <= opDelete; k++ {
		w.spans[k] = spanPrefix + "." + k.String()
	}
	return w
}

func (w *pointWorker) owns(key int64) bool { return w.ownMask&(1<<uint(key&7)) != 0 }

// run issues operations until deadline. Only timed operations look at
// the clock, so the deadline is noticed within `every` operations.
func (w *pointWorker) run(deadline time.Time) {
	mask := w.every - 1
	start := time.Now()
	for i := 0; ; i++ {
		kind, key := w.mix.draw(w.rng.next(), w.residues)
		if i&mask != 0 {
			w.do(kind, key)
			continue
		}
		t0 := time.Now()
		w.do(kind, key)
		t1 := time.Now()
		w.lat.add(t1.Sub(t0))
		if w.tr != nil {
			w.tr.root(w.spans[kind], t0, t1)
		}
		if !t1.Before(deadline) {
			w.ops = int64(i + 1)
			w.Attempted += w.ops
			break
		}
	}
	w.elapsed = time.Since(start)
}

// do performs one operation and checks its outcome against the oracle:
// every value equals valueOf(key), never-written keys are present, and a
// read or delete of one of the worker's own keys agrees with its bitmap.
func (w *pointWorker) do(kind opKind, key int64) {
	switch kind {
	case opGet:
		v, ok, err := w.b.get(key)
		switch {
		case err != nil:
			w.fail("get %d: %v", key, err)
		case ok && v != valueOf(key):
			w.fail("get %d = %d, want %d", key, v, valueOf(key))
		case !ok && neverWritten(key):
			w.fail("get %d: never-written key is absent", key)
		case w.owns(key) && ok != w.own.has(key):
			w.fail("get %d: present=%v, the writer's record says %v", key, ok, w.own.has(key))
		}
	case opPut:
		if err := w.b.put(key, valueOf(key)); err != nil {
			w.fail("put %d: %v", key, err)
			return
		}
		w.own.set(key)
	case opDelete:
		removed, err := w.b.del(key)
		switch {
		case err != nil:
			w.fail("delete %d: %v", key, err)
			return
		case removed != w.own.has(key):
			w.fail("delete %d: removed=%v, the writer's record says %v", key, removed, w.own.has(key))
		}
		w.own.clear(key)
	}
}

// walkCheck is the per-walk scan oracle: every pair carries valueOf(key)
// and a completed walk contains every never-written key.
type walkCheck struct {
	seen  []uint32 // seen[key/8] = id of the last walk that returned key
	walk  uint32
	found int
}

func newWalkCheck() walkCheck { return walkCheck{seen: make([]uint32, keyspace/8+1)} }

func (c *walkCheck) begin() { c.walk++; c.found = 0 }

func (c *walkCheck) pair(t *tally, key, val int64) {
	if val != valueOf(key) {
		t.fail("scan returned %d=%d, want %d", key, val, valueOf(key))
	}
	if neverWritten(key) && c.seen[key>>3] != c.walk {
		c.seen[key>>3] = c.walk
		c.found++
	}
}

func (c *walkCheck) end(t *tally) {
	t.Attempted++
	if c.found != keyspace/8 {
		t.fail("scan walk returned %d of the %d never-written keys", c.found, keyspace/8)
	}
}

// scanWorker walks a structure end to end, repeatedly, beside a writer.
type scanWorker struct {
	tally
	pairs    int64         // pairs returned in the latest run
	elapsed  time.Duration // and how long it took
	check    walkCheck
	tr       *tracer
	spanName string
	// window fetches the next page or window of the current walk and
	// reports whether the walk goes on; restart begins a new walk.
	window  func(t *scanWorker) (more bool)
	restart func()
}

func (s *scanWorker) run(deadline time.Time) {
	start := time.Now()
	s.pairs = 0
	for expired := false; !expired; {
		s.restart()
		s.check.begin()
		for more := true; more && !expired; {
			t0 := time.Now()
			more = s.window(s)
			t1 := time.Now()
			if s.tr != nil {
				s.tr.root(s.spanName, t0, t1)
			}
			if !more {
				s.check.end(&s.tally) // a walk the deadline cut short is not checked
			}
			expired = !t1.Before(deadline)
		}
	}
	s.elapsed = time.Since(start)
}

// newPageScanner walks a stmkv store with ScanPage(cursor, scanPage):
// every never-written key at least once per walk (a rehash between two
// pages may repeat a shard).
func newPageScanner(store *stmkv.Store, th int) *scanWorker {
	cursor := ""
	return &scanWorker{
		check:    newWalkCheck(),
		spanName: "stmkv.scanpage",
		restart:  func() { cursor = "" },
		window: func(s *scanWorker) bool {
			pairs, next, err := store.ScanPage(th, cursor, scanPage)
			if err != nil {
				s.fail("ScanPage(%q): %v", cursor, err)
				return false
			}
			for _, kv := range pairs {
				s.check.pair(&s.tally, kv.Key, kv.Val)
			}
			s.pairs += int64(len(pairs))
			cursor = next
			return next != ""
		},
	}
}

// newRangeScanner walks a SkipMap with RangeWindows(1, keyspace,
// rangeSpan): keys strictly ascending across the whole walk, so every
// never-written key exactly once.
func newRangeScanner(m *stmds.SkipMap, th int) *scanWorker {
	var it *stmds.WindowIter
	var prev int64
	return &scanWorker{
		check:    newWalkCheck(),
		spanName: "stmds.skip.window",
		restart:  func() { it, prev = m.RangeWindows(1, keyspace, rangeSpan), 0 },
		window: func(s *scanWorker) bool {
			pairs, more, err := it.Next(th)
			if err != nil {
				s.fail("RangeWindows.Next: %v", err)
				return false
			}
			for _, kv := range pairs {
				if kv.Key <= prev {
					s.fail("range scan returned %d after %d", kv.Key, prev)
				}
				prev = kv.Key
				s.check.pair(&s.tally, kv.Key, kv.Val)
			}
			s.pairs += int64(len(pairs))
			return more
		},
	}
}
