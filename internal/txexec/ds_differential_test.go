package txexec

import (
	"math/rand"
	"strings"
	"testing"

	"safepriv/internal/engine"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
)

// The data-structure differential suite: the churn structures (hash
// set, skiplist map) driven by a deterministic scripted operation
// sequence over the reclaiming allocator, on every registry TM,
// checked op by op against a serial map oracle.
// Memory reclamation makes this a real differential surface: every
// remove frees its node through the TM's fence, and reused registers
// must never leak stale values into later reads on any TM.

// dsOp is one scripted operation.
type dsOp struct {
	kind int // 0 set-insert, 1 set-remove, 2 set-contains, 3 map-put, 4 map-delete, 5 map-get
	key  int64
	val  int64
}

// dsScript generates a deterministic operation sequence: churn-heavy,
// small keyspace, so nodes cycle through the free lists many times.
func dsScript(seed int64, n int) []dsOp {
	r := rand.New(rand.NewSource(seed))
	ops := make([]dsOp, n)
	for i := range ops {
		ops[i] = dsOp{
			kind: r.Intn(6),
			key:  int64(r.Intn(24) + 1),
			val:  int64(r.Intn(1000)),
		}
	}
	return ops
}

// dsOutcome is the observable result trace plus final snapshots.
type dsOutcome struct {
	results []int64 // one entry per op: booleans as 0/1, gets as values (absent = -1)
	set     []int64
	pairs   []stmds.KV
}

// runOracle executes the script against plain Go structures: the
// serial oracle.
func runOracle(script []dsOp) dsOutcome {
	var out dsOutcome
	set := map[int64]bool{}
	m := map[int64]int64{}
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	for _, op := range script {
		switch op.kind {
		case 0:
			added := !set[op.key]
			set[op.key] = true
			out.results = append(out.results, b(added))
		case 1:
			removed := set[op.key]
			delete(set, op.key)
			out.results = append(out.results, b(removed))
		case 2:
			out.results = append(out.results, b(set[op.key]))
		case 3:
			_, had := m[op.key]
			m[op.key] = op.val
			out.results = append(out.results, b(!had))
		case 4:
			_, had := m[op.key]
			delete(m, op.key)
			out.results = append(out.results, b(had))
		case 5:
			if v, ok := m[op.key]; ok {
				out.results = append(out.results, v)
			} else {
				out.results = append(out.results, -1)
			}
		}
	}
	for k := range set {
		out.set = append(out.set, k)
	}
	sortInt64(out.set)
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortInt64(keys)
	for _, k := range keys {
		out.pairs = append(out.pairs, stmds.KV{Key: k, Val: m[k]})
	}
	return out
}

func sortInt64(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

// heapShape is a test-local heap configuration: the suites cross every
// TM with these shapes. A heap's shape is chosen where the heap is
// built (stmalloc options), never by the engine spec. A row is named
// by the TM spec plus the shape's label — the names the rows carried
// while the shape was a spec modifier.
type heapShape struct {
	label     string
	magazines bool // stmalloc.WithMagazines
}

var (
	perFree    = heapShape{"quiesce", false}
	magazine   = heapShape{"quiesce+batch", true}
	heapShapes = []heapShape{perFree, magazine}
)

func (h heapShape) row(spec string) string { return spec + "+" + h.label }

// heapOptions returns the stmalloc options of shape: magazines of
// capacity magCap for thread ids 1..threads.
func heapOptions(shape heapShape, threads, magCap int) []stmalloc.Option {
	if shape.magazines {
		return []stmalloc.Option{stmalloc.WithMagazines(threads, magCap)}
	}
	return nil
}

// Register layout of runOnTM: the hash set's head at dsSetHead, the
// skiplist's head block after it, the heap from dsArena.
const (
	dsSetHead = 1
	dsMapHead = dsSetHead + stmds.HashHeadRegs
	dsArena   = dsMapHead + stmds.SkipHeadRegs
)

// runOnTM executes the script on the structures over a real TM with
// the reclaiming allocator. A magazine heap is shallow so the script's small keyspace cycles
// blocks through park→retire→refill many times.
func runOnTM(t *testing.T, spec string, shape heapShape, script []dsOp) dsOutcome {
	t.Helper()
	tm, err := engine.NewSpec(spec, 1<<12, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := stmalloc.New(tm, dsArena, tm.NumRegs(), heapOptions(shape, 2, 4)...)
	spec = shape.row(spec) // the row name, in failure messages
	if err != nil {
		t.Fatal(err)
	}
	set := stmds.NewHashSet(tm, dsSetHead, heap)
	mp := stmds.NewSkipMap(tm, dsMapHead, 2, heap)
	var out dsOutcome
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	const th = 1
	for i, op := range script {
		var res int64
		var err error
		switch op.kind {
		case 0:
			var added bool
			added, err = set.Insert(th, op.key)
			res = b(added)
		case 1:
			var removed bool
			removed, err = set.Remove(th, op.key)
			res = b(removed)
		case 2:
			var ok bool
			ok, err = set.Contains(th, op.key)
			res = b(ok)
		case 3:
			var added bool
			added, err = mp.Put(th, op.key, op.val)
			res = b(added)
		case 4:
			var removed bool
			removed, err = mp.Delete(th, op.key)
			res = b(removed)
		case 5:
			var v int64
			var ok bool
			v, ok, err = mp.Get(th, op.key)
			if ok {
				res = v
			} else {
				res = -1
			}
		}
		if err != nil {
			t.Fatalf("%s: op %d (%+v): %v", spec, i, op, err)
		}
		out.results = append(out.results, res)
	}
	if out.set, err = set.Snapshot(th); err != nil {
		t.Fatal(err)
	}
	if out.pairs, err = mp.Snapshot(th); err != nil {
		t.Fatal(err)
	}
	if err := heap.Drain(th); err != nil {
		t.Fatalf("%s: Drain: %v", spec, err)
	}
	// Everything was drained: the map pairs, the set keys and the set's
	// bucket array are the only live blocks.
	want := int64(len(out.set) + len(out.pairs) + 1)
	if st := heap.Stats(); st.Live != want {
		t.Fatalf("%s: allocs-frees = %d, live nodes %d", spec, st.Live, want)
	}
	return out
}

func diffOutcome(a, b dsOutcome) (string, bool) {
	if len(a.results) != len(b.results) {
		return "result trace length", false
	}
	for i := range a.results {
		if a.results[i] != b.results[i] {
			return "op result", false
		}
	}
	eq := func(x, y []int64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !eq(a.set, b.set) {
		return "final set", false
	}
	if len(a.pairs) != len(b.pairs) {
		return "final map size", false
	}
	for i := range a.pairs {
		if a.pairs[i] != b.pairs[i] {
			return "final map pair", false
		}
	}
	return "", true
}

// TestDifferentialDataStructures: the churn structures over the
// reclaiming allocator on every registry TM must reproduce the serial
// oracle exactly — op results, final set and map contents — on every
// program seed.
func TestDifferentialDataStructures(t *testing.T) {
	seeds := int64(6)
	opsPerSeed := 400
	if testing.Short() {
		seeds, opsPerSeed = 2, 150
	}
	for _, tmName := range engine.TMs() {
		t.Run(perFree.row(tmName), func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				script := dsScript(seed*31, opsPerSeed)
				want := runOracle(script)
				got := runOnTM(t, tmName, perFree, script)
				if where, ok := diffOutcome(got, want); !ok {
					t.Fatalf("seed %d: diverged from oracle at %s", seed, where)
				}
			}
		})
		for _, fence := range retiredFenceModes {
			spec := perFree.row(tmName + fence)
			t.Run(spec, func(t *testing.T) { requireRefused(t, spec) })
		}
	}
}

// retiredFenceModes are the modifiers of the coalescing and deferred
// fence modes, which the engine no longer has: the paper has one safe
// fence. The suites that ran on every TM × fence mode keep a row per TM
// and retired mode, pinning that a caller still configured for one gets
// an error rather than a different fence.
var retiredFenceModes = []string{"+combine", "+defer"}

// requireRefused fails unless the engine refuses spec for naming an
// unknown modifier.
func requireRefused(t *testing.T, spec string) {
	t.Helper()
	if _, err := engine.NewSpec(spec, 64, 3, nil); err == nil || !strings.Contains(err.Error(), "unknown modifier") {
		t.Fatalf("NewSpec(%q) = %v, want an unknown-modifier error", spec, err)
	}
}

// TestDifferentialDataStructuresBatch is the differential suite on the
// magazine heap: frees park in thread-local magazines and whole chains
// retire under one shared grace period, so register reuse happens in
// bursts — the magazine heap must still reproduce the serial oracle
// exactly, and the post-drain leak accounting must balance with blocks
// resident in the alloc-side cache.
func TestDifferentialDataStructuresBatch(t *testing.T) {
	seeds := int64(4)
	opsPerSeed := 400
	if testing.Short() {
		seeds, opsPerSeed = 2, 150
	}
	for _, spec := range []string{"tl2", "norec"} {
		t.Run(magazine.row(spec), func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				script := dsScript(seed*53, opsPerSeed)
				want := runOracle(script)
				got := runOnTM(t, spec, magazine, script)
				if where, ok := diffOutcome(got, want); !ok {
					t.Fatalf("seed %d: diverged from oracle at %s", seed, where)
				}
			}
		})
	}
}
