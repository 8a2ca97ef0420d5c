package txexec

import (
	"math/rand"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/engine"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
	"safepriv/internal/telemetry"
)

// The hash-map differential suite: HashMap point ops driven through
// runDS so rival ops commit inside each other's execution windows,
// while the table doubles as scripted post-commit actions — each Grow
// runs one whole privatized doubling at a quiescent point, with
// deferred frees and magazine batch retires (including the freed old
// arrays, back on their own class lists) draining between the same
// rounds. Every TM × reclaim axis must reproduce the replay of the
// pinned serialization order on a plain Go map, with exact post-drain
// leak accounting.

type hashWinKind int

const (
	hGet hashWinKind = iota
	hPut
	hDel
	hLen
	hSnap
	hGrow // post action: double the table
)

type hashWinOp struct {
	kind hashWinKind
	key  int64
	val  int64
}

// hashWinScripts generates per-thread op scripts: churn-heavy over a
// keyspace small enough to cycle nodes through the free lists, salted
// with explicit grow steps so the table doubles several times while
// rival ops sit in their execution windows.
func hashWinScripts(seed int64, threads, opsPerThread int) [][]hashWinOp {
	r := rand.New(rand.NewSource(seed))
	scripts := make([][]hashWinOp, threads)
	for t := range scripts {
		ops := make([]hashWinOp, opsPerThread)
		for i := range ops {
			var kind hashWinKind
			switch d := r.Intn(100); {
			case d < 28:
				kind = hPut
			case d < 48:
				kind = hDel
			case d < 70:
				kind = hGet
			case d < 75:
				kind = hLen
			case d < 80:
				kind = hSnap
			default:
				kind = hGrow
			}
			ops[i] = hashWinOp{
				kind: kind,
				key:  int64(r.Intn(64) + 1),
				val:  int64(r.Intn(1000) + 1),
			}
		}
		scripts[t] = ops
	}
	return scripts
}

// buildHashOps lowers the scripts onto HashMap's Tx-level methods.
// Deletes return their node free as the post-commit action; grow
// steps run a point read transactionally (window fodder) and carry the
// doubling — which fences — as their post action,
// since posts only run at quiescent points where a fence cannot
// deadlock the executor.
func buildHashOps(hm *stmds.HashMap, heap *stmalloc.Heap, scripts [][]hashWinOp) [][]scriptOp {
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	out := make([][]scriptOp, len(scripts))
	for t, script := range scripts {
		ops := make([]scriptOp, len(script))
		for i, o := range script {
			o := o
			switch o.kind {
			case hGet:
				ops[i] = scriptOp{Name: "hash-get", run: func(tx core.Txn, th int) (int64, func(), error) {
					v, ok, err := hm.GetTx(tx, o.key)
					if !ok {
						v = -1
					}
					return v, nil, err
				}}
			case hPut:
				ops[i] = scriptOp{Name: "hash-put", run: func(tx core.Txn, th int) (int64, func(), error) {
					added, _, err := hm.PutTx(tx, th, o.key, o.val)
					return b(added), nil, err
				}}
			case hDel:
				ops[i] = scriptOp{Name: "hash-del", run: func(tx core.Txn, th int) (int64, func(), error) {
					removed, victim, vregs, err := hm.DeleteTx(tx, o.key)
					if err != nil || !removed {
						return 0, nil, err
					}
					return 1, func() { heap.Free(th, victim, vregs) }, nil
				}}
			case hLen:
				ops[i] = scriptOp{Name: "hash-len", run: func(tx core.Txn, th int) (int64, func(), error) {
					n, err := hm.LenTx(tx)
					return int64(n), nil, err
				}}
			case hSnap:
				ops[i] = scriptOp{Name: "hash-snap", run: func(tx core.Txn, th int) (int64, func(), error) {
					pairs, err := hm.SnapshotTx(tx)
					return pairsHash(pairs), nil, err
				}}
			case hGrow:
				ops[i] = scriptOp{Name: "hash-grow", run: func(tx core.Txn, th int) (int64, func(), error) {
					if _, _, err := hm.GetTx(tx, o.key); err != nil {
						return 0, nil, err
					}
					return 0, func() { hm.Grow(th) }, nil
				}}
			}
		}
		out[t] = ops
	}
	return out
}

// replayHashOracle replays the recorded serialization order on a plain
// Go map. Grow steps are semantic no-ops (their observable
// result is pinned to 0); everything else models the map directly.
func replayHashOracle(t *testing.T, scripts [][]hashWinOp, order []opRef) (results [][]int64, final map[int64]int64) {
	t.Helper()
	results = make([][]int64, len(scripts))
	seen := make(map[opRef]bool, len(order))
	final = map[int64]int64{}
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	hash := func(m map[int64]int64) int64 {
		keys := make([]int64, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sortInt64(keys)
		pairs := make([]stmds.KV, len(keys))
		for i, k := range keys {
			pairs[i] = stmds.KV{Key: k, Val: m[k]}
		}
		return pairsHash(pairs)
	}
	for _, ref := range order {
		if seen[ref] {
			t.Fatalf("order replays op %+v twice", ref)
		}
		seen[ref] = true
		if ref.Index != len(results[ref.Thread-1]) {
			t.Fatalf("order runs op %+v out of script order", ref)
		}
		o := scripts[ref.Thread-1][ref.Index]
		var res int64
		switch o.kind {
		case hGet:
			if v, ok := final[o.key]; ok {
				res = v
			} else {
				res = -1
			}
		case hPut:
			_, had := final[o.key]
			final[o.key] = o.val
			res = b(!had)
		case hDel:
			_, had := final[o.key]
			delete(final, o.key)
			res = b(had)
		case hLen:
			res = int64(len(final))
		case hSnap:
			res = hash(final)
		case hGrow:
			res = 0
		}
		results[ref.Thread-1] = append(results[ref.Thread-1], res)
	}
	total := 0
	for _, s := range scripts {
		total += len(s)
	}
	if len(order) != total {
		t.Fatalf("order covers %d ops, scripts hold %d", len(order), total)
	}
	return results, final
}

// runHashOnTM builds a HashMap over a demand-sized reclaiming heap of
// the given shape on one spec, runs the windowed schedule, and checks
// the run against the replay oracle, the rehash telemetry, and the
// exact leak accounting (every freed old array returns to its class's
// free list).
func runHashOnTM(t *testing.T, spec string, shape heapShape, seed int64, scripts [][]hashWinOp) {
	t.Helper()
	threads := len(scripts)
	const hashHead = 1
	heapFirst := hashHead + stmds.HashHeadRegs
	maxNodes := 0
	for _, s := range scripts {
		maxNodes += len(s)
	}
	magThreads, magCap := 0, 0
	if shape.magazines {
		magThreads, magCap = threads, 3 // shallow: park→retire→refill cycles often
	}
	// HashMapDemand(256) budgets array generations up to 512 buckets —
	// headroom for the scripted unconditional doublings — plus the node
	// class.
	demand := append(stmds.HashMapDemand(256), stmalloc.ClassDemand{Regs: 3, Count: maxNodes})
	regs := heapFirst + stmalloc.RegsForDemand(4, magThreads, magCap, demand)
	tm, err := engine.NewSpec(spec, regs, threads+2, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]stmalloc.Option{stmalloc.WithShards(4)}, heapOptions(shape, magThreads, magCap)...)
	heap, err := stmalloc.New(tm, heapFirst, tm.NumRegs(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	hm := stmds.NewHashMap(tm, hashHead, heap)
	spec = shape.row(spec) // the row name, in failure messages

	got, err := runDS(tm, buildHashOps(hm, heap, scripts), options{
		Seed:    seed,
		Windows: !isBaseline(spec), // baseline's Begin blocks on the global lock
	})
	if err != nil {
		t.Fatalf("%s: runDS: %v", spec, err)
	}
	want, final := replayHashOracle(t, scripts, got.Order)
	for ti := range want {
		if len(got.Results[ti]) != len(want[ti]) {
			t.Fatalf("%s: thread %d completed %d ops, oracle %d", spec, ti+1, len(got.Results[ti]), len(want[ti]))
		}
		for i := range want[ti] {
			if got.Results[ti][i] != want[ti][i] {
				t.Fatalf("%s: thread %d op %d (%+v): got %d, oracle %d",
					spec, ti+1, i, scripts[ti][i], got.Results[ti][i], want[ti][i])
			}
		}
	}
	// The scripted grows must actually have rehashed the table.
	if tp, ok := tm.(telemetry.Provider); ok {
		if snap := tp.TelemetryBoard().Snapshot(); snap.RehashWindows == 0 {
			t.Fatalf("%s: scripts scheduled grows but no rehash window ran: %+v", spec, snap)
		}
	}
	// End state: the map must hold exactly the oracle's pairs.
	pairs, err := hm.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(final) {
		t.Fatalf("%s: final map has %d pairs, oracle %d", spec, len(pairs), len(final))
	}
	for i, p := range pairs {
		if i > 0 && pairs[i-1].Key >= p.Key {
			t.Fatalf("%s: final snapshot unsorted at %d", spec, i)
		}
		if v, ok := final[p.Key]; !ok || v != p.Val {
			t.Fatalf("%s: final pair %v diverges from oracle", spec, p)
		}
	}
	// Exact leak accounting: drain reclamation, and the only live blocks
	// are the resident nodes plus ONE bucket array — however many old
	// arrays the doublings freed.
	if err := heap.Drain(1); err != nil {
		t.Fatalf("%s: Drain: %v", spec, err)
	}
	if st := heap.Stats(); st.Live != int64(len(pairs))+1 {
		t.Fatalf("%s: allocs-frees = %d, want %d nodes + 1 array (stats %+v)",
			spec, st.Live, len(pairs), st)
	}
}

// TestDifferentialHashMapWindows: HashMap churn under windowed
// interleavings — with whole-table doublings between rounds and
// magazine batch retires racing them — on every
// registry TM × per-free/magazine heap must match the replay of the
// pinned serialization order, with exact post-drain leak accounting
// including the freed old arrays.
func TestDifferentialHashMapWindows(t *testing.T) {
	seeds := int64(3)
	opsPerThread := 40
	if testing.Short() {
		seeds, opsPerThread = 1, 25
	}
	for _, tmName := range engine.TMs() {
		for _, shape := range heapShapes {
			t.Run(shape.row(tmName), func(t *testing.T) {
				for seed := int64(1); seed <= seeds; seed++ {
					scripts := hashWinScripts(seed*83, 3, opsPerThread)
					runHashOnTM(t, tmName, shape, seed*17+1, scripts)
				}
			})
			for _, fence := range retiredFenceModes {
				spec := shape.row(tmName + fence)
				t.Run(spec, func(t *testing.T) { requireRefused(t, spec) })
			}
		}
	}
}
