package txexec

import (
	"math/rand"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/engine"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
)

// The windowed data-structure differential suite: SkipMap and Map
// churn driven through RunDS, so rival ordered-map operations commit
// INSIDE each other's execution windows — mid-traversal — while
// deferred frees and magazine batch retires drain at seeded points
// between rounds. Every TM × reclaim axis must reproduce
// the replay of the pinned serialization order on a plain Go map, and
// the post-drain leak accounting must balance exactly.

// dsWinKind enumerates the scripted op shapes; structure × action.
type dsWinKind int

const (
	wMapGet dsWinKind = iota
	wMapPut
	wMapDel
	wMapSnap
	wSkipGet
	wSkipPut
	wSkipDel
	wSkipLen
	wSkipSnap
	wKinds
)

type dsWinOp struct {
	kind dsWinKind
	key  int64
	val  int64
}

// dsWinScripts generates per-thread op scripts: churn-heavy, small
// keyspace (so towers of every height band cycle through the free
// lists), with occasional whole-structure reads (Len, Snapshot) whose
// large read sets are the juiciest windowing targets.
func dsWinScripts(seed int64, threads, opsPerThread int) [][]dsWinOp {
	r := rand.New(rand.NewSource(seed))
	scripts := make([][]dsWinOp, threads)
	for t := range scripts {
		ops := make([]dsWinOp, opsPerThread)
		for i := range ops {
			var kind dsWinKind
			switch d := r.Intn(100); {
			case d < 18:
				kind = wMapPut
			case d < 33:
				kind = wMapDel
			case d < 43:
				kind = wMapGet
			case d < 48:
				kind = wMapSnap
			case d < 66:
				kind = wSkipPut
			case d < 81:
				kind = wSkipDel
			case d < 91:
				kind = wSkipGet
			case d < 96:
				kind = wSkipLen
			default:
				kind = wSkipSnap
			}
			ops[i] = dsWinOp{
				kind: kind,
				key:  int64(r.Intn(24) + 1),
				val:  int64(r.Intn(1000) + 1),
			}
		}
		scripts[t] = ops
	}
	return scripts
}

// pairsHash folds an ordered snapshot into one comparable result word.
func pairsHash(pairs []stmds.KV) int64 {
	h := int64(17)
	for _, p := range pairs {
		h = h*1000003 + p.Key*31 + p.Val
	}
	return h
}

// buildWinOps lowers the scripts onto the structures' Tx-level methods.
// Deletes return their node free as the post-commit action; skiplist
// Put memoizes its tower height on first execution so TM-driven
// attempt reruns insert the same tower.
func buildWinOps(mp *stmds.Map, sm *stmds.SkipMap, heap *stmalloc.Heap, scripts [][]dsWinOp) [][]DSOp {
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	out := make([][]DSOp, len(scripts))
	for t, script := range scripts {
		ops := make([]DSOp, len(script))
		for i, o := range script {
			o := o
			switch o.kind {
			case wMapGet:
				ops[i] = DSOp{Name: "map-get", Run: func(tx core.Txn, th int) (int64, func(), error) {
					v, ok, err := mp.GetTx(tx, o.key)
					if !ok {
						v = -1
					}
					return v, nil, err
				}}
			case wMapPut:
				ops[i] = DSOp{Name: "map-put", Run: func(tx core.Txn, th int) (int64, func(), error) {
					added, err := mp.PutTx(tx, th, o.key, o.val)
					return b(added), nil, err
				}}
			case wMapDel:
				ops[i] = DSOp{Name: "map-del", Run: func(tx core.Txn, th int) (int64, func(), error) {
					removed, victim, vregs, err := mp.DeleteTx(tx, o.key)
					if err != nil || !removed {
						return 0, nil, err
					}
					return 1, func() { heap.Free(th, victim, vregs) }, nil
				}}
			case wMapSnap:
				ops[i] = DSOp{Name: "map-snap", Run: func(tx core.Txn, th int) (int64, func(), error) {
					pairs, err := mp.SnapshotTx(tx)
					return pairsHash(pairs), nil, err
				}}
			case wSkipGet:
				ops[i] = DSOp{Name: "skip-get", Run: func(tx core.Txn, th int) (int64, func(), error) {
					v, ok, err := sm.GetTx(tx, o.key)
					if !ok {
						v = -1
					}
					return v, nil, err
				}}
			case wSkipPut:
				height := 0
				ops[i] = DSOp{Name: "skip-put", Run: func(tx core.Txn, th int) (int64, func(), error) {
					if height == 0 {
						height = sm.Level(th)
					}
					added, err := sm.PutTx(tx, th, o.key, o.val, height)
					return b(added), nil, err
				}}
			case wSkipDel:
				ops[i] = DSOp{Name: "skip-del", Run: func(tx core.Txn, th int) (int64, func(), error) {
					removed, victim, vregs, err := sm.DeleteTx(tx, o.key)
					if err != nil || !removed {
						return 0, nil, err
					}
					return 1, func() { heap.Free(th, victim, vregs) }, nil
				}}
			case wSkipLen:
				ops[i] = DSOp{Name: "skip-len", Run: func(tx core.Txn, th int) (int64, func(), error) {
					n, err := sm.LenTx(tx)
					return int64(n), nil, err
				}}
			case wSkipSnap:
				ops[i] = DSOp{Name: "skip-snap", Run: func(tx core.Txn, th int) (int64, func(), error) {
					pairs, err := sm.SnapshotTx(tx)
					return pairsHash(pairs), nil, err
				}}
			}
		}
		out[t] = ops
	}
	return out
}

// replayWinOracle replays the recorded serialization order on plain Go
// maps: the oracle a windowed run must match. Also returns the final
// model states for the end-state check.
func replayWinOracle(t *testing.T, scripts [][]dsWinOp, order []DSRef) (results [][]int64, mapFinal, skipFinal map[int64]int64) {
	t.Helper()
	results = make([][]int64, len(scripts))
	seen := make(map[DSRef]bool, len(order))
	mapFinal = map[int64]int64{}
	skipFinal = map[int64]int64{}
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
		case wMapGet, wSkipGet:
			m := mapFinal
			if o.kind == wSkipGet {
				m = skipFinal
			}
			if v, ok := m[o.key]; ok {
				res = v
			} else {
				res = -1
			}
		case wMapPut, wSkipPut:
			m := mapFinal
			if o.kind == wSkipPut {
				m = skipFinal
			}
			_, had := m[o.key]
			m[o.key] = o.val
			res = b(!had)
		case wMapDel, wSkipDel:
			m := mapFinal
			if o.kind == wSkipDel {
				m = skipFinal
			}
			_, had := m[o.key]
			delete(m, o.key)
			res = b(had)
		case wSkipLen:
			res = int64(len(skipFinal))
		case wMapSnap:
			res = hash(mapFinal)
		case wSkipSnap:
			res = hash(skipFinal)
		}
		results[ref.Thread-1] = append(results[ref.Thread-1], res)
	}
	if len(seen) != len(order) {
		t.Fatalf("order has %d refs, %d distinct", len(order), len(seen))
	}
	total := 0
	for _, s := range scripts {
		total += len(s)
	}
	if len(order) != total {
		t.Fatalf("order covers %d ops, scripts hold %d", len(order), total)
	}
	return results, mapFinal, skipFinal
}

// runWinOnTM builds the structures over a demand-sized reclaiming heap
// on one spec, runs the windowed schedule, and checks the run against
// the replay oracle and the exact leak accounting.
func runWinOnTM(t *testing.T, spec string, seed int64, scripts [][]dsWinOp) {
	t.Helper()
	threads := len(scripts)
	cfg, err := engine.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Register layout: list head at 1, skiplist head block at 8, heap
	// after it, sized by the demand geometry: every scripted put could
	// in principle be live at once (deferred frees park blocks), plus
	// the magazine stock.
	const listHead, skipHead = 1, 8
	heapFirst := skipHead + stmds.SkipHeadRegs
	maxNodes := 0
	for _, s := range scripts {
		maxNodes += len(s)
	}
	magThreads, magCap := 0, 0
	if cfg.Reclaim == "batch" {
		magThreads, magCap = threads, 3 // shallow: park→retire→refill cycles often
	}
	demand := append(stmds.MapDemand(maxNodes), stmds.SkipMapDemand(maxNodes)...)
	regs := heapFirst + stmalloc.RegsForDemand(4, magThreads, magCap, demand)
	tm, err := engine.NewSpec(spec, regs, threads+2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var opts []stmalloc.Option
	opts = append(opts, stmalloc.WithShards(4))
	if cfg.UnsafeFence() {
		opts = append(opts, stmalloc.WithTransactionalFree())
	}
	if magThreads > 0 {
		opts = append(opts, stmalloc.WithMagazines(magThreads, magCap))
	}
	heap, err := stmalloc.New(tm, heapFirst, tm.NumRegs(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	mp := stmds.NewMap(tm, listHead, heap)
	sm := stmds.NewSkipMap(tm, skipHead, threads, heap)

	got, err := RunDS(tm, buildWinOps(mp, sm, heap, scripts), Options{
		Seed:    seed,
		Windows: !isBaseline(spec), // baseline's Begin blocks on the global lock
	})
	if err != nil {
		t.Fatalf("%s: RunDS: %v", spec, err)
	}
	want, mapFinal, skipFinal := replayWinOracle(t, scripts, got.Order)
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
	// End state: both structures must hold exactly the oracle's pairs.
	checkFinal := func(name string, pairs []stmds.KV, model map[int64]int64) {
		if len(pairs) != len(model) {
			t.Fatalf("%s: final %s has %d pairs, oracle %d", spec, name, len(pairs), len(model))
		}
		for i, p := range pairs {
			if i > 0 && pairs[i-1].Key >= p.Key {
				t.Fatalf("%s: final %s snapshot unsorted at %d", spec, name, i)
			}
			if v, ok := model[p.Key]; !ok || v != p.Val {
				t.Fatalf("%s: final %s pair %v diverges from oracle", spec, name, p)
			}
		}
	}
	mpPairs, err := mp.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	smPairs, err := sm.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	checkFinal("map", mpPairs, mapFinal)
	checkFinal("skipmap", smPairs, skipFinal)
	// Exact leak accounting: after Drain the only live blocks are the
	// nodes still linked into the two structures.
	if err := heap.Drain(1); err != nil {
		t.Fatalf("%s: Drain: %v", spec, err)
	}
	if st := heap.Stats(); st.Live != int64(len(mpPairs)+len(smPairs)) {
		t.Fatalf("%s: allocs-frees = %d, live nodes %d", spec, st.Live, len(mpPairs)+len(smPairs))
	}
}

// isBaseline reports whether the spec names the blocking global-lock
// TM, whose Begin holds the lock for the whole transaction: a back op
// inside a window would self-deadlock, so it runs windows-off (the
// fully serial schedule — the discipline's own oracle-side control).
func isBaseline(spec string) bool {
	return len(spec) >= 8 && spec[:8] == "baseline"
}

// TestDifferentialSkipMapWindows: SkipMap/Map churn under windowed
// interleavings on every registry TM × free/batch reclaim must match
// the replay of the pinned serialization order, with exact post-drain
// leak accounting.
func TestDifferentialSkipMapWindows(t *testing.T) {
	seeds := int64(3)
	opsPerThread := 40
	if testing.Short() {
		seeds, opsPerThread = 1, 25
	}
	for _, tmName := range engine.TMs() {
		for _, reclaim := range []string{"+quiesce", "+quiesce+batch"} {
			spec := tmName + reclaim
			t.Run(spec, func(t *testing.T) {
				for seed := int64(1); seed <= seeds; seed++ {
					scripts := dsWinScripts(seed*71, 3, opsPerThread)
					runWinOnTM(t, spec, seed*13+1, scripts)
				}
			})
			for _, fence := range retiredFenceModes {
				spec := tmName + fence + reclaim
				t.Run(spec, func(t *testing.T) { requireRefused(t, spec) })
			}
		}
	}
}
