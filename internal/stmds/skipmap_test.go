// Property and race suites for the ordered maps, in an external
// package so they can drive every registered TM through internal/engine
// (the in-package tests construct TMs directly to stay cycle-free).
package stmds_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"safepriv/internal/engine"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
)

// Register layout shared by the suites: skiplist head block at
// [skipHead, skipHead+SkipHeadRegs), list-map head at listHead, arena
// from arenaAt.
const (
	listHead = 1
	skipHead = 8
	arenaAt  = 8 + stmds.SkipHeadRegs
)

// demandHeap sizes a TM + reclaiming heap from the multi-size-class
// demand profiles — RegsForDemand's integration test rides along: a
// heap sized by the profile must serve the scripts that stay inside it.
func demandHeap(t *testing.T, spec string, threads, nodes int, opts ...stmalloc.Option) (*stmalloc.Heap, *stmds.SkipMap, *stmds.Map) {
	t.Helper()
	demand := append(stmds.MapDemand(nodes), stmds.SkipMapDemand(nodes)...)
	regs := arenaAt + stmalloc.RegsForDemand(4, threads, 3, demand)
	tm := engine.MustNewSpec(spec, regs, threads+2, nil)
	opts = append([]stmalloc.Option{stmalloc.WithShards(4)}, opts...)
	heap, err := stmalloc.New(tm, arenaAt, tm.NumRegs(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return heap, stmds.NewSkipMap(tm, skipHead, threads, heap), stmds.NewMap(tm, listHead, heap)
}

// TestSkipMapLevelDeterminism pins the level generator's contract: the
// i-th draw for a given thread is identical across SkipMap instances
// (and hence across TMs and runs), every draw lands in
// [1, SkipMaxLevel], out-of-range thread ids fall back to stream 0,
// and the distribution is roughly geometric(1/2) — about half the
// draws are height 1.
func TestSkipMapLevelDeterminism(t *testing.T) {
	a := stmds.NewSkipMap(nil, skipHead, 4, nil)
	b := stmds.NewSkipMap(nil, skipHead, 4, nil)
	const draws = 4096
	ones := 0
	for th := 0; th <= 4; th++ {
		for i := 0; i < draws; i++ {
			ha, hb := a.Level(th), b.Level(th)
			if ha != hb {
				t.Fatalf("thread %d draw %d: %d vs %d — generator not deterministic", th, i, ha, hb)
			}
			if ha < 1 || ha > stmds.SkipMaxLevel {
				t.Fatalf("thread %d draw %d: height %d out of [1,%d]", th, i, ha, stmds.SkipMaxLevel)
			}
			if th == 1 && ha == 1 {
				ones++
			}
		}
	}
	if ones < draws*4/10 || ones > draws*6/10 {
		t.Fatalf("height-1 share %d/%d is not ~1/2: generator is not geometric", ones, draws)
	}
	// Streams must differ between threads (splitmix64 seeds them apart).
	same := 0
	for i := 0; i < 64; i++ {
		if a.Level(1) == a.Level(2) {
			same++
		}
	}
	if same == 64 {
		t.Fatal("threads 1 and 2 share a level stream")
	}
	// Out-of-range ids draw from stream 0 rather than panicking.
	fresh := stmds.NewSkipMap(nil, skipHead, 2, nil)
	want := stmds.NewSkipMap(nil, skipHead, 2, nil).Level(0)
	if got := fresh.Level(99); got != want {
		t.Fatalf("out-of-range thread drew %d, want stream-0 draw %d", got, want)
	}
}

// TestTowerRegsClassLadder pins the height → stmalloc-block-class
// mapping the demand profiles and the multi-size-class claim rest on:
// heights 1, 2–5, 6–13, 14–16 round to 4-, 8-, 16- and 32-register
// blocks respectively.
func TestTowerRegsClassLadder(t *testing.T) {
	for h := 1; h <= stmds.SkipMaxLevel; h++ {
		want := 4
		switch {
		case h > 13:
			want = 32
		case h > 5:
			want = 16
		case h > 1:
			want = 8
		}
		if got := stmalloc.BlockRegs(stmds.TowerRegs(h)); got != want {
			t.Fatalf("height %d: TowerRegs=%d rounds to %d-reg block, want %d",
				h, stmds.TowerRegs(h), got, want)
		}
	}
}

// TestOrderedMapEquivalence is the property suite: on every registered
// TM, both ordered-map implementations run the same random script
// against a map[int64]int64 oracle — every per-op result (value,
// presence, added/removed) must match the oracle, the two
// implementations must agree with each other through snapshots, and
// after a drain the heap's live count must equal the resident pairs
// exactly (a double free or a leak breaks the equality).
func TestOrderedMapEquivalence(t *testing.T) {
	ops := 1200
	if testing.Short() {
		ops = 400
	}
	for _, tmName := range engine.TMs() {
		t.Run(tmName, func(t *testing.T) {
			heap, sm, lm := demandHeap(t, tmName, 1, 200)
			oracle := map[int64]int64{}
			r := rand.New(rand.NewSource(41))
			for i := 0; i < ops; i++ {
				k := 1 + r.Int63n(120)
				switch d := r.Intn(100); {
				case d < 40:
					v := 1 + r.Int63n(1<<20)
					_, had := oracle[k]
					sa, err := sm.Put(1, k, v)
					if err != nil {
						t.Fatal(err)
					}
					la, err := lm.Put(1, k, v)
					if err != nil {
						t.Fatal(err)
					}
					if sa == had || la == had {
						t.Fatalf("op %d Put(%d): skip added=%v list added=%v oracle had=%v", i, k, sa, la, had)
					}
					oracle[k] = v
				case d < 75:
					_, had := oracle[k]
					sr, err := sm.Delete(1, k)
					if err != nil {
						t.Fatal(err)
					}
					lr, err := lm.Delete(1, k)
					if err != nil {
						t.Fatal(err)
					}
					if sr != had || lr != had {
						t.Fatalf("op %d Delete(%d): skip=%v list=%v oracle had=%v", i, k, sr, lr, had)
					}
					delete(oracle, k)
				case d < 95:
					want, had := oracle[k]
					sv, sok, err := sm.Get(1, k)
					if err != nil {
						t.Fatal(err)
					}
					lv, lok, err := lm.Get(1, k)
					if err != nil {
						t.Fatal(err)
					}
					if sok != had || lok != had || (had && (sv != want || lv != want)) {
						t.Fatalf("op %d Get(%d): skip=(%d,%v) list=(%d,%v) oracle=(%d,%v)",
							i, k, sv, sok, lv, lok, want, had)
					}
				default:
					sn, err := sm.Len(1)
					if err != nil {
						t.Fatal(err)
					}
					ln, err := lm.Len(1)
					if err != nil {
						t.Fatal(err)
					}
					if sn != len(oracle) || ln != len(oracle) {
						t.Fatalf("op %d Len: skip=%d list=%d oracle=%d", i, sn, ln, len(oracle))
					}
				}
			}
			ssnap, err := sm.Snapshot(1)
			if err != nil {
				t.Fatal(err)
			}
			lsnap, err := lm.Snapshot(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(ssnap) != len(oracle) || len(lsnap) != len(oracle) {
				t.Fatalf("final sizes: skip=%d list=%d oracle=%d", len(ssnap), len(lsnap), len(oracle))
			}
			for i := range ssnap {
				if ssnap[i] != lsnap[i] {
					t.Fatalf("snapshot divergence at %d: skip=%v list=%v", i, ssnap[i], lsnap[i])
				}
				if i > 0 && ssnap[i-1].Key >= ssnap[i].Key {
					t.Fatalf("snapshot unsorted at %d: %v", i, ssnap)
				}
				if oracle[ssnap[i].Key] != ssnap[i].Val {
					t.Fatalf("pair %d=%d, oracle %d", ssnap[i].Key, ssnap[i].Val, oracle[ssnap[i].Key])
				}
			}
			if err := heap.Drain(1); err != nil {
				t.Fatal(err)
			}
			// Each map holds len(oracle) resident nodes.
			if st := heap.Stats(); st.Live != int64(2*len(oracle)) {
				t.Fatalf("leak accounting: live %d blocks, want %d (2 maps × %d pairs; stats %+v)",
					st.Live, 2*len(oracle), len(oracle), st)
			}
		})
	}
}

// TestSkipMapSnapshotDuringChurn is the -race suite: churn workers
// put/delete with the k↦k*7+1 value convention while a reader thread
// takes full snapshots — of the skiplist, and of the sorted-list Map
// under the same traffic. Every snapshot must be sorted, duplicate-free
// and value-consistent — a torn read of a half-linked tower or of a
// magazine-recycled block would surface here (and under -race, as a
// data race). Runs with magazines: batch retires run on the churners'
// goroutines while traversals are in flight, which is exactly the
// reclamation race the windowed differential suite schedules
// deterministically and this test leaves wild.
func TestSkipMapSnapshotDuringChurn(t *testing.T) {
	const threads = 4
	ops := 800
	if testing.Short() {
		ops = 250
	}
	for _, impl := range []string{"skip", "list"} {
		t.Run(impl, func(t *testing.T) {
			heap, sm, lm := demandHeap(t, "tl2", threads+1, 300,
				stmalloc.WithMagazines(threads+1, 3))
			var m stmds.OrderedMap = sm
			if impl == "list" {
				m = lm
			}
			var stop atomic.Bool
			errs := make(chan error, threads+1)
			var churners sync.WaitGroup
			for th := 1; th <= threads; th++ {
				churners.Add(1)
				go func(th int) {
					defer churners.Done()
					r := rand.New(rand.NewSource(int64(th) * 977))
					for i := 0; i < ops; i++ {
						k := 1 + r.Int63n(200)
						var err error
						if r.Intn(2) == 0 {
							_, err = m.Put(th, k, k*7+1)
						} else {
							_, err = m.Delete(th, k)
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}(th)
			}
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				th := threads + 1
				for !stop.Load() {
					snap, err := m.Snapshot(th)
					if err != nil {
						errs <- err
						return
					}
					for i, kv := range snap {
						if i > 0 && snap[i-1].Key >= kv.Key {
							errs <- fmt.Errorf("snapshot unsorted/duplicated at key %d", kv.Key)
							return
						}
						if kv.Val != kv.Key*7+1 {
							errs <- fmt.Errorf("snapshot value %d for key %d breaks the k*7+1 convention", kv.Val, kv.Key)
							return
						}
					}
				}
			}()
			churners.Wait()
			stop.Store(true)
			<-readerDone
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := heap.Drain(1); err != nil {
				t.Fatal(err)
			}
			snap, err := m.Snapshot(1)
			if err != nil {
				t.Fatal(err)
			}
			if st := heap.Stats(); st.Live != int64(len(snap)) {
				t.Fatalf("leak accounting after churn: live %d blocks, resident pairs %d (stats %+v)",
					st.Live, len(snap), st)
			}
		})
	}
}
