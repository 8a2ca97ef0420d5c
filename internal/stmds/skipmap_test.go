// Property and race suites for the ordered maps, in an external
// package so they can drive every registered TM through internal/engine
// (the in-package tests construct TMs directly to stay cycle-free).
package stmds_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"safepriv/internal/engine"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
)

// Register layout shared by the suites: hash-map head at mapHead,
// skiplist head block at [skipHead, skipHead+SkipHeadRegs), arena from
// arenaAt.
const (
	mapHead  = 1
	skipHead = 8
	arenaAt  = 8 + stmds.SkipHeadRegs
)

// demandHeap sizes a TM + reclaiming heap from the multi-size-class
// demand profiles — RegsForDemand's integration test rides along: a
// heap sized by the profile must serve the scripts that stay inside it.
// Both structures share the heap; a HashMap allocates nothing until its
// first Put.
func demandHeap(t *testing.T, spec string, threads, nodes int, opts ...stmalloc.Option) (*stmalloc.Heap, *stmds.SkipMap, *stmds.HashMap) {
	t.Helper()
	demand := append(stmds.HashMapDemand(nodes), stmds.SkipMapDemand(nodes)...)
	regs := arenaAt + stmalloc.RegsForDemand(4, threads, 3, demand)
	tm := engine.MustNewSpec(spec, regs, threads+2, nil)
	opts = append([]stmalloc.Option{stmalloc.WithShards(4)}, opts...)
	heap, err := stmalloc.New(tm, arenaAt, tm.NumRegs(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return heap, stmds.NewSkipMap(tm, skipHead, threads, heap), stmds.NewHashMap(tm, mapHead, heap)
}

// TestSkipMapLevelDeterminism pins the level generator's contract: the
// i-th draw for a given thread is identical across fresh streams (and
// hence across SkipMaps, TMs and runs), every draw lands in
// [1, SkipMaxLevel], out-of-range thread ids fall back to stream 0,
// and the distribution is geometric(1/4): about 3/4 of the draws are
// height 1 and 3/16 height 2, each within four binomial standard
// deviations.
func TestSkipMapLevelDeterminism(t *testing.T) {
	a, b := stmds.LevelStream(4), stmds.LevelStream(4)
	const draws = 4096
	var heights [stmds.SkipMaxLevel + 1]int // thread 1's draws per height
	for th := 0; th <= 4; th++ {
		for i := 0; i < draws; i++ {
			ha, hb := a(th), b(th)
			if ha != hb {
				t.Fatalf("thread %d draw %d: %d vs %d — generator not deterministic", th, i, ha, hb)
			}
			if ha < 1 || ha > stmds.SkipMaxLevel {
				t.Fatalf("thread %d draw %d: height %d out of [1,%d]", th, i, ha, stmds.SkipMaxLevel)
			}
			if th == 1 {
				heights[ha]++
			}
		}
	}
	for _, share := range []struct {
		h int
		p float64
	}{{1, 3.0 / 4}, {2, 3.0 / 16}} {
		mean := draws * share.p
		if dev := math.Abs(float64(heights[share.h]) - mean); dev > 4*math.Sqrt(mean*(1-share.p)) {
			t.Fatalf("height-%d share %d/%d is not ~%.4f: generator is not geometric(1/4)", share.h, heights[share.h], draws, share.p)
		}
	}
	// Streams must differ between threads (splitmix64 seeds them apart).
	same := 0
	for i := 0; i < 64; i++ {
		if a(1) == a(2) {
			same++
		}
	}
	if same == 64 {
		t.Fatal("threads 1 and 2 share a level stream")
	}
	// Out-of-range ids draw from stream 0 rather than panicking.
	fresh := stmds.LevelStream(2)
	want := stmds.LevelStream(2)(0)
	if got := fresh(99); got != want {
		t.Fatalf("out-of-range thread drew %d, want stream-0 draw %d", got, want)
	}
}

// TestTowerRegsClassLadder pins the height → stmalloc-block-class
// mapping the demand profiles and the multi-size-class claim rest on:
// heights 1–6 take exactly their 3..8 registers and 7–8 round to
// 16-register blocks.
func TestTowerRegsClassLadder(t *testing.T) {
	for h := 1; h <= stmds.SkipMaxLevel; h++ {
		want := 2 + h
		if h > 6 {
			want = 16
		}
		if got := stmalloc.BlockRegs(stmds.TowerRegs(h)); got != want {
			t.Fatalf("height %d: TowerRegs=%d rounds to %d-reg block, want %d",
				h, stmds.TowerRegs(h), got, want)
		}
	}
}

// TestOrderedMapEquivalence is the property suite: on every registered
// TM, both OrderedMap implementations run the same random script
// against a map[int64]int64 oracle — every per-op result (value,
// presence, added/removed) must match the oracle, the two
// implementations must agree with each other through snapshots, and
// after a drain the heap's live count must equal the resident pairs
// plus the hash map's one bucket array exactly (a double free or a
// leak breaks the equality).
func TestOrderedMapEquivalence(t *testing.T) {
	ops := 1200
	if testing.Short() {
		ops = 400
	}
	for _, tmName := range engine.TMs() {
		t.Run(tmName, func(t *testing.T) {
			heap, sm, hm := demandHeap(t, tmName, 1, 200)
			maps := []struct {
				name string
				m    stmds.OrderedMap
			}{{"skip", sm}, {"hash", hm}}
			oracle := map[int64]int64{}
			r := rand.New(rand.NewSource(41))
			for i := 0; i < ops; i++ {
				k := 1 + r.Int63n(120)
				d := r.Intn(100)
				v := 1 + r.Int63n(1<<20)
				want, had := oracle[k]
				for _, x := range maps {
					switch {
					case d < 40:
						added, err := x.m.Put(1, k, v)
						if err != nil {
							t.Fatal(err)
						}
						if added == had {
							t.Fatalf("op %d %s Put(%d): added=%v oracle had=%v", i, x.name, k, added, had)
						}
					case d < 75:
						removed, err := x.m.Delete(1, k)
						if err != nil {
							t.Fatal(err)
						}
						if removed != had {
							t.Fatalf("op %d %s Delete(%d): removed=%v oracle had=%v", i, x.name, k, removed, had)
						}
					case d < 95:
						got, ok, err := x.m.Get(1, k)
						if err != nil {
							t.Fatal(err)
						}
						if ok != had || (had && got != want) {
							t.Fatalf("op %d %s Get(%d) = (%d,%v), oracle (%d,%v)", i, x.name, k, got, ok, want, had)
						}
					default:
						n, err := x.m.Len(1)
						if err != nil {
							t.Fatal(err)
						}
						if n != len(oracle) {
							t.Fatalf("op %d %s Len = %d, oracle %d", i, x.name, n, len(oracle))
						}
					}
				}
				switch {
				case d < 40:
					oracle[k] = v
				case d < 75:
					delete(oracle, k)
				}
			}
			ssnap, err := sm.Snapshot(1)
			if err != nil {
				t.Fatal(err)
			}
			hsnap, err := hm.Snapshot(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(ssnap) != len(oracle) || len(hsnap) != len(oracle) {
				t.Fatalf("final sizes: skip=%d hash=%d oracle=%d", len(ssnap), len(hsnap), len(oracle))
			}
			for i := range ssnap {
				if ssnap[i] != hsnap[i] {
					t.Fatalf("snapshot divergence at %d: skip=%v hash=%v", i, ssnap[i], hsnap[i])
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
			// Each map holds len(oracle) resident nodes; the hash map
			// also holds its bucket array.
			if st := heap.Stats(); st.Live != int64(2*len(oracle)+1) {
				t.Fatalf("leak accounting: live %d blocks, want %d (2 maps × %d pairs + 1 bucket array; stats %+v)",
					st.Live, 2*len(oracle)+1, len(oracle), st)
			}
		})
	}
}

// TestSkipMapSnapshotDuringChurn is the -race suite: churn workers
// put/delete with the k↦k*7+1 value convention while a reader thread
// takes full snapshots — of the skiplist, and of the HashMap under the
// same traffic. Every snapshot must be sorted, duplicate-free
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
	for _, impl := range []string{"skip", "hash"} {
		t.Run(impl, func(t *testing.T) {
			heap, sm, hm := demandHeap(t, "tl2", threads+1, 300,
				stmalloc.WithMagazines(threads+1, 3))
			var m stmds.OrderedMap = sm
			resident := 0 // blocks a map holds besides its nodes
			if impl == "hash" {
				m, resident = hm, 1 // the bucket array
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
			if st := heap.Stats(); st.Live != int64(len(snap)+resident) {
				t.Fatalf("leak accounting after churn: live %d blocks, resident pairs %d + %d (stats %+v)",
					st.Live, len(snap), resident, st)
			}
		})
	}
}
