package stmds_test

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"testing"

	"safepriv/internal/engine"
	"safepriv/internal/region"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
)

// TestSkipMapHintBoundary runs a SkipMap against a Go map with keys at
// and around the clamp of a link's key hint: keys strictly inside
// ±(2³¹−1) compare by hint alone, and every other key falls back to
// its key register. Each row mixes its keys with small ones, so
// descents compare exact hints and clamped hints on one path, and
// several rows hold neighbours that share one clamped hint. The script
// puts every key, updates them, deletes every other one and puts some
// back, and after each phase checks Get on every key and on its
// neighbours, Snapshot, Len, and RangeWindows over the whole key space
// and over each key's neighbourhood.
func TestSkipMapHintBoundary(t *testing.T) {
	const c = stmds.HintMax
	small := []int64{-3, -1, 1, 2, 100}
	tests := []struct {
		name string
		keys []int64
	}{
		{"zero", []int64{0}},
		{"inside the clamp", []int64{c - 1, -(c - 1)}},
		{"at the clamp", []int64{c, -c}},
		{"past the clamp", []int64{c + 1, -(c + 1)}},
		{"2^40", []int64{1 << 40, -1 << 40}},
		{"int64 extremes", []int64{math.MaxInt64, math.MinInt64}},
		{"one clamped hint above", []int64{c - 1, c, c + 1, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}},
		{"one clamped hint below", []int64{-(c - 1), -c, -(c + 1), -1 << 40, math.MinInt64 + 1, math.MinInt64}},
		{"every boundary", []int64{0, c - 1, -(c - 1), c, -c, c + 1, -(c + 1),
			1 << 40, -1 << 40, math.MaxInt64, math.MinInt64}},
	}
	for _, spec := range []string{"tl2", "norec", "wtstm"} {
		for _, tt := range tests {
			t.Run(spec+"/"+tt.name, func(t *testing.T) {
				keys := append(slices.Clone(small), tt.keys...)
				_, sm, _ := demandHeap(t, spec, 1, len(keys))
				oracle := map[int64]int64{}
				check := func(phase string) {
					t.Helper()
					checkAgainstOracle(t, sm, oracle, keys, phase)
				}
				for _, k := range keys {
					added, err := sm.Put(1, k, k^7)
					if err != nil || !added {
						t.Fatalf("Put(%d) = %v, %v, want added", k, added, err)
					}
					oracle[k] = k ^ 7
				}
				check("after inserts")
				for _, k := range keys {
					if added, err := sm.Put(1, k, ^k); err != nil || added {
						t.Fatalf("update Put(%d) = %v, %v, want not added", k, added, err)
					}
					oracle[k] = ^k
				}
				check("after updates")
				for i, k := range keys {
					if i%2 == 1 {
						continue
					}
					if removed, err := sm.Delete(1, k); err != nil || !removed {
						t.Fatalf("Delete(%d) = %v, %v, want removed", k, removed, err)
					}
					delete(oracle, k)
					if removed, err := sm.Delete(1, k); err != nil || removed {
						t.Fatalf("second Delete(%d) = %v, %v, want not removed", k, removed, err)
					}
				}
				check("after deletes")
				for i, k := range keys {
					if i%4 != 0 {
						continue
					}
					if added, err := sm.Put(1, k, k); err != nil || !added {
						t.Fatalf("re-Put(%d) = %v, %v, want added", k, added, err)
					}
					oracle[k] = k
				}
				check("after re-inserts")
			})
		}
	}
}

// checkAgainstOracle compares sm with oracle: Get on every key and its
// two neighbours, Snapshot, Len, and windowed scans over the whole key
// space (with and without a span cap) and over [k-1, k+1] for each key.
func checkAgainstOracle(t *testing.T, sm *stmds.SkipMap, oracle map[int64]int64, keys []int64, phase string) {
	t.Helper()
	var want []stmds.KV
	for k, v := range oracle {
		want = append(want, stmds.KV{Key: k, Val: v})
	}
	slices.SortFunc(want, func(a, b stmds.KV) int { return cmp.Compare(a.Key, b.Key) })
	for _, k := range keys {
		lo, hi := max(k, math.MinInt64+1)-1, min(k, math.MaxInt64-1)+1
		for _, q := range []int64{lo, k, hi} {
			v, ok, err := sm.Get(1, q)
			if err != nil {
				t.Fatal(err)
			}
			if wv, wok := oracle[q]; ok != wok || v != wv {
				t.Fatalf("%s: Get(%d) = %d, %v, want %d, %v", phase, q, v, ok, wv, wok)
			}
		}
		got := scanAll(t, sm, lo, hi, 0)
		var near []stmds.KV
		for _, kv := range want {
			if kv.Key >= lo && kv.Key <= hi {
				near = append(near, kv)
			}
		}
		if !slices.Equal(got, near) {
			t.Fatalf("%s: RangeWindows(%d, %d) = %v, want %v", phase, lo, hi, got, near)
		}
	}
	snap, err := sm.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(snap, want) {
		t.Fatalf("%s: Snapshot = %v, want %v", phase, snap, want)
	}
	if n, err := sm.Len(1); err != nil || n != len(want) {
		t.Fatalf("%s: Len = %d, %v, want %d", phase, n, err, len(want))
	}
	for _, span := range []int64{0, 1 << 20} {
		if got := scanAll(t, sm, math.MinInt64, math.MaxInt64, span); !slices.Equal(got, want) {
			t.Fatalf("%s: RangeWindows over every key, span %d = %v, want %v", phase, span, got, want)
		}
	}
}

// scanAll collects a windowed scan of [from, to].
func scanAll(t *testing.T, sm *stmds.SkipMap, from, to, span int64) []stmds.KV {
	t.Helper()
	var got []stmds.KV
	it := sm.RangeWindows(from, to, span)
	for more := !it.Done(); more; {
		pairs, m, err := it.Next(1)
		if err != nil {
			t.Fatal(err)
		}
		got, more = append(got, pairs...), m
	}
	return got
}

// TestPutTxWindowCheckClampedHints is TestPutTxWindowCheck with
// predecessors whose links carry a clamped hint: the window check must
// see the predecessor's exact key, which the descent read from its key
// register. Below −(2³¹−1) a hint is larger than the key it stands for,
// so a check that trusted it would admit a splice after a node inside
// the window; above 2³¹−1 it is smaller, so the check would refuse a
// splice past the window.
func TestPutTxWindowCheckClampedHints(t *testing.T) {
	const c = stmds.HintMax
	tests := []struct {
		name    string
		keys    []int64
		window  region.Window
		key     int64
		refused bool
	}{
		{"splice after a clamped predecessor in the window", []int64{10, -c - 150, -c - 50},
			region.Window{Lo: -c - 200, Hi: -c - 100}, -c - 140, true},
		{"splice after a clamped predecessor past the window", []int64{10, c + 300, c + 400},
			region.Window{Lo: c + 100, Hi: c + 200}, c + 310, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			regs := arenaAt + stmalloc.RegsForDemand(4, 1, 3, stmds.SkipMapDemand(16))
			tm := engine.MustNewSpec("tl2", regs, 2, nil)
			heap, err := stmalloc.New(tm, arenaAt, tm.NumRegs(), stmalloc.WithShards(4))
			if err != nil {
				t.Fatal(err)
			}
			sm := stmds.NewSkipMap(tm, skipHead, 1, heap)
			for _, k := range tt.keys {
				if _, err := sm.Put(1, k, k); err != nil {
					t.Fatal(err)
				}
			}
			tm.Store(1, skipHead+stmds.SkipMaxLevel, region.ReadPrivate)
			tm.Store(1, skipHead+stmds.SkipMaxLevel+1, tt.window.Lo)
			tm.Store(1, skipHead+stmds.SkipMaxLevel+2, tt.window.Hi)
			tx := tm.Begin(1)
			_, err = sm.PutTx(tx, 1, tt.key, 1, 1)
			if tx.Live() {
				tx.Abort()
			}
			switch {
			case tt.refused && !errors.Is(err, region.ErrPrivate):
				t.Fatalf("PutTx(%d) = %v, want region.ErrPrivate", tt.key, err)
			case !tt.refused && err != nil:
				t.Fatalf("PutTx(%d) = %v, want it to pass", tt.key, err)
			}
		})
	}
}
