package stmkv_test

import (
	"testing"

	"safepriv/internal/core/coretest"
	"safepriv/internal/engine"
	"safepriv/internal/stmkv"
)

// budgetStore is a 16×4096 tl2 store holding keys 1..n, running over a
// WindowProbe.
func budgetStore(t *testing.T, n int64) (*stmkv.Store, *coretest.WindowProbe) {
	t.Helper()
	const shards, slots = 16, 4096
	tm, err := engine.NewSpec("tl2", stmkv.RegsNeeded(shards, slots), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe := coretest.NewWindowProbe(tm)
	s, err := stmkv.New(probe, shards, slots)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= n; k++ {
		if err := s.Put(1, k, k*10); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	return s, probe
}

// TestScanPageAllocs pins what one 256-pair page allocates: the page,
// the publish gate's fresh channel with the pointer the gate swaps in,
// and the fmt/base64 cursor codec's parse and encode (the other 14).
func TestScanPageAllocs(t *testing.T) {
	if coretest.RaceEnabled {
		t.Skip("-race: sync.Pool drops Puts, so the fence allocates")
	}
	s, _ := budgetStore(t, 20_000)
	_, cursor, err := s.ScanPage(1, "", 256)
	if err != nil || cursor == "" {
		t.Fatalf("first page: cursor %q, err %v", cursor, err)
	}
	n := testing.AllocsPerRun(50, func() {
		if _, _, err := s.ScanPage(1, cursor, 256); err != nil {
			t.Fatal(err)
		}
	})
	if n > 17 {
		t.Fatalf("ScanPage(256) allocates %v times a page, want <= 17", n)
	}
	t.Logf("ScanPage(256): %v allocations a page", n)
}

// TestScanPageWindowsAllocateNothing: from a window's fence to its
// publish, a paginated walk of the whole store allocates nothing.
func TestScanPageWindowsAllocateNothing(t *testing.T) {
	if coretest.RaceEnabled {
		t.Skip("-race: sync.Pool drops Puts, so the fence allocates")
	}
	const n = 5_000
	s, probe := budgetStore(t, n)
	probe.Reset()
	got, cursor := 0, ""
	for {
		pairs, next, err := s.ScanPage(1, cursor, 256)
		if err != nil {
			t.Fatal(err)
		}
		got += len(pairs)
		if cursor = next; cursor == "" {
			break
		}
	}
	if got != n {
		t.Fatalf("walk returned %d pairs, want %d", got, n)
	}
	if probe.Windows < 16 {
		t.Fatalf("walk closed %d windows, want one per shard at least", probe.Windows)
	}
	if probe.Mallocs != 0 {
		t.Fatalf("%d allocations inside %d scan windows, want 0", probe.Mallocs, probe.Windows)
	}
}
