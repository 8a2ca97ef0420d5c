package stmkv_test

import (
	"errors"
	"sort"
	"testing"

	"safepriv/internal/stmkv"
)

// TestScanPageWalk walks cursors over a store much larger than one page
// and checks the pages reassemble exactly the Scan result set, on every
// TM.
func TestScanPageWalk(t *testing.T) {
	for _, spec := range allSpecs {
		t.Run(spec, func(t *testing.T) {
			s := newStore(t, spec, 4, 256, 3)
			const n = 500
			for k := int64(1); k <= n; k++ {
				if err := s.Put(1, k, k*10); err != nil {
					t.Fatalf("Put(%d): %v", k, err)
				}
			}
			const limit = 64
			var got []stmkv.KV
			cursor := ""
			pages := 0
			for {
				pairs, next, err := s.ScanPage(1, cursor, limit)
				if err != nil {
					t.Fatalf("ScanPage(%q): %v", cursor, err)
				}
				if len(pairs) > limit {
					t.Fatalf("page of %d pairs exceeds limit %d", len(pairs), limit)
				}
				got = append(got, pairs...)
				pages++
				if next == "" {
					break
				}
				cursor = next
			}
			if pages < n/limit {
				t.Fatalf("%d pairs came back in %d pages of limit %d", n, pages, limit)
			}
			if len(got) != n {
				t.Fatalf("paginated scan returned %d pairs, want %d", len(got), n)
			}
			sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
			for i, kv := range got {
				if kv.Key != int64(i+1) || kv.Val != kv.Key*10 {
					t.Fatalf("pair %d = %+v, want {%d %d}", i, kv, i+1, int64(i+1)*10)
				}
			}
			if st := s.Stats(); st.ScanWindows == 0 {
				t.Fatalf("paginated scan recorded no scan windows: %+v", st)
			}
		})
	}
}

// TestScanPageRehashMidScan cuts a cursor, grows the shard under it
// (a rehash rebuilds the table), and resumes: the stale table
// identity must be detected and the shard restarted, so every key
// present for the whole scan appears at least once.
func TestScanPageRehashMidScan(t *testing.T) {
	s := newStore(t, "tl2", 1, 512, 3) // one shard: the cursor always points into it
	for k := int64(1); k <= 40; k++ {
		if err := s.Put(1, k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	pairs, next, err := s.ScanPage(1, "", 8)
	if err != nil {
		t.Fatal(err)
	}
	if next == "" {
		t.Fatalf("40 keys in pages of 8 finished in one page (%d pairs)", len(pairs))
	}
	// Force a rehash of the shard the cursor points into.
	for k := int64(100); k <= 300; k++ {
		if err := s.Put(1, k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[int64]bool)
	for _, kv := range pairs {
		seen[kv.Key] = true
	}
	for next != "" {
		pairs, next, err = s.ScanPage(1, next, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range pairs {
			if kv.Val != kv.Key*10 {
				t.Fatalf("pair %+v breaks the k*10 convention", kv)
			}
			seen[kv.Key] = true
		}
	}
	// The original 40 keys were present for the whole scan: at-least-once
	// delivery must cover every one of them despite the rehash.
	for k := int64(1); k <= 40; k++ {
		if !seen[k] {
			t.Fatalf("key %d present for the whole scan was never returned", k)
		}
	}
}

// TestScanPageBadCursor pins the typed error for garbage cursors.
func TestScanPageBadCursor(t *testing.T) {
	s := newStore(t, "tl2", 2, 64, 2)
	for _, bad := range []string{
		"not base64 ***",
		"aGVsbG8",         // decodes, wrong shape
		"OTk5LjAuMC4w",    // "999.0.0.0": shard out of range
		"MS4yLjMuNGp1bms", // "1.2.3.4junk": trailing bytes
	} {
		if _, _, err := s.ScanPage(1, bad, 10); !errors.Is(err, stmkv.ErrBadCursor) {
			t.Fatalf("ScanPage(%q) error = %v, want ErrBadCursor", bad, err)
		}
	}
	// limit <= 0 falls back to the default page size rather than erroring.
	if err := s.Put(1, 7, 70); err != nil {
		t.Fatal(err)
	}
	pairs, next, err := s.ScanPage(1, "", 0)
	if err != nil || next != "" || len(pairs) != 1 {
		t.Fatalf("ScanPage default limit = %v pairs, next %q, err %v", pairs, next, err)
	}
}
