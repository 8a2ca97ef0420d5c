package kvserve_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"testing"

	"safepriv/internal/kvserve"
	"safepriv/internal/stmkv"
)

// TestScanPaginated walks cursors over a store much larger than one
// page: every page is bounded by the limit (O(limit) server buffering),
// the pages reassemble the full store, and the from/to filter works in
// both paginated and streaming mode.
func TestScanPaginated(t *testing.T) {
	_, ts := newTestServer(t, kvserve.Config{Spec: "tl2", Shards: 4, Slots: 256, Threads: 4})
	const n = 300
	for k := 1; k <= n; k++ {
		if st, _ := do(t, http.MethodPut, fmt.Sprintf("%s/kv/%d", ts.URL, k), fmt.Sprint(k*10)); st != http.StatusNoContent {
			t.Fatalf("PUT %d failed: %d", k, st)
		}
	}

	const limit = 50
	seen := make(map[int64]int64)
	cursor := ""
	pages := 0
	for {
		u := fmt.Sprintf("%s/scan?limit=%d&cursor=%s", ts.URL, limit, url.QueryEscape(cursor))
		st, body := do(t, http.MethodGet, u, "")
		if st != http.StatusOK {
			t.Fatalf("paged scan = %d (%s)", st, body)
		}
		var page kvserve.ScanPageReply
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			t.Fatalf("page JSON: %v (%s)", err, body)
		}
		if len(page.Pairs) > limit {
			t.Fatalf("page of %d pairs exceeds limit %d", len(page.Pairs), limit)
		}
		for _, kv := range page.Pairs {
			seen[kv.Key] = kv.Val
		}
		pages++
		if !page.More {
			if page.Cursor != "" {
				t.Fatalf("final page carries cursor %q", page.Cursor)
			}
			break
		}
		cursor = page.Cursor
	}
	if pages < n/limit {
		t.Fatalf("%d keys came back in %d pages of limit %d", n, pages, limit)
	}
	if len(seen) != n {
		t.Fatalf("paginated scan returned %d distinct keys, want %d", len(seen), n)
	}
	for k, v := range seen {
		if v != k*10 {
			t.Fatalf("key %d has value %d, want %d", k, v, k*10)
		}
	}

	// from/to filter, paginated: only keys in [100, 120] survive.
	var got []int64
	cursor = ""
	for {
		u := fmt.Sprintf("%s/scan?from=100&to=120&limit=%d&cursor=%s", ts.URL, limit, url.QueryEscape(cursor))
		st, body := do(t, http.MethodGet, u, "")
		if st != http.StatusOK {
			t.Fatalf("filtered scan = %d (%s)", st, body)
		}
		var page kvserve.ScanPageReply
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			t.Fatalf("page JSON: %v", err)
		}
		for _, kv := range page.Pairs {
			got = append(got, kv.Key)
		}
		if !page.More {
			break
		}
		cursor = page.Cursor
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 21 || got[0] != 100 || got[20] != 120 {
		t.Fatalf("filtered scan keys = %v, want 100..120", got)
	}

	// from/to filter, streaming.
	st, body := do(t, http.MethodGet, ts.URL+"/scan?from=100&to=120", "")
	if st != http.StatusOK {
		t.Fatalf("streamed filtered scan = %d", st)
	}
	var kvs []struct {
		Key int64 `json:"key"`
		Val int64 `json:"val"`
	}
	if err := json.Unmarshal([]byte(body), &kvs); err != nil {
		t.Fatalf("stream JSON: %v (%s)", err, body)
	}
	if len(kvs) != 21 {
		t.Fatalf("streamed filtered scan returned %d pairs, want 21", len(kvs))
	}

	// Malformed inputs are 400s, not 500s.
	for _, q := range []string{"cursor=%2A%2A%2A", "limit=-1", "limit=x", "from=x", "to=x"} {
		if st, body := do(t, http.MethodGet, ts.URL+"/scan?"+q, ""); st != http.StatusBadRequest {
			t.Fatalf("scan?%s = %d (%s), want 400", q, st, body)
		}
	}
}

// TestScanHugeLimit: /scan?limit= has no upper bound, and the store
// makes room for a shard's pairs before it privatizes the shard. The
// room is clamped to one shard's slots, so a limit of 10⁹ returns every
// pair from a buffer of about one shard, even on a large store that is
// nearly empty (16×4096 slots would be 1 MiB of pairs).
func TestScanHugeLimit(t *testing.T) {
	for _, tc := range []struct {
		shards, slots int
		maxBytes      uint64
	}{
		{2, 64, 64 << 10},
		{16, 4096, 256 << 10},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.shards, tc.slots), func(t *testing.T) {
			srv, err := kvserve.New(kvserve.Config{Spec: "tl2", Shards: tc.shards, Slots: tc.slots, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				if err := srv.Drain(); err != nil {
					t.Errorf("cleanup Drain: %v", err)
				}
			})
			h := srv.Handler()
			const n = 50
			for k := 1; k <= n; k++ {
				req := httptest.NewRequest(http.MethodPut, fmt.Sprintf("/kv/%d", k), strings.NewReader(fmt.Sprint(k*10)))
				rec := httptest.NewRecorder()
				if h.ServeHTTP(rec, req); rec.Code != http.StatusNoContent {
					t.Fatalf("PUT %d = %d", k, rec.Code)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/scan?limit=1000000000", nil))
			runtime.ReadMemStats(&after)
			if rec.Code != http.StatusOK {
				t.Fatalf("scan?limit=1e9 = %d (%s)", rec.Code, rec.Body)
			}
			var page kvserve.ScanPageReply
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
				t.Fatalf("page JSON: %v", err)
			}
			if len(page.Pairs) != n || page.More {
				t.Fatalf("scan?limit=1e9 returned %d pairs (more %v), want all %d", len(page.Pairs), page.More, n)
			}
			if bytes := after.TotalAlloc - before.TotalAlloc; bytes > tc.maxBytes {
				t.Fatalf("scan?limit=1e9 allocated %d bytes, want <= %d", bytes, tc.maxBytes)
			}
		})
	}
}

// failingScanner backs the injected-error regression tests: it serves
// `good` pages of one pair each, then fails.
type failingScanner struct {
	good  int
	calls int
}

var errInjected = errors.New("injected store failure")

func (f *failingScanner) ScanPage(th int, cursor string, limit int) ([]stmkv.KV, string, error) {
	f.calls++
	if f.calls > f.good {
		return nil, "", errInjected
	}
	return []stmkv.KV{{Key: int64(f.calls), Val: int64(f.calls) * 10}}, "more", nil
}

// TestScanInjectedErrorStatus pins the satellite bugfix: a store
// failure BEFORE anything was written must surface as an explicit error
// status (500), in both streaming and paginated mode — not as a
// committed 200 with a broken body.
func TestScanInjectedErrorStatus(t *testing.T) {
	srv, ts := newTestServer(t, kvserve.Config{Spec: "tl2", Shards: 2, Slots: 64, Threads: 2})
	old := srv.SetScanSource(&failingScanner{good: 0})
	defer srv.SetScanSource(old)
	if st, body := do(t, http.MethodGet, ts.URL+"/scan", ""); st != http.StatusInternalServerError {
		t.Fatalf("streamed scan with failing store = %d (%s), want 500", st, body)
	}
	srv.SetScanSource(&failingScanner{good: 0})
	if st, body := do(t, http.MethodGet, ts.URL+"/scan?limit=10", ""); st != http.StatusInternalServerError {
		t.Fatalf("paged scan with failing store = %d (%s), want 500", st, body)
	}
}

// TestScanInjectedErrorMidStream pins the committed-header case: once
// the 200 and the first page are out, a store failure must abort the
// connection (the client sees a read error / truncated JSON), never a
// clean end of a silently short body.
func TestScanInjectedErrorMidStream(t *testing.T) {
	srv, ts := newTestServer(t, kvserve.Config{Spec: "tl2", Shards: 2, Slots: 64, Threads: 2})
	old := srv.SetScanSource(&failingScanner{good: 1})
	defer srv.SetScanSource(old)
	resp, err := http.Get(ts.URL + "/scan")
	if err != nil {
		t.Fatalf("GET /scan: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-stream failure status = %d, want committed 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		var kvs []struct{ Key, Val int64 }
		if jsonErr := json.Unmarshal(body, &kvs); jsonErr == nil {
			t.Fatalf("mid-stream failure delivered clean JSON %q; want aborted connection or truncated body", body)
		}
	}
}
