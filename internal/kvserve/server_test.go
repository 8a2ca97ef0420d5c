package kvserve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"safepriv/internal/core/coretest"
	"safepriv/internal/kvserve"
)

func newTestServer(t *testing.T, cfg kvserve.Config) (*kvserve.Server, *httptest.Server) {
	t.Helper()
	srv, err := kvserve.New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Drain(); err != nil {
			t.Errorf("cleanup Drain: %v", err)
		}
	})
	return srv, ts
}

func do(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, string(b)
}

// retiredSpec is the spec the server suites ran while the heap's shape
// was a spec axis: "+batch" put the store's table heap behind
// magazines. The engine now refuses it, so a server configured for it
// fails at startup instead of serving with another heap; its rows pin
// that.
const retiredSpec = "tl2+quiesce+batch"

// unsafeSpecs are the fence ablations: they stay available to
// cmd/litmus and the tests, but a server refuses them, since the
// store's private windows would race its writers.
var unsafeSpecs = []string{"tl2+nofence", "tl2+skipro"}

// requireRefused fails unless New refuses spec with an error that
// mentions why.
func requireRefused(t *testing.T, spec, why string) {
	t.Helper()
	if _, err := kvserve.New(kvserve.Config{Spec: spec}); err == nil || !strings.Contains(err.Error(), why) {
		t.Fatalf("New(Spec: %q) = %v, want an error saying %q", spec, err, why)
	}
}

func TestServerEndToEnd(t *testing.T) {
	t.Run(retiredSpec, func(t *testing.T) { requireRefused(t, retiredSpec, "unknown modifier") })
	for _, spec := range unsafeSpecs {
		t.Run(spec, func(t *testing.T) { requireRefused(t, spec, "unsafe fence") })
	}
	for _, spec := range []string{"tl2", "norec"} {
		t.Run(spec, func(t *testing.T) {
			srv, ts := newTestServer(t, kvserve.Config{Spec: spec, Shards: 4, Slots: 64, Threads: 4})

			if st, _ := do(t, http.MethodGet, ts.URL+"/healthz", ""); st != http.StatusOK {
				t.Fatalf("healthz = %d, want 200", st)
			}
			if st, _ := do(t, http.MethodGet, ts.URL+"/kv/7", ""); st != http.StatusNotFound {
				t.Fatalf("GET absent key = %d, want 404", st)
			}
			if st, body := do(t, http.MethodPut, ts.URL+"/kv/7", "42\n"); st != http.StatusNoContent {
				t.Fatalf("PUT = %d (%s), want 204", st, body)
			}
			if st, body := do(t, http.MethodGet, ts.URL+"/kv/7", ""); st != http.StatusOK || strings.TrimSpace(body) != "42" {
				t.Fatalf("GET = %d %q, want 200 \"42\"", st, body)
			}

			// Bad requests map to 400, not 500.
			if st, _ := do(t, http.MethodPut, ts.URL+"/kv/abc", "1"); st != http.StatusBadRequest {
				t.Fatalf("PUT non-integer key = %d, want 400", st)
			}
			if st, _ := do(t, http.MethodPut, ts.URL+"/kv/-3", "1"); st != http.StatusBadRequest {
				t.Fatalf("PUT negative key = %d, want 400", st)
			}
			if st, _ := do(t, http.MethodPut, ts.URL+"/kv/8", "not-a-number"); st != http.StatusBadRequest {
				t.Fatalf("PUT bad body = %d, want 400", st)
			}

			if st, _ := do(t, http.MethodDelete, ts.URL+"/kv/7", ""); st != http.StatusNoContent {
				t.Fatalf("DELETE = %d, want 204", st)
			}
			if st, _ := do(t, http.MethodDelete, ts.URL+"/kv/7", ""); st != http.StatusNotFound {
				t.Fatalf("DELETE absent = %d, want 404", st)
			}

			// Populate and check /scan and /stats agree on the key count.
			const n = 20
			for k := 1; k <= n; k++ {
				if st, _ := do(t, http.MethodPut, fmt.Sprintf("%s/kv/%d", ts.URL, k), fmt.Sprint(k*10)); st != http.StatusNoContent {
					t.Fatalf("PUT %d failed: %d", k, st)
				}
			}
			var kvs []struct {
				Key int64 `json:"key"`
				Val int64 `json:"val"`
			}
			_, scanBody := do(t, http.MethodGet, ts.URL+"/scan", "")
			if err := json.Unmarshal([]byte(scanBody), &kvs); err != nil {
				t.Fatalf("scan JSON: %v (%s)", err, scanBody)
			}
			if len(kvs) != n {
				t.Fatalf("scan returned %d pairs, want %d", len(kvs), n)
			}
			for _, kv := range kvs {
				if kv.Val != kv.Key*10 {
					t.Fatalf("scan pair %+v, want val=%d", kv, kv.Key*10)
				}
			}
			var stats kvserve.StatsReply
			_, statsBody := do(t, http.MethodGet, ts.URL+"/stats", "")
			if err := json.Unmarshal([]byte(statsBody), &stats); err != nil {
				t.Fatalf("stats JSON: %v (%s)", err, statsBody)
			}
			if stats.Store.Keys != n {
				t.Fatalf("stats keys = %d, want %d", stats.Store.Keys, n)
			}
			if stats.Spec != spec {
				t.Fatalf("stats spec = %q, want %q", stats.Spec, spec)
			}
			if stats.Telemetry.Commits == 0 {
				t.Fatalf("stats telemetry commits = 0, want > 0 after %d PUTs", n)
			}
			for _, field := range []string{"compactions", "gate_spin_wakes", "gate_parks", "gate_timeouts", "read_throughs"} {
				if !strings.Contains(statsBody, `"`+field+`":`) {
					t.Fatalf("stats JSON lacks the store's %s counter: %s", field, statsBody)
				}
			}

			// Shutdown: Drain flips healthz to 503 and is idempotent.
			if err := srv.Drain(); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			if st, _ := do(t, http.MethodGet, ts.URL+"/healthz", ""); st != http.StatusServiceUnavailable {
				t.Fatalf("healthz after Drain = %d, want 503", st)
			}
			if err := srv.Drain(); err != nil {
				t.Fatalf("second Drain: %v", err)
			}
		})
	}
}

// TestServerConcurrentMixedLoad: concurrent PUT/GET pairs on distinct
// keys, each PUT its own transaction on a pooled thread id. The load
// grows the shards' tables in place under the server, and /stats
// reports the registers they occupy as the store counts them.
func TestServerConcurrentMixedLoad(t *testing.T) {
	const shards = 4
	t.Run("direct", func(t *testing.T) {
		srv, ts := newTestServer(t, kvserve.Config{Spec: "tl2", Shards: shards, Slots: 256, Threads: 4})
		const workers, opsPer = 8, 50
		var wg sync.WaitGroup
		errc := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := &http.Client{Timeout: 30 * time.Second}
				for i := 0; i < opsPer; i++ {
					key := int64(w*opsPer + i + 1)
					url := fmt.Sprintf("%s/kv/%d", ts.URL, key)
					req, _ := http.NewRequest(http.MethodPut, url, strings.NewReader(fmt.Sprint(key*3)))
					resp, err := c.Do(req)
					if err != nil {
						errc <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusNoContent {
						errc <- fmt.Errorf("PUT %d: status %d", key, resp.StatusCode)
						return
					}
					resp, err = c.Get(url)
					if err != nil {
						errc <- err
						return
					}
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if got := strings.TrimSpace(string(b)); got != fmt.Sprint(key*3) {
						errc <- fmt.Errorf("GET %d = %q, want %d", key, got, key*3)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		var stats kvserve.StatsReply
		_, body := do(t, http.MethodGet, ts.URL+"/stats", "")
		if err := json.Unmarshal([]byte(body), &stats); err != nil {
			t.Fatalf("stats JSON: %v", err)
		}
		if want := int64(workers * opsPer); stats.Store.Keys != want {
			t.Fatalf("keys = %d, want %d", stats.Store.Keys, want)
		}
		if err := srv.Drain(); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		if grows := srv.Store().Stats().Grows; grows == 0 {
			t.Fatalf("%d keys in %d shards: no shard grew", workers*opsPer, shards)
		}
		if got, initial := stats.Store.TableRegs, int64(shards*2*8); got != srv.Store().Stats().TableRegs || got <= initial {
			t.Fatalf("/stats table_regs = %d, want the store's TableRegs %d, above the initial %d", got, srv.Store().Stats().TableRegs, initial)
		}
	})
}

// TestRunLoad exercises the load driver against a live in-process
// server per engine spec: every run must complete with zero errors in
// closed-loop, open-loop (paced), zipfian and scan-mix modes, and the
// server must drain clean afterwards (newTestServer's cleanup).
func TestRunLoad(t *testing.T) {
	modes := []string{"closed", "open", "zipfian", "scans"}
	for _, name := range modes {
		t.Run(retiredSpec+"/"+name, func(t *testing.T) { requireRefused(t, retiredSpec, "unknown modifier") })
	}
	for _, spec := range []string{"tl2", "norec"} {
		_, ts := newTestServer(t, kvserve.Config{Spec: spec, Shards: 4, Slots: 128, Threads: 4})
		for name, cfg := range map[string]kvserve.LoadConfig{
			"closed":  {BaseURL: ts.URL, Conns: 4, Ops: 400, ReadPct: 60, DeletePct: 10, Keys: 256},
			"open":    {BaseURL: ts.URL, Conns: 4, Ops: 200, QPS: 2000, ReadPct: 60, DeletePct: 10, Keys: 256},
			"zipfian": {BaseURL: ts.URL, Conns: 4, Ops: 400, Zipfian: true, Keys: 256},
			"scans":   {BaseURL: ts.URL, Conns: 4, Ops: 400, ReadPct: 50, DeletePct: 5, ScanPct: 20, ScanLimit: 32, Keys: 256},
		} {
			t.Run(spec+"/"+name, func(t *testing.T) {
				rep, err := kvserve.RunLoad(cfg)
				if err != nil {
					t.Fatalf("RunLoad: %v", err)
				}
				if rep.Errors != 0 {
					t.Fatalf("load run had %d errors: %s", rep.Errors, rep)
				}
				if rep.Ops != int64(cfg.Ops) {
					t.Fatalf("completed %d ops, want %d", rep.Ops, cfg.Ops)
				}
				if rep.P50 <= 0 || rep.P99 < rep.P50 {
					t.Fatalf("implausible quantiles: %s", rep)
				}
				if cfg.ScanPct > 0 {
					if rep.ScanOps == 0 || rep.BadScans != 0 {
						t.Fatalf("scan mix: %d scan ops, %d malformed (%s)", rep.ScanOps, rep.BadScans, rep.ScanString())
					}
					if rep.ScanString() == "" {
						t.Fatal("scan mix produced no scan summary line")
					}
				}
			})
		}
	}
}

func TestRunLoadUnreachable(t *testing.T) {
	_, err := kvserve.RunLoad(kvserve.LoadConfig{BaseURL: "http://127.0.0.1:1", Ops: 10})
	if err == nil {
		t.Fatal("RunLoad against a dead address: want error, got nil")
	}
}

// TestHandlerAllocs pins the Go-heap allocations of one GET and one PUT
// of a present key through Handler().ServeHTTP. Each call builds its
// request and recorder with httptest; a no-op handler served the same
// request the same way is net/http's floor, and each row pins the
// handler's share above it. A change that adds an allocation to the
// serving path fails a row: re-measure, and say why. Under -race
// sync.Pool drops Puts, so the counts hold only without it.
func TestHandlerAllocs(t *testing.T) {
	if coretest.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts")
	}
	srv, err := kvserve.New(kvserve.Config{Spec: "tl2", Shards: 4, Slots: 64, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Drain(); err != nil {
			t.Errorf("cleanup Drain: %v", err)
		}
	})
	h, noop := srv.Handler(), http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	serve := func(h http.Handler, method, body string) func() {
		return func() {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, "/kv/7", strings.NewReader(body)))
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/kv/7", strings.NewReader("42")))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("PUT /kv/7 = %d, want %d", rec.Code, http.StatusNoContent)
	}
	for _, tt := range []struct {
		method, body string
		want         float64 // allocations per call above the floor
	}{
		{http.MethodGet, "", 6},
		{http.MethodPut, "43", 4},
	} {
		t.Run(tt.method, func(t *testing.T) {
			floor := testing.AllocsPerRun(200, serve(noop, tt.method, tt.body))
			got := testing.AllocsPerRun(200, serve(h, tt.method, tt.body)) - floor
			t.Logf("%v allocations above net/http's floor of %v", got, floor)
			if got > tt.want {
				t.Errorf("%s /kv/7 allocates %v times above the floor, want at most %v", tt.method, got, tt.want)
			}
		})
	}
}
