// Package kvserve is the networked front-end over internal/stmkv: the
// privatize→fence→operate→publish machinery of the paper, pointed
// outward as an HTTP key-value service (ROADMAP item 1). cmd/kvserver
// wraps it in a process; cmd/kvload and bench/ drive it.
//
// The central design problem is the impedance mismatch between Go's
// goroutine-per-connection servers and the TM's fixed 1-based thread
// ids (each usable by at most one goroutine at a time). The server
// resolves it with a stmkv.ThreadPool: a handler acquires a thread id
// for the duration of one store operation and releases it, so at most
// Config.Threads store operations run concurrently and the TM's
// threading contract holds under any number of connections — the pool
// doubles as admission control. Every request is one store operation:
// a PUT is one stmkv.Put transaction on the pooled thread id.
//
// Endpoints (values are decimal int64 text; /scan and /stats are JSON):
//
//	GET    /kv/{key}   value, or 404 if absent
//	PUT    /kv/{key}   body = value; 204 on commit
//	DELETE /kv/{key}   204 if removed, 404 if absent
//	GET    /scan       [{"key":k,"val":v}, ...] (per-shard snapshots)
//	GET    /stats      store + heap + telemetry counters and rates
//	GET    /healthz    200 once serving, 503 while starting or draining
//
// Shutdown protocol: the owner first drains in-flight HTTP requests
// (http.Server.Shutdown), then calls Server.Drain, which flips healthz
// to 503, settles the store's table heap (stmkv.Store.Drain) and
// surfaces any reclamation error — the ordering cmd/kvserver
// implements on SIGTERM.
package kvserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"safepriv/internal/core"
	"safepriv/internal/engine"
	"safepriv/internal/stmkv"
	"safepriv/internal/telemetry"
)

// Config sizes a Server. The zero value of every field selects the
// documented default.
type Config struct {
	// Spec is the engine specification of the TM the store runs on
	// (default "tl2"). New refuses a spec whose fence is unsafe
	// (engine.Config.UnsafeFence: the nofence and skipro ablations):
	// the store's private windows would race its writers.
	Spec string
	// Shards is the store's shard count (default 16).
	Shards int
	// Slots is the per-shard slot arena (default 512).
	Slots int
	// Threads is the request worker pool size: the number of store
	// operations that may run concurrently (default 8). The TM is
	// sized with one extra id, the drain admin thread.
	Threads int
	// Logger receives the server's structured log (default
	// slog.Default()).
	Logger *slog.Logger
}

func (c *Config) fill() {
	if c.Spec == "" {
		c.Spec = "tl2"
	}
	if c.Shards == 0 {
		c.Shards = 16
	}
	if c.Slots == 0 {
		c.Slots = 512
	}
	if c.Threads == 0 {
		c.Threads = 8
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
}

// Server is the HTTP front-end over one stmkv.Store.
type Server struct {
	cfg   Config
	tm    core.TM
	store *stmkv.Store
	scan  scanner // s.store, unless a test injected a failing source
	pool  *stmkv.ThreadPool
	board *telemetry.Board
	log   *slog.Logger

	adminTh int
	start   time.Time
	ready   atomic.Bool
}

// New builds the TM described by cfg.Spec, a store over it, and the
// thread-id pool. Construction is synchronous: when New returns, the
// server is ready (healthz reports 200).
func New(cfg Config) (*Server, error) {
	cfg.fill()
	// Thread budget: ids 1..Threads for request workers, +1 the admin
	// (drain) thread.
	workers := cfg.Threads
	adminTh := workers + 1
	regs := stmkv.RegsNeeded(cfg.Shards, cfg.Slots)
	if regs == 0 {
		return nil, fmt.Errorf("kvserve: unallocatable geometry shards=%d slots=%d", cfg.Shards, cfg.Slots)
	}
	if ecfg, err := engine.Parse(cfg.Spec); err == nil && ecfg.UnsafeFence() {
		return nil, fmt.Errorf("kvserve: spec %q has an unsafe fence; serve a safe one", cfg.Spec)
	}
	tm, err := engine.NewSpec(cfg.Spec, regs, adminTh, nil)
	if err != nil {
		return nil, err
	}
	store, err := stmkv.New(tm, cfg.Shards, cfg.Slots)
	if err != nil {
		return nil, err
	}
	pool, err := stmkv.NewThreadPool(1, workers)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		tm:      tm,
		store:   store,
		scan:    store,
		pool:    pool,
		log:     cfg.Logger,
		adminTh: adminTh,
		start:   time.Now(),
	}
	if p, ok := tm.(telemetry.Provider); ok {
		s.board = p.TelemetryBoard()
	}
	s.ready.Store(true)
	s.log.Info("kvserve ready",
		"spec", cfg.Spec, "shards", cfg.Shards, "slots", cfg.Slots,
		"threads", workers, "regs", regs)
	return s, nil
}

// Store exposes the underlying store (tests and bench/).
func (s *Server) Store() *stmkv.Store { return s.store }

// Telemetry snapshots the TM's telemetry board (zero when the TM
// carries none) — /stats' abort/privatization rate source.
func (s *Server) Telemetry() telemetry.Snapshot {
	if s.board == nil {
		return telemetry.Snapshot{}
	}
	return s.board.Snapshot()
}

// Drain finishes the server's outstanding work: healthz turns 503, the
// store's table heap settles, and Drain returns the first reclamation
// error the heap hit. Call it after the HTTP listener has drained its
// in-flight requests; Drain is idempotent (a second call only re-drains
// the store, which reports errors registered since).
func (s *Server) Drain() error {
	s.ready.Store(false)
	return s.store.Drain(s.adminTh)
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /kv/{key}", s.handleGet)
	mux.HandleFunc("PUT /kv/{key}", s.handlePut)
	mux.HandleFunc("DELETE /kv/{key}", s.handleDelete)
	mux.HandleFunc("GET /scan", s.handleScan)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// errStatus maps a store error to an HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, stmkv.ErrBadKey):
		return http.StatusBadRequest
	case errors.Is(err, stmkv.ErrBadCursor):
		return http.StatusBadRequest
	case errors.Is(err, stmkv.ErrFull):
		return http.StatusInsufficientStorage
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	status := errStatus(err)
	if status >= 500 {
		s.log.Error("request failed", "method", r.Method, "path", r.URL.Path, "err", err)
	}
	http.Error(w, err.Error(), status)
}

// key parses the {key} path value. The store's domain (positive int64)
// is enforced by the store itself; here only the syntax is.
func reqKey(r *http.Request) (int64, error) {
	k, err := strconv.ParseInt(r.PathValue("key"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %q is not an integer key", stmkv.ErrBadKey, r.PathValue("key"))
	}
	return k, nil
}

// withThread runs op on a pooled thread id, bounded by the request
// context (a client that gave up stops queueing for the store).
func (s *Server) withThread(r *http.Request, op func(th int) error) error {
	th, err := s.pool.AcquireCtx(r.Context())
	if err != nil {
		return err
	}
	defer s.pool.Release(th)
	return op(th)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	_, _ = io.WriteString(w, "ok\n")
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key, err := reqKey(r)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	var v int64
	var ok bool
	err = s.withThread(r, func(th int) error {
		var err error
		v, ok, err = s.store.Get(th, key)
		return err
	})
	if err != nil {
		s.fail(w, r, err)
		return
	}
	if !ok {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	_, _ = io.WriteString(w, strconv.FormatInt(v, 10)+"\n")
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	key, err := reqKey(r)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 64))
	if err != nil {
		s.fail(w, r, err)
		return
	}
	val, err := strconv.ParseInt(string(bytes.TrimSpace(body)), 10, 64)
	if err != nil {
		http.Error(w, "body must be a decimal int64 value", http.StatusBadRequest)
		return
	}
	err = s.withThread(r, func(th int) error { return s.store.Put(th, key, val) })
	if err != nil {
		s.fail(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	key, err := reqKey(r)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	var removed bool
	err = s.withThread(r, func(th int) error {
		var err error
		removed, err = s.store.Delete(th, key)
		return err
	})
	if err != nil {
		s.fail(w, r, err)
		return
	}
	if !removed {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// kvJSON is one /scan element.
type kvJSON struct {
	Key int64 `json:"key"`
	Val int64 `json:"val"`
}

// ScanPageReply is the /scan response in paginated mode (limit or
// cursor present in the query).
type ScanPageReply struct {
	Pairs  []kvJSON `json:"pairs"`
	Cursor string   `json:"cursor,omitempty"`
	More   bool     `json:"more"`
}

// scanStreamPage is the internal page size of a cursorless streaming
// /scan: the server holds at most this many pairs in memory at a time,
// however large the store is.
const scanStreamPage = 256

// scanner is the slice of the store the scan handlers depend on; tests
// substitute a failing implementation to pin the error paths.
type scanner interface {
	ScanPage(th int, cursor string, limit int) ([]stmkv.KV, string, error)
}

// handleScan serves GET /scan in two modes, both built on the store's
// privatized pagination (stmkv.ScanPage) so server-side buffering is
// O(page) regardless of store size:
//
//   - ?limit= and/or ?cursor= → ONE page as a JSON object
//     {"pairs":[...],"cursor":"...","more":bool}; walk cursors until
//     more is false. A malformed cursor is a 400.
//   - neither → the whole store streamed as one JSON array, fetched
//     page by page and flushed as it goes.
//
// ?from= / ?to= (inclusive key bounds) filter either mode server-side.
// In paginated mode the limit bounds the page read from the store, so a
// narrow filter may return fewer than limit pairs per page; keep
// walking the cursor.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, to := int64(math.MinInt64), int64(math.MaxInt64)
	if v := q.Get("from"); v != "" {
		f, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			http.Error(w, "from must be a decimal int64", http.StatusBadRequest)
			return
		}
		from = f
	}
	if v := q.Get("to"); v != "" {
		t, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			http.Error(w, "to must be a decimal int64", http.StatusBadRequest)
			return
		}
		to = t
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		l, err := strconv.Atoi(v)
		if err != nil || l <= 0 {
			http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
			return
		}
		limit = l
	}
	if limit > 0 || q.Get("cursor") != "" {
		s.scanPaged(w, r, q.Get("cursor"), limit, from, to)
		return
	}
	s.scanStream(w, r, from, to)
}

// scanPage runs one store page on a pooled thread id.
func (s *Server) scanPage(r *http.Request, cursor string, limit int) (pairs []stmkv.KV, next string, err error) {
	err = s.withThread(r, func(th int) error {
		var err error
		pairs, next, err = s.scan.ScanPage(th, cursor, limit)
		return err
	})
	return pairs, next, err
}

func filterRange(pairs []stmkv.KV, from, to int64) []kvJSON {
	out := make([]kvJSON, 0, len(pairs))
	for _, kv := range pairs {
		if kv.Key >= from && kv.Key <= to {
			out = append(out, kvJSON{Key: kv.Key, Val: kv.Val})
		}
	}
	return out
}

func (s *Server) scanPaged(w http.ResponseWriter, r *http.Request, cursor string, limit int, from, to int64) {
	pairs, next, err := s.scanPage(r, cursor, limit)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	reply := ScanPageReply{Pairs: filterRange(pairs, from, to), Cursor: next, More: next != ""}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(reply)
}

// scanStream writes the whole store as one JSON array without ever
// materializing it: pages come from the privatized cursor walk and go
// straight out. The FIRST page is fetched before the header is written,
// so a store that fails up front still gets a real error status (the
// old handler's all-at-once Scan had the same property by accident; the
// streaming rewrite keeps it deliberately). A failure after the header
// has been committed cannot change the status anymore — the handler
// logs it and aborts the connection mid-body (http.ErrAbortHandler), so
// the client sees a truncated response instead of a silently complete
// short one.
func (s *Server) scanStream(w http.ResponseWriter, r *http.Request, from, to int64) {
	pairs, next, err := s.scanPage(r, "", scanStreamPage)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	flusher, _ := w.(http.Flusher)
	wrote := 0
	writePage := func(pairs []stmkv.KV) {
		for _, kv := range filterRange(pairs, from, to) {
			sep := ","
			if wrote == 0 {
				sep = "["
			}
			fmt.Fprintf(w, "%s{\"key\":%d,\"val\":%d}", sep, kv.Key, kv.Val)
			wrote++
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	writePage(pairs)
	for next != "" {
		pairs, next, err = s.scanPage(r, next, scanStreamPage)
		if err != nil {
			s.log.Error("scan stream failed mid-body", "err", err)
			panic(http.ErrAbortHandler)
		}
		writePage(pairs)
	}
	if wrote == 0 {
		io.WriteString(w, "[")
	}
	io.WriteString(w, "]\n")
}

// StatsReply is the /stats document.
type StatsReply struct {
	Spec      string  `json:"spec"`
	Shards    int     `json:"shards"`
	Slots     int     `json:"slots"`
	Threads   int     `json:"threads"`
	UptimeSec float64 `json:"uptime_sec"`
	Store     struct {
		Keys           int64 `json:"keys"`
		Privatizations int64 `json:"privatizations"`
		Grows          int64 `json:"grows"`
		Compactions    int64 `json:"compactions"`
		Scans          int64 `json:"scans"`
		Clears         int64 `json:"clears"`
		// How stalls on a private shard ended, and Gets that ran beside
		// a scan window instead of stalling (stmkv.Stats).
		GateSpinWakes int64 `json:"gate_spin_wakes"`
		GateParks     int64 `json:"gate_parks"`
		GateTimeouts  int64 `json:"gate_timeouts"`
		ReadThroughs  int64 `json:"read_throughs"`
	} `json:"store"`
	Heap struct {
		Allocs       int64 `json:"allocs"`
		Frees        int64 `json:"frees"`
		Live         int64 `json:"live"`
		Regs         int64 `json:"regs"`
		PendingFrees int64 `json:"pending_frees"`
	} `json:"heap"`
	Telemetry struct {
		Commits        int64   `json:"commits"`
		Aborts         int64   `json:"aborts"`
		Fences         int64   `json:"fences"`
		Privatizations int64   `json:"privatizations"`
		AbortRate      float64 `json:"abort_rate"`
		PrivRate       float64 `json:"priv_rate"`
		MagHitRate     float64 `json:"mag_hit_rate"`
	} `json:"telemetry"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var reply StatsReply
	reply.Spec = s.cfg.Spec
	reply.Shards = s.cfg.Shards
	reply.Slots = s.cfg.Slots
	reply.Threads = s.cfg.Threads
	reply.UptimeSec = time.Since(s.start).Seconds()
	err := s.withThread(r, func(th int) error {
		var err error
		reply.Store.Keys, err = s.store.Len(th)
		return err
	})
	if err != nil {
		s.fail(w, r, err)
		return
	}
	st := s.store.Stats()
	reply.Store.Privatizations = st.Privatizations
	reply.Store.Grows = st.Grows
	reply.Store.Compactions = st.Compactions
	reply.Store.Scans = st.Scans
	reply.Store.Clears = st.Clears
	reply.Store.GateSpinWakes = st.GateSpinWakes
	reply.Store.GateParks = st.GateParks
	reply.Store.GateTimeouts = st.GateTimeouts
	reply.Store.ReadThroughs = st.ReadThroughs
	hs := s.store.HeapStats()
	reply.Heap.Allocs = hs.Allocs
	reply.Heap.Frees = hs.Frees
	reply.Heap.Live = hs.Live
	reply.Heap.Regs = hs.BumpRegs
	reply.Heap.PendingFrees = hs.PendingFrees
	tel := s.Telemetry()
	reply.Telemetry.Commits = tel.Commits
	reply.Telemetry.Aborts = tel.Aborts
	reply.Telemetry.Fences = tel.Fences
	reply.Telemetry.Privatizations = tel.Privatizations
	reply.Telemetry.AbortRate = tel.AbortRate()
	reply.Telemetry.PrivRate = tel.PrivRate()
	reply.Telemetry.MagHitRate = tel.MagHitRate()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(reply)
}
