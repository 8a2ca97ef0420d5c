package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"safepriv/internal/core"
	"safepriv/internal/engine"
	"safepriv/internal/kvserve"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
	"safepriv/internal/stmkv"
	"safepriv/internal/telemetry"
)

// workloadSpec names a workload and says why it is in the benchmark.
// The names are fixed; later issues cite them.
type workloadSpec struct {
	name  string
	why   string
	build func(seed uint64, tr *tracer) (*instance, error)
}

var workloadSpecs = []workloadSpec{
	{"serve-point", "kvserve behind a loopback listener, 2 keep-alive connections, GET 95/PUT 4/DELETE 1: kvserve + net/http do ~99 % of the work, so serving-path changes show here and TM changes must not", buildServePoint},
	{"store-read-heavy", "the same op stream applied straight to stmkv.Store from 2 goroutines: stmkv routing + the TL2 read path do all the work, kvserve none; with serve-point it brackets the 100x", buildStoreReadHeavy},
	{"store-scan-churn", "same store; worker 1 walks ScanPage(cursor, 256) end to end, worker 2 does GET 50/PUT 25/DELETE 25: a point-op gain that costs scans or writers (fences, rehashes, parking) shows here", buildStoreScanChurn},
	{"ds-churn", "stmds.HashMap over a 2-shard magazine heap, GET 20/PUT 40/DELETE 40 from 2 goroutines: every put allocates, every delete frees, so magazines, batched grace periods and the buddy layer do the work", buildDSChurn},
	{"ds-range-churn", "stmds.SkipMap over a per-free heap; worker 1 runs RangeWindows back to back, worker 2 does GET 50/PUT 25/DELETE 25: the ordered map, windowed scans and one grace period per Free", buildDSRangeChurn},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// counters is everything read outside the timed loop around a slice;
// the per-layer "counter" metrics are deltas of two of these.
type counters struct {
	tel  telemetry.Snapshot
	kv   stmkv.Stats
	heap stmalloc.Stats
	mem  runtime.MemStats
}

// pair is one key-value pair of a contents walk, whichever package's KV
// type it came in.
type pair struct{ Key, Val int64 }

func pairsOf[T ~struct{ Key, Val int64 }](kvs []T, err error) ([]pair, error) {
	out := make([]pair, len(kvs))
	for i, kv := range kvs {
		out[i] = pair(kv)
	}
	return out, err
}

// instance is one freshly built and prefilled copy of a workload.
type instance struct {
	points  []*pointWorker
	scanner *scanWorker // nil unless the workload scans beside its writer

	tel      func() telemetry.Snapshot
	heap     func() stmalloc.Stats
	contents func() ([]pair, error) // a full walk of the quiescent structure
	// settle drains deferred work and returns the number of blocks the
	// structure must still hold for `live` pairs (the leak invariant).
	settle func(live int) (wantBlocks int64, err error)

	deadline  func(time.Time) // serve-point: bound the connections' I/O
	traceWith func(*tracer)   // serve-point: how spans get recorded
	checks    tally           // post-slice checks

	// What the ladder pass reaches past the backend interface for.
	store   *stmkv.Store // nil for the stmds workloads
	handler http.Handler // serve-point only
}

// trace makes the coming slices record spans (a nil tr records none).
// The build already happened: only serve-point needs tr earlier, to wrap
// its handler.
func (in *instance) trace(tr *tracer) {
	if in.traceWith != nil {
		in.traceWith(tr)
		return
	}
	for _, w := range in.points {
		w.tr = tr
	}
	if in.scanner != nil {
		in.scanner.tr = tr
	}
}

func (in *instance) snapshot() counters {
	c := counters{tel: in.tel(), heap: in.heap()}
	if in.store != nil {
		c.kv = in.store.Stats()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// run drives every worker for d and returns when all have stopped.
func (in *instance) run(d time.Duration) {
	deadline := time.Now().Add(d)
	if in.deadline != nil {
		in.deadline(deadline.Add(30 * time.Second))
	}
	var wg sync.WaitGroup
	for _, w := range in.points {
		w.lat.reset()
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(deadline)
		}()
	}
	if in.scanner != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in.scanner.run(deadline)
		}()
	}
	wg.Wait()
}

// expected reports whether key must be present now: a never-written key,
// or one its writer's bitmap holds.
func (in *instance) expected(key int64) bool {
	if neverWritten(key) {
		return true
	}
	for _, w := range in.points {
		if w.owns(key) {
			return w.own.has(key)
		}
	}
	return false
}

// finish runs the post-slice checks — the full contents equal the union
// of the writers' bitmaps, draining returns nil, the heap's leak
// invariants hold — and returns the heap's register high-water after the
// drain. For serve-point settling also stops the server.
func (in *instance) finish() (heapRegs int64) {
	c := &in.checks
	want := 0
	for k := int64(1); k <= keyspace; k++ {
		if in.expected(k) {
			want++
		}
	}
	c.Attempted++
	got, err := in.contents()
	if err != nil {
		c.fail("contents walk: %v", err)
	} else if len(got) != want {
		c.fail("contents walk returned %d pairs, the writers' records hold %d", len(got), want)
	}
	seen := newBitmap()
	for _, p := range got {
		switch {
		case p.Key < 1 || p.Key > keyspace:
			c.fail("contents hold key %d outside 1..%d", p.Key, keyspace)
			continue
		case p.Val != valueOf(p.Key):
			c.fail("contents hold %d=%d, want %d", p.Key, p.Val, valueOf(p.Key))
		case !in.expected(p.Key):
			c.fail("contents hold key %d, which its writer deleted", p.Key)
		case seen.has(p.Key):
			c.fail("contents hold key %d twice", p.Key)
		}
		seen.set(p.Key)
	}

	c.Attempted++
	wantBlocks, err := in.settle(want)
	if err != nil {
		c.fail("drain: %v", err)
	}
	hs := in.heap()
	c.Attempted++
	if hs.PendingFrees != 0 {
		c.fail("heap has %d pending frees after the drain", hs.PendingFrees)
	}
	c.Attempted++
	if hs.Live != wantBlocks {
		c.fail("heap holds %d live blocks after the drain, want %d", hs.Live, wantBlocks)
	}
	return hs.BumpRegs
}

// totals sums what every goroutine and the post-slice checks counted.
func (in *instance) totals() tally {
	t := in.checks
	for _, w := range in.points {
		t.add(w.tally)
	}
	if in.scanner != nil {
		t.add(in.scanner.tally)
	}
	return t
}

// seedWorkers gives each worker its own stream derived from the seed.
func (in *instance) seedWorkers(seed uint64) {
	for i, w := range in.points {
		s := splitmix64(seed + uint64(i+1)*0x632be59bd9b4e019)
		w.rng = splitmix64(s.next())
	}
}

// prefill inserts the prefilled keys through put and records them in
// their writers' bitmaps.
func (in *instance) prefill(put func(key, val int64) error) error {
	for k := int64(1); k <= keyspace; k++ {
		if !prefilled(k) {
			continue
		}
		if err := put(k, valueOf(k)); err != nil {
			return fmt.Errorf("prefill key %d: %w", k, err)
		}
		for _, w := range in.points {
			if w.owns(k) {
				w.own.set(k)
			}
		}
	}
	return nil
}

// Thread ids of the in-process workloads: the two workers, and one for
// prefill, checks and drains.
const (
	thWorker1 = 1
	thWorker2 = 2
	thAdmin   = 3
)

func newTM(regs int) (core.TM, *telemetry.Board, error) {
	tm, err := engine.NewSpec(engineSpec, regs, thAdmin, nil)
	if err != nil {
		return nil, nil, err
	}
	p, ok := tm.(telemetry.Provider)
	if !ok {
		return nil, nil, fmt.Errorf("engine %q carries no telemetry board", engineSpec)
	}
	return tm, p.TelemetryBoard(), nil
}

// storeBackend drives a stmkv.Store under one thread id.
type storeBackend struct {
	s  *stmkv.Store
	th int
}

func (b storeBackend) get(k int64) (int64, bool, error) { return b.s.Get(b.th, k) }
func (b storeBackend) put(k, v int64) error             { return b.s.Put(b.th, k, v) }
func (b storeBackend) del(k int64) (bool, error)        { return b.s.Delete(b.th, k) }

// newStoreInstance builds the store the two store-* workloads share; the
// caller adds the workers.
func newStoreInstance() (*instance, *stmkv.Store, error) {
	tm, board, err := newTM(stmkv.RegsNeeded(kvShards, kvSlots))
	if err != nil {
		return nil, nil, err
	}
	store, err := stmkv.New(tm, kvShards, kvSlots)
	if err != nil {
		return nil, nil, err
	}
	in := &instance{
		tel:      board.Snapshot,
		heap:     store.HeapStats,
		contents: func() ([]pair, error) { return pairsOf(store.Scan(thAdmin)) },
		// One live table block per shard, however many keys it holds.
		settle: func(int) (int64, error) { return kvShards, store.Drain(thAdmin) },
		store:  store,
	}
	return in, store, nil
}

func buildStoreReadHeavy(seed uint64, _ *tracer) (*instance, error) {
	in, store, err := newStoreInstance()
	if err != nil {
		return nil, err
	}
	in.points = []*pointWorker{
		newPointWorker(storeBackend{store, thWorker1}, mixPoint, residuesOdd, sampleEvery, "stmkv"),
		newPointWorker(storeBackend{store, thWorker2}, mixPoint, residuesEven, sampleEvery, "stmkv"),
	}
	in.seedWorkers(seed)
	return in, in.prefill(func(k, v int64) error { return store.Put(thAdmin, k, v) })
}

func buildStoreScanChurn(seed uint64, _ *tracer) (*instance, error) {
	in, store, err := newStoreInstance()
	if err != nil {
		return nil, err
	}
	in.scanner = newPageScanner(store, thWorker1)
	in.points = []*pointWorker{
		newPointWorker(storeBackend{store, thWorker2}, mixBeside, residuesAll, sampleEvery, "stmkv"),
	}
	in.seedWorkers(seed)
	return in, in.prefill(func(k, v int64) error { return store.Put(thAdmin, k, v) })
}

// Register layout of the stmds workloads: the head block, then the heap.
const (
	dsHead  = 8
	dsArena = 32
)

// hashBackend and skipBackend drive the stmds maps under one thread id.
type hashBackend struct {
	m  *stmds.HashMap
	th int
}

func (b hashBackend) get(k int64) (int64, bool, error) { return b.m.Get(b.th, k) }
func (b hashBackend) put(k, v int64) error             { _, err := b.m.Put(b.th, k, v); return err }
func (b hashBackend) del(k int64) (bool, error)        { return b.m.Delete(b.th, k) }

type skipBackend struct {
	m  *stmds.SkipMap
	th int
}

func (b skipBackend) get(k int64) (int64, bool, error) { return b.m.Get(b.th, k) }
func (b skipBackend) put(k, v int64) error             { _, err := b.m.Put(b.th, k, v); return err }
func (b skipBackend) del(k int64) (bool, error)        { return b.m.Delete(b.th, k) }

func buildDSChurn(seed uint64, _ *tracer) (*instance, error) {
	regs := dsArena + stmalloc.RegsForDemand(workers, workers, 0, stmds.HashMapDemand(keyspace))
	tm, board, err := newTM(regs)
	if err != nil {
		return nil, err
	}
	heap, err := stmalloc.New(tm, dsArena, regs, stmalloc.WithShards(workers), stmalloc.WithMagazines(workers, 0))
	if err != nil {
		return nil, err
	}
	m := stmds.NewHashMap(tm, dsHead, heap)
	in := &instance{
		tel:      board.Snapshot,
		heap:     heap.Stats,
		contents: func() ([]pair, error) { return pairsOf(m.Snapshot(thAdmin)) },
		// One node per pair and, once the rehash has settled, one bucket array.
		settle: func(live int) (int64, error) {
			return int64(live) + 1, errors.Join(m.DrainRehash(thAdmin), heap.Drain(thAdmin))
		},
		points: []*pointWorker{
			newPointWorker(hashBackend{m, thWorker1}, mixChurn, residuesOdd, sampleEvery, "stmds.hash"),
			newPointWorker(hashBackend{m, thWorker2}, mixChurn, residuesEven, sampleEvery, "stmds.hash"),
		},
	}
	in.seedWorkers(seed)
	return in, in.prefill(func(k, v int64) error { _, err := m.Put(thWorker1, k, v); return err })
}

func buildDSRangeChurn(seed uint64, _ *tracer) (*instance, error) {
	regs := dsArena + stmalloc.RegsForDemand(workers, 0, 0, stmds.SkipMapDemand(keyspace))
	tm, board, err := newTM(regs)
	if err != nil {
		return nil, err
	}
	heap, err := stmalloc.New(tm, dsArena, regs, stmalloc.WithShards(workers))
	if err != nil {
		return nil, err
	}
	m := stmds.NewSkipMap(tm, dsHead, thAdmin, heap)
	in := &instance{
		tel:      board.Snapshot,
		heap:     heap.Stats,
		contents: func() ([]pair, error) { return pairsOf(m.Snapshot(thAdmin)) },
		// One tower per pair.
		settle:  func(live int) (int64, error) { return int64(live), heap.Drain(thAdmin) },
		scanner: newRangeScanner(m, thWorker1),
		points: []*pointWorker{
			newPointWorker(skipBackend{m, thWorker2}, mixBeside, residuesAll, sampleEvery, "stmds.skip"),
		},
	}
	in.seedWorkers(seed)
	return in, in.prefill(func(k, v int64) error { _, err := m.Put(thAdmin, k, v); return err })
}

func buildServePoint(seed uint64, tr *tracer) (*instance, error) {
	srv, err := kvserve.New(kvserve.Config{
		Spec: engineSpec, Shards: kvShards, Slots: kvSlots,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	store := srv.Store()
	handler := srv.Handler()
	if tr != nil {
		handler = traceHandler(tr, handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	addr := ln.Addr().String()

	conns := make([]*httpConn, workers)
	closeAll := func() error {
		for _, c := range conns {
			if c != nil {
				c.close()
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if e := <-served; !errors.Is(e, http.ErrServerClosed) {
			err = errors.Join(err, e)
		}
		return err
	}
	for i := range conns {
		if conns[i], err = dialHTTP(addr); err != nil {
			_ = closeAll()
			return nil, err
		}
	}
	in := &instance{
		tel:  srv.Telemetry,
		heap: store.HeapStats,
		contents: func() ([]pair, error) {
			return scanOverHTTP("http://" + addr + "/scan")
		},
		// The server goes down before its store drains, as cmd/kvserver does.
		settle: func(int) (int64, error) { return kvShards, errors.Join(closeAll(), srv.Drain()) },
		deadline: func(t time.Time) {
			for _, c := range conns {
				c.setDeadline(t)
			}
		},
		// The connections record the request spans (and reserve the
		// handler's), so the workers above them record none.
		traceWith: func(tr *tracer) {
			for _, c := range conns {
				c.tr = tr
			}
		},
		store:   store,
		handler: srv.Handler(),
		points: []*pointWorker{
			newPointWorker(conns[0], mixPoint, residuesOdd, 1, ""),
			newPointWorker(conns[1], mixPoint, residuesEven, 1, ""),
		},
	}
	in.seedWorkers(seed)
	// The server is up but idle, so thread id 1 of its pool is free.
	return in, in.prefill(func(k, v int64) error { return store.Put(1, k, v) })
}

// scanOverHTTP fetches the whole store through GET /scan, the way a
// client of kvserve would.
func scanOverHTTP(url string) ([]pair, error) {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 30 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /scan: status %d", resp.StatusCode)
	}
	var out []pair
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("GET /scan: %w", err)
	}
	return out, nil
}
