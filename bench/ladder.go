package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"safepriv/internal/core"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmkv"
)

// The ladder pass measures one worker's cost of one operation at each
// layer boundary, from the raw TM outward to loopback HTTP, so that the
// difference between two rungs is the cost the upper layer adds. It is
// ROADMAP item 3's cost ladder measured from outside the program.

// timeCalls calls f for about d and returns the mean nanoseconds a call
// took. The clock is read once every stride calls: 1 for calls that take
// microseconds, more for calls a clock read would distort.
func timeCalls(d time.Duration, stride int, f func()) float64 {
	start := time.Now()
	n := 0
	for {
		for i := 0; i < stride; i++ {
			f()
		}
		n += stride
		if dt := time.Since(start); dt >= d {
			return float64(dt) / float64(n)
		}
	}
}

// ladderKeys pre-draws the key stream every rung replays, and the
// absent, pairwise distinct keys its put/delete rungs cycle through.
func ladderKeys(seed uint64) (reads, absent []int64) {
	rng := splitmix64(seed ^ 0x1adde4)
	reads = make([]int64, 1<<14)
	seen := newBitmap()
	for i := range reads {
		reads[i] = 1 + int64(rng.next()&(keyspace-1))
		// Even keys off the never-written residue are absent after prefill.
		if k := reads[i]&^7 | residuesEven[i%len(residuesEven)]; !seen.has(k) && len(absent) < 1024 {
			seen.set(k)
			absent = append(absent, k)
		}
	}
	return reads, absent
}

// txnBody is a transaction body whose registers change between calls
// without a closure being allocated per call.
type txnBody struct {
	a, b  int
	write bool
}

func (t *txnBody) run(tx core.Txn) error {
	va, err := tx.Read(t.a)
	if err != nil {
		return err
	}
	vb, err := tx.Read(t.b)
	if err != nil || !t.write {
		return err
	}
	if err := tx.Write(t.a, vb+1); err != nil {
		return err
	}
	return tx.Write(t.b, va+1)
}

// ladder accumulates the rungs and what went wrong on the way.
type ladder struct {
	rung   time.Duration
	reads  []int64
	absent []int64
	out    map[string]float64
	tally
	next int // cursor into reads
}

func (l *ladder) key() int64 {
	k := l.reads[l.next&(len(l.reads)-1)]
	l.next++
	return k
}

func (l *ladder) must(what string, err error) {
	l.Attempted++
	if err != nil {
		l.fail("ladder %s: %v", what, err)
	}
}

// rawTM measures transactions and fences on a bare TM.
func (l *ladder) rawTM() error {
	const regs = 1 << 16
	tm, _, err := newTM(regs)
	if err != nil {
		return err
	}
	body := &txnBody{}
	run := body.run
	txn := func(th int, write bool) func() {
		return func() {
			k := int(l.key())
			body.a, body.b, body.write = k, (k*7+1)&(regs-1), write
			l.must("txn", core.Atomically(tm, th, run))
		}
	}
	l.out["tl2.txn_ro_ns"] = timeCalls(l.rung, 64, txn(thWorker1, false))
	l.out["tl2.txn_rw_ns"] = timeCalls(l.rung, 64, txn(thWorker1, true))
	l.out["quiesce.fence_idle_ns"] = timeCalls(l.rung, 64, func() { tm.Fence(thWorker1) })

	// The fence again, while the other worker runs transactions it has
	// to wait out. That worker has its own body and key cursor.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		other := &txnBody{write: true}
		run := other.run
		for i := 0; !stop.Load(); i++ {
			k := int(l.reads[i&(len(l.reads)-1)])
			other.a, other.b = k, (k*7+1)&(regs-1)
			if err := core.Atomically(tm, thWorker2, run); err != nil {
				return
			}
		}
	}()
	l.out["quiesce.fence_busy_us"] = timeCalls(l.rung, 1, func() { tm.Fence(thWorker1) }) / 1e3
	stop.Store(true)
	wg.Wait()
	return nil
}

// allocFree measures one allocate + free cycle of a hash-node-sized
// block on a heap built with opts.
func (l *ladder) allocFree(name string, opts ...stmalloc.Option) error {
	const regs = 1 << 16
	tm, _, err := newTM(regs)
	if err != nil {
		return err
	}
	heap, err := stmalloc.New(tm, dsArena, regs, append(opts, stmalloc.WithShards(workers))...)
	if err != nil {
		return err
	}
	var ptr int64
	alloc := func(tx core.Txn) (err error) {
		ptr, err = heap.New(tx, thWorker1, 3)
		return err
	}
	l.out[name] = timeCalls(l.rung, 16, func() {
		l.must("alloc", core.Atomically(tm, thWorker1, alloc))
		heap.Free(thWorker1, ptr, 3)
	})
	l.must("heap drain", heap.Drain(thAdmin))
	return nil
}

// getRung times reads of the replayed keys through b.
func (l *ladder) getRung(b backend, stride int) float64 {
	return timeCalls(l.rung, stride, func() {
		k := l.key()
		v, ok, err := b.get(k)
		l.must("get", err)
		if ok && v != valueOf(k) {
			l.fail("ladder get %d = %d, want %d", k, v, valueOf(k))
		}
	})
}

// putDeleteRung inserts the absent keys and deletes them again, batch
// after batch, timing the two phases apart. Each batch leaves the
// contents as it found them, so the instance's oracle still holds.
func (l *ladder) putDeleteRung(b backend) (putNs, delNs float64) {
	var puts, dels time.Duration
	n := 0
	for puts+dels < 2*l.rung {
		t0 := time.Now()
		for _, k := range l.absent {
			l.must("put", b.put(k, valueOf(k)))
		}
		t1 := time.Now()
		for _, k := range l.absent {
			removed, err := b.del(k)
			l.must("delete", err)
			if !removed {
				l.fail("ladder delete %d: key just put is absent", k)
			}
		}
		puts += t1.Sub(t0)
		dels += time.Since(t1)
		n += len(l.absent)
	}
	return float64(puts) / float64(n), float64(dels) / float64(n)
}

// scanRung runs the instance's scanner alone and returns ns per pair.
func (l *ladder) scanRung(in *instance) float64 {
	s := in.scanner
	s.run(time.Now().Add(l.rung))
	return ratio(float64(s.elapsed), float64(s.pairs))
}

// finish runs the instance's own post-slice checks and folds its
// failures into the ladder's.
func (l *ladder) finish(in *instance) {
	in.finish()
	l.add(in.totals())
}

func (l *ladder) structures(seed uint64) error {
	hash, err := buildDSChurn(seed, nil)
	if err != nil {
		return err
	}
	l.out["stmds.hash_get_ns"] = l.getRung(hash.points[0].b, 64)
	p, d := l.putDeleteRung(hash.points[1].b)
	l.out["stmds.hash_put_delete_ns"] = p + d
	l.finish(hash)

	skip, err := buildDSRangeChurn(seed, nil)
	if err != nil {
		return err
	}
	l.out["stmds.skip_get_ns"] = l.getRung(skip.points[0].b, 64)
	p, d = l.putDeleteRung(skip.points[0].b)
	l.out["stmds.skip_put_delete_ns"] = p + d
	l.out["stmds.skip_range_ns_per_pair"] = l.scanRung(skip)
	l.finish(skip)
	return nil
}

func (l *ladder) store(seed uint64) error {
	in, err := buildStoreScanChurn(seed, nil)
	if err != nil {
		return err
	}
	b := in.points[0].b
	l.out["stmkv.get_ns"] = l.getRung(b, 64)
	l.out["stmkv.put_ns"], l.out["stmkv.delete_ns"] = l.putDeleteRung(b)
	batch := make([]stmkv.KV, 64)
	l.out["stmkv.putbatch_ns_per_pair"] = timeCalls(l.rung, 1, func() {
		for i := range batch { // present keys: the batch rewrites their values
			k := (l.key() - 1) | 1
			batch[i] = stmkv.KV{Key: k, Val: valueOf(k)}
		}
		l.must("PutBatch", in.store.PutBatch(thWorker2, batch))
	}) / float64(len(batch))
	l.out["stmkv.scanpage_ns_per_pair"] = l.scanRung(in)
	l.finish(in)

	pool, err := stmkv.NewThreadPool(1, 8)
	if err != nil {
		return err
	}
	ctx := context.Background()
	l.out["stmkv.pool_acquire_release_ns"] = timeCalls(l.rung, 64, func() {
		th, err := pool.AcquireCtx(ctx)
		l.must("pool", err)
		pool.Release(th)
	})
	return nil
}

// discard is the response writer of the direct-handler rungs: it keeps
// the status and counts the body.
type discard struct {
	header http.Header
	status int
	n      int64
}

func (d *discard) Header() http.Header         { return d.header }
func (d *discard) WriteHeader(status int)      { d.status = status }
func (d *discard) Write(b []byte) (int, error) { d.n += int64(len(b)); return len(b), nil }
func (d *discard) reset()                      { clear(d.header); d.status = 200; d.n = 0 }

// body is a request body that can be rewound for the next call.
type body struct{ bytes.Reader }

func (*body) Close() error { return nil }

func (l *ladder) serve(seed uint64) error {
	in, err := buildServePoint(seed, nil)
	if err != nil {
		return err
	}
	// Requests are built before the clock starts and reused: the rung
	// measures the handler, not the construction of its input.
	newReq := func(method, target string, rd io.ReadCloser) *http.Request {
		r, err := http.NewRequest(method, target, nil)
		l.must("request", err)
		r.Body = rd
		return r
	}
	gets := make([]*http.Request, 1024)
	for i := range gets {
		gets[i] = newReq("GET", "/kv/"+strconv.FormatInt(l.key(), 10), http.NoBody)
	}
	w := &discard{header: http.Header{}}
	i := 0
	l.out["kvserve.handler_get_ns"] = timeCalls(l.rung, 16, func() {
		w.reset()
		in.handler.ServeHTTP(w, gets[i&1023])
		i++
		if w.status != 200 && w.status != 404 {
			l.fail("handler GET: status %d", w.status)
		}
	})

	puts := make([]*http.Request, len(l.absent))
	dels := make([]*http.Request, len(l.absent))
	values := make([][]byte, len(l.absent))
	bodies := make([]*body, len(l.absent))
	for i, k := range l.absent {
		target := "/kv/" + strconv.FormatInt(k, 10)
		values[i] = strconv.AppendInt(nil, valueOf(k), 10)
		bodies[i] = &body{}
		puts[i] = newReq("PUT", target, bodies[i])
		dels[i] = newReq("DELETE", target, http.NoBody)
	}
	var putTime time.Duration
	n := 0
	for putTime < l.rung {
		t0 := time.Now()
		for i, r := range puts {
			bodies[i].Reset(values[i])
			w.reset()
			in.handler.ServeHTTP(w, r)
			if w.status != 204 {
				l.fail("handler PUT: status %d", w.status)
			}
		}
		putTime += time.Since(t0)
		n += len(puts)
		for _, r := range dels { // restore the contents, untimed
			w.reset()
			in.handler.ServeHTTP(w, r)
			if w.status != 204 {
				l.fail("handler DELETE: status %d", w.status)
			}
		}
	}
	l.Attempted += int64(2 * n)
	l.out["kvserve.handler_put_ns"] = float64(putTime) / float64(n)

	scan := newReq("GET", "/scan", http.NoBody)
	pairs := 0
	for k := int64(1); k <= keyspace; k++ {
		if prefilled(k) {
			pairs++
		}
	}
	l.out["kvserve.handler_scan_ns_per_pair"] = timeCalls(l.rung, 1, func() {
		w.reset()
		in.handler.ServeHTTP(w, scan)
		if w.status != 200 || w.n < int64(pairs*len(`{"key":1,"val":38}`)) {
			l.fail("handler GET /scan: status %d, %d bytes", w.status, w.n)
		}
	}) / float64(pairs)

	in.deadline(time.Now().Add(time.Minute))
	l.out["http.roundtrip_get_us"] = l.getRung(in.points[0].b, 1) / 1e3

	// The top of the ladder is the workload itself: both connections
	// under load. What its median latency exceeds the lone round trip by
	// is contention the one-worker rungs cannot see.
	in.run(l.rung)
	lat := sortedSamples(in.points[0].lat, in.points[1].lat)
	loaded := float64(percentile(lat, 5000)) / 1e3
	l.out["ladder.unattributed_share"] = ratio(loaded-l.out["http.roundtrip_get_us"], loaded)
	l.finish(in)
	return nil
}

// runLadder measures every rung for `rung` each. The self times are
// differences of rungs: kvserve's own share of a GET is the handler
// minus the store operation and the thread-id pool under it, HTTP's is
// the round trip minus the handler.
func runLadder(seed uint64, rung time.Duration) (map[string]float64, tally, error) {
	l := &ladder{rung: rung, out: map[string]float64{}}
	l.reads, l.absent = ladderKeys(seed)
	steps := []func() error{
		l.rawTM,
		func() error { return l.allocFree("stmalloc.new_free_ns") },
		func() error { return l.allocFree("stmalloc.new_free_mag_ns", stmalloc.WithMagazines(workers, 0)) },
		func() error { return l.structures(seed) },
		func() error { return l.store(seed) },
		func() error { return l.serve(seed) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, l.tally, fmt.Errorf("ladder: %w", err)
		}
	}
	o := l.out
	o["kvserve.self_get_ns"] = o["kvserve.handler_get_ns"] - o["stmkv.get_ns"] - o["stmkv.pool_acquire_release_ns"]
	o["http.self_get_us"] = o["http.roundtrip_get_us"] - o["kvserve.handler_get_ns"]/1e3
	return o, l.tally, nil
}
