package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Span names. A span is recorded by the benchmark around a call it
// makes into a layer; spans inside the program are a later change.
const (
	spanRequest = "request"         // serve-point client: request written → response read
	spanHandler = "kvserve.handler" // child of request, recorded by traceHandler
)

// spanHeader carries the slot the handler's span goes into, which also
// identifies the request it belongs to.
const spanHeader = "X-Bench-Span"

// span is one recorded interval. Spans of one request share Trace;
// Parent is the Span id of the span that caused it (0 for a root).
type span struct {
	Trace  int64  `json:"trace"`
	Span   int64  `json:"span"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory allocated up front; a full buffer drops
// further spans and counts them. Slots are reserved with one atomic add,
// so the workers and the server's connection goroutines share it.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

// maxSpans bounds the span file (~100 bytes a span as JSON).
const maxSpans = 1 << 16

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, maxSpans)}
}

// reserve claims n consecutive slots and returns the first, or -1 when
// the buffer is full. A request reserves its whole span tree before it
// is sent, so a child is never kept without its parent.
func (t *tracer) reserve(n int) int64 {
	first := t.next.Add(int64(n)) - int64(n)
	if first+int64(n) > int64(len(t.spans)) {
		t.dropped.Add(int64(n))
		return -1
	}
	return first
}

// put fills a reserved slot. The root of a tree sits in the tree's first
// slot; trace and span ids are slot numbers plus one, so 0 means "none".
func (t *tracer) put(slot, root, parent int64, name string, start, end time.Time) {
	t.spans[slot] = span{
		Trace: root + 1, Span: slot + 1, Parent: parent + 1, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	}
}

// root records a span with no parent and no children.
func (t *tracer) root(name string, start, end time.Time) {
	if slot := t.reserve(1); slot >= 0 {
		t.put(slot, slot, -1, name, start, end)
	}
}

// recorded returns the filled spans. Call it after every goroutine that
// records has stopped.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	out := make([]span, 0, n)
	for _, s := range t.spans[:n] {
		if s.Span != 0 { // a reserved slot whose request failed stays empty
			out = append(out, s)
		}
	}
	return out
}

// traceHandler wraps the server's handler for traced slices: a request
// that carries spanHeader gets a kvserve.handler span under the client's
// request span.
func traceHandler(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slot, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil || slot < 1 || slot >= int64(len(t.spans)) {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		t.put(slot, slot-1, slot-1, spanHandler, start, time.Now())
	})
}

// checkSpans verifies the span file's invariants: every child lies
// inside its parent and shares its trace id.
func checkSpans(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.Span, s.Name)
		}
		byID[s.Span] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			return fmt.Errorf("span %d (%s) has no parent %d", s.Span, s.Name, s.Parent)
		case p.Trace != s.Trace:
			return fmt.Errorf("span %d (%s) is in trace %d, its parent in %d", s.Span, s.Name, s.Trace, p.Trace)
		case s.Start < p.Start || s.End > p.End:
			return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent [%d,%d]", s.Span, s.Name, s.Start, s.End, p.Start, p.End)
		}
	}
	return nil
}

// spanStat summarises the spans of one name: how many, their median
// duration, and their median self time (duration minus the part their
// children cover; children of one parent do not overlap here).
type spanStat struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	MedianNs float64 `json:"median_ns"`
	SelfNs   float64 `json:"self_median_ns"`
}

func summariseSpans(spans []span) []spanStat {
	children := make(map[int64]int64) // parent span id → time its children cover
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	dur := make(map[string][]float64)
	self := make(map[string][]float64)
	for _, s := range spans {
		d := s.End - s.Start
		dur[s.Name] = append(dur[s.Name], float64(d))
		self[s.Name] = append(self[s.Name], float64(d-children[s.Span]))
	}
	out := make([]spanStat, 0, len(dur))
	for name, ds := range dur {
		_, med, _ := quartiles(ds)
		_, selfMed, _ := quartiles(self[name])
		out = append(out, spanStat{Name: name, Count: len(ds), MedianNs: med, SelfNs: selfMed})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans appends the spans to path as JSON lines, tagging each with
// its workload and round (span ids restart in every traced slice).
func writeSpans(path, workload string, round int, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Workload string `json:"workload"`
		Round    int    `json:"round"`
		span
	}
	for _, s := range spans {
		if err := enc.Encode(line{workload, round, s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
