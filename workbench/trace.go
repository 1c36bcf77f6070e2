package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mtsim/internal/cluster"
)

// The traced run records spans at three seams the benchmark owns, all
// outside the program: the client call (workload loop), a middleware
// around each node's Server.Handler(), and a wrapper installed as each
// node's cluster.Config.Transport. The op id and the calling span ride
// from the client to the fronting node in two request headers; the
// middleware puts them in the request context, and because the serve
// layer builds a forwarded request from that context the transport
// wrapper links the forward hop — and, through the same headers, the
// owner node's handler span — back to the op.

// span is one timed interval at a layer boundary.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // causing span, 0 for none
	Op     int64  `json:"op"`               // op id, -1 outside any op
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Route  string `json:"route,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"` // response bytes (handler spans)
	Start  int64  `json:"start_ns"`        // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// Span names.
const (
	spanOp      = "op"
	spanCall    = "client.call"
	spanBatch   = "core.batch"
	spanHandler = "serve.handler"
	spanForward = "cluster.forward"
)

// tracer keeps spans in memory while on; nothing is recorded while off,
// so one stack serves the untraced and the traced half of a run.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	ids    atomic.Int64
	probes atomic.Int64 // membership pings sent while on

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recorded returns a copy of the spans so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// active is an open span; nil when the tracer is off or absent, and
// every method is a no-op on nil.
type active struct {
	tr *tracer
	sp span
}

func (t *tracer) start(name string, op, parent int64) *active {
	if t == nil || !t.on.Load() {
		return nil
	}
	return &active{tr: t, sp: span{ID: t.ids.Add(1), Parent: parent, Op: op, Name: name, Start: t.now()}}
}

func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.sp.ID
}

// ctx carries the span as the parent of whatever the call causes.
func (a *active) ctx(ctx context.Context) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, traceRef{op: a.sp.Op, span: a.sp.ID})
}

func (a *active) end() {
	if a == nil {
		return
	}
	a.sp.End = a.tr.now()
	a.tr.record(a.sp)
}

type traceKey struct{}

// traceRef is the op id and the span a request was caused by.
type traceRef struct{ op, span int64 }

func traceFrom(ctx context.Context) (traceRef, bool) {
	ref, ok := ctx.Value(traceKey{}).(traceRef)
	return ref, ok
}

const (
	hdrOp     = "X-Bench-Op"
	hdrParent = "X-Bench-Parent"
)

func setRefHeaders(h http.Header, ref traceRef) {
	h.Set(hdrOp, strconv.FormatInt(ref.op, 10))
	h.Set(hdrParent, strconv.FormatInt(ref.span, 10))
}

func refFromHeaders(h http.Header) traceRef {
	op, err := strconv.ParseInt(h.Get(hdrOp), 10, 64)
	if err != nil {
		op = -1
	}
	parent, _ := strconv.ParseInt(h.Get(hdrParent), 10, 64) // absent: no parent
	return traceRef{op: op, span: parent}
}

// headerTransport is the client's transport: it copies the calling
// span from the request context into the headers.
type headerTransport struct{ next http.RoundTripper }

func (t *headerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := traceFrom(r.Context())
	if !ok {
		return t.next.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	setRefHeaders(r.Header, ref)
	return t.next.RoundTrip(r)
}

// tracingHandler is the middleware around one node's handler: a span
// per request, with the response size, and the op reference stored in
// the request context for the layers below.
type tracingHandler struct {
	tr   *tracer
	node string
	next http.Handler
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	ref := refFromHeaders(r.Header)
	sp := span{ID: h.tr.ids.Add(1), Parent: ref.span, Op: ref.op, Name: spanHandler,
		Node: h.node, Route: r.Method + " " + r.URL.Path, Start: h.tr.now()}
	cw := &countingWriter{ResponseWriter: w}
	ctx := context.WithValue(r.Context(), traceKey{}, traceRef{op: ref.op, span: sp.ID})
	h.next.ServeHTTP(cw, r.WithContext(ctx))
	sp.Bytes, sp.End = cw.n, h.tr.now()
	h.tr.record(sp)
}

// countingWriter counts response bytes and keeps streaming working.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// Flush keeps the SSE handler, which needs an http.Flusher, streaming.
func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// clusterTransport wraps one node's intra-cluster transport: it counts
// membership probes and records a span per forwarded request, from the
// send until the forwarding layer closes the reply body.
type clusterTransport struct {
	tr   *tracer
	node string
	next http.RoundTripper
}

func (t *clusterTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.tr.on.Load() {
		return t.next.RoundTrip(r)
	}
	if r.URL.Path == cluster.PingPath {
		t.tr.probes.Add(1)
		return t.next.RoundTrip(r)
	}
	ref, ok := traceFrom(r.Context())
	if !ok {
		return t.next.RoundTrip(r)
	}
	sp := span{ID: t.tr.ids.Add(1), Parent: ref.span, Op: ref.op, Name: spanForward,
		Node: t.node, Route: r.Method + " " + r.URL.Path, Start: t.tr.now()}
	r = r.Clone(r.Context())
	setRefHeaders(r.Header, traceRef{op: ref.op, span: sp.ID})
	resp, err := t.next.RoundTrip(r)
	if err != nil {
		sp.End = t.tr.now()
		t.tr.record(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.tr, sp: sp}
	return resp, nil
}

// spanBody closes a forward span when the reply body is closed.
type spanBody struct {
	io.ReadCloser
	tr   *tracer
	sp   span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.End = b.tr.now()
		b.tr.record(b.sp)
	})
	return err
}

// selfTimes returns each span's self time: its duration minus the part
// of it its child spans cover.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfRow is one line of the per-name self-time table.
type selfRow struct {
	name      string
	n         int
	meanUS    float64
	selfP50US float64
	selfOK    bool
	selfMS    float64
}

func selfTable(spans []span) []selfRow {
	self := selfTimes(spans)
	byName := make(map[string][]span)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	var rows []selfRow
	for name, ss := range byName {
		var dur, selfSum int64
		selfs := make([]float64, 0, len(ss))
		for _, s := range ss {
			dur += s.End - s.Start
			selfSum += self[s.ID]
			selfs = append(selfs, float64(self[s.ID])/1e3)
		}
		sort.Float64s(selfs)
		p50, ok := percentile(selfs, 0.5)
		rows = append(rows, selfRow{name: name, n: len(ss), meanUS: float64(dur) / float64(len(ss)) / 1e3,
			selfP50US: p50, selfOK: ok, selfMS: float64(selfSum) / 1e6})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].selfMS > rows[j].selfMS })
	return rows
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
