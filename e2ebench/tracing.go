package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/store"
)

// Span names. Backend wrapper spans are "<boundary>.<method>".
const (
	spanCall      = "client.call"
	spanTransport = "client.transport"
	spanDecode    = "client.decode_result"
	spanHandler   = "serve.handler"
	spanAdmit     = "be.admit"
	spanInstr     = "be.instrument"
	spanRaw       = "be.raw"
)

// spanHeader carries the client transport span id to the handler
// middleware in the same process, so the server span gets its parent.
const spanHeader = "X-Bench-Span"

// span is one timed interval at a composition boundary. Start and End
// are nanoseconds since the recorder's epoch; Parent is -1 for roots.
type span struct {
	Name     string `json:"name"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Req      int    `json:"req"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Kind     string `json:"kind,omitempty"`
	Shape    string `json:"shape,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	ReqBytes int64  `json:"req_bytes,omitempty"`
	Bytes    int64  `json:"resp_bytes,omitempty"`
	ConnWait int64  `json:"conn_wait_ns,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory. A span's parent is explicit: the
// request context carries it on the query path (the serving edge
// derives the backend's context from the HTTP request's). The observe
// path has no context, so the recorder holds the in-flight traced
// observe instead: its client call span, its innermost open server-side
// span, and its first observation, which tells the backend wrappers
// whether a batch is that observe. At most one workload observe is in
// flight (the harness's ordered lane); probe writes, which bypass the
// lane, are never traced. Work outside a traced client call records
// nothing, and every method on an unrecorded span (id -1) is a no-op.
type recorder struct {
	epoch time.Time
	// call is the client call span of the in-flight traced observe;
	// observe is the innermost open server-side span of it. -1 when
	// none.
	call, observe atomic.Int64
	first         atomic.Pointer[store.Observation]

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.call.Store(-1)
	r.observe.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under parent; only spanCall may be a root.
func (r *recorder) begin(name string, parent int) int {
	if r == nil || (parent < 0 && name != spanCall) {
		return -1
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	req := id
	if parent >= 0 {
		req = r.spans[parent].Req
	}
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: start, End: -1})
	return id
}

// end closes a span, applying edit to it.
func (r *recorder) end(id int, edit func(*span)) {
	if id < 0 {
		return
	}
	t := r.now()
	r.annotate(id, func(s *span) {
		s.End = t
		if edit != nil {
			edit(s)
		}
	})
}

// annotate edits a span in place.
func (r *recorder) annotate(id int, edit func(*span)) {
	if id < 0 {
		return
	}
	r.mu.Lock()
	edit(&r.spans[id])
	r.mu.Unlock()
}

// enterObserve opens a span under the in-flight traced observe's
// innermost span, if batch is that observe, and makes it the innermost;
// the returned func ends it.
func (r *recorder) enterObserve(name string, batch []store.Observation) func() {
	if r == nil || len(batch) == 0 {
		return func() {}
	}
	first := r.first.Load()
	if first == nil || !sameObservation(*first, batch[0]) {
		return func() {}
	}
	parent := int(r.observe.Load())
	id := r.begin(name, parent)
	if id < 0 {
		return func() {}
	}
	r.observe.Store(int64(id))
	return func() {
		r.observe.Store(int64(parent))
		r.end(id, nil)
	}
}

func sameObservation(a, b store.Observation) bool {
	return a.Metric == b.Metric && a.Key == b.Key && a.Item == b.Item && a.Value == b.Value && a.Time == b.Time
}

type spanKey struct{}

func withSpan(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int {
	if id, ok := ctx.Value(spanKey{}).(int); ok {
		return id
	}
	return -1
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
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

// timedBackend times every call into the wrapped backend as a span
// named after its boundary. wrapBackend exposes it with exactly the
// optional interfaces the wrapped value implements.
type timedBackend struct {
	be   analytics.Backend
	rec  *recorder
	name string
}

func (t *timedBackend) RegisterMetric(name string, proto store.Prototype) error {
	return t.be.RegisterMetric(name, proto)
}

func (t *timedBackend) Observe(obs store.Observation) error {
	defer t.rec.enterObserve(t.name+".observe", []store.Observation{obs})()
	return t.be.Observe(obs)
}

func (t *timedBackend) ObserveBatch(obs []store.Observation) error {
	defer t.rec.enterObserve(t.name+".observe", obs)()
	return t.be.(analytics.BatchObserver).ObserveBatch(obs)
}

// Query and QueryPoint carry no context, so they cannot name a parent;
// the serving edge queries through QueryContext.
func (t *timedBackend) Query(req store.QueryRequest) (store.QueryResult, error) {
	return t.be.Query(req)
}

func (t *timedBackend) QueryContext(ctx context.Context, req store.QueryRequest) (store.QueryResult, error) {
	id := t.rec.begin(t.name+".query", spanFrom(ctx))
	if id >= 0 {
		ctx = withSpan(ctx, id)
		defer t.rec.end(id, nil)
	}
	return t.be.(analytics.ContextQuerier).QueryContext(ctx, req)
}

func (t *timedBackend) QueryPoint(metric, key string, from, to int64) (store.Synopsis, error) {
	return t.be.(analytics.PointQuerier).QueryPoint(metric, key, from, to)
}

func (t *timedBackend) Flush() { t.be.(analytics.Flusher).Flush() }

func (t *timedBackend) Keys(metric string) []string { return t.be.Keys(metric) }

func (t *timedBackend) Stats() store.Stats { return t.be.Stats() }

// wrapBackend returns be timed at boundary name. The result implements
// BatchObserver, ContextQuerier, Flusher and PointQuerier exactly when
// be does, so the traced stack takes the same code paths (the serving
// edge and the decorators type-assert for each of them).
func wrapBackend(be analytics.Backend, rec *recorder, name string) analytics.Backend {
	t := &timedBackend{be: be, rec: rec, name: name}
	type (
		B  = analytics.Backend
		BO = analytics.BatchObserver
		CQ = analytics.ContextQuerier
		FL = analytics.Flusher
		PQ = analytics.PointQuerier
	)
	mask := 0
	if _, ok := be.(BO); ok {
		mask |= 1
	}
	if _, ok := be.(CQ); ok {
		mask |= 2
	}
	if _, ok := be.(FL); ok {
		mask |= 4
	}
	if _, ok := be.(PQ); ok {
		mask |= 8
	}
	switch mask {
	case 0:
		return struct{ B }{t}
	case 1:
		return struct {
			B
			BO
		}{t, t}
	case 2:
		return struct {
			B
			CQ
		}{t, t}
	case 3:
		return struct {
			B
			BO
			CQ
		}{t, t, t}
	case 4:
		return struct {
			B
			FL
		}{t, t}
	case 5:
		return struct {
			B
			BO
			FL
		}{t, t, t}
	case 6:
		return struct {
			B
			CQ
			FL
		}{t, t, t}
	case 7:
		return struct {
			B
			BO
			CQ
			FL
		}{t, t, t, t}
	case 8:
		return struct {
			B
			PQ
		}{t, t}
	case 9:
		return struct {
			B
			BO
			PQ
		}{t, t, t}
	case 10:
		return struct {
			B
			CQ
			PQ
		}{t, t, t}
	case 11:
		return struct {
			B
			BO
			CQ
			PQ
		}{t, t, t, t}
	case 12:
		return struct {
			B
			FL
			PQ
		}{t, t, t}
	case 13:
		return struct {
			B
			BO
			FL
			PQ
		}{t, t, t, t}
	case 14:
		return struct {
			B
			CQ
			FL
			PQ
		}{t, t, t, t}
	default:
		return struct {
			B
			BO
			CQ
			FL
			PQ
		}{t, t, t, t, t}
	}
}

// timedTransport is the client-side http.RoundTripper boundary: its
// span runs from RoundTrip until the response body is closed, and
// records how long the request waited for a connection. Its parent is
// the client call in the request context, or the in-flight observe.
type timedTransport struct {
	rt  http.RoundTripper
	rec *recorder
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanFrom(req.Context())
	if parent < 0 && req.URL.Path == "/v1/observe" {
		parent = int(t.rec.call.Load())
	}
	id := t.rec.begin(spanTransport, parent)
	if id < 0 {
		return t.rt.RoundTrip(req)
	}
	var getConn time.Time
	ct := &httptrace.ClientTrace{
		GetConn: func(string) { getConn = time.Now() },
		GotConn: func(httptrace.GotConnInfo) {
			wait := int64(time.Since(getConn))
			t.rec.annotate(id, func(s *span) { s.ConnWait = wait })
		},
	}
	out := req.Clone(httptrace.WithClientTrace(req.Context(), ct))
	out.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := t.rt.RoundTrip(out)
	if err != nil {
		t.rec.end(id, nil)
		return resp, err
	}
	resp.Body = &closeHook{ReadCloser: resp.Body, done: func() { t.rec.end(id, nil) }}
	return resp, nil
}

type closeHook struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(c.done)
	return err
}

// handlerMiddleware is the server-side boundary: one span per request,
// parented to the client transport span named in spanHeader, with the
// request and response body sizes. It hands the span on through the
// request context (queries) or the observe slot (observes).
func handlerMiddleware(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		id := rec.begin(spanHandler, parent)
		if r.URL.Path == "/v1/observe" {
			rec.observe.Store(int64(id))
			defer rec.observe.Store(-1)
		}
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r.WithContext(withSpan(r.Context(), id)))
		rec.end(id, func(s *span) {
			s.ReqBytes = r.ContentLength
			s.Bytes = cw.n
		})
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}
