// instrument.go is the generic telemetry decorator over the Backend
// contract: wrap any serving backend and every Observe and Query is
// counted per metric and timed, without the backend knowing. It lives
// in this package (not internal/telemetry) because the decorator speaks
// the Backend contract and telemetry must stay a leaf package the store
// itself can import; the facade re-exports it as Instrument.
package analytics

import (
	"context"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Option configures an Instrument wrapper beyond its registry.
type Option func(*options)

type options struct {
	tracer *trace.Tracer
}

// WithTracer makes the wrapper the tracing root of the serving stack:
// every Observe opens a head-sampled ingest root (analytics.observe)
// whose context rides the observation into the backend — through the
// store's shard spans or, in cluster mode, across the log via record
// headers — and every Query opens an always-started root
// (analytics.query) carrying the request summary as attributes, kept
// at Finish when sampled or over the tracer's slow threshold (the
// latter also lands in the slow-query log). A nil tracer is a no-op.
func WithTracer(tr *trace.Tracer) Option {
	return func(o *options) { o.tracer = tr }
}

// Instrument wraps be so every Observe and Query is recorded in reg:
// per-backend/per-metric operation counters
// (analytics_backend_observe_total, analytics_backend_query_total,
// labeled backend=<name>, metric=<metric>), per-backend latency
// histograms (analytics_backend_observe_seconds,
// analytics_backend_query_seconds) and per-operation error counters
// (analytics_backend_errors_total, labeled op=observe|query). The
// wrapper delegates verbatim — answers are byte-identical to the bare
// backend's, which the conformance suite pins — and implements
// BatchObserver, ContextQuerier and Flusher over any backend: each
// delegates when the underlying backend has the surface and otherwise
// falls back to its contract equivalent (a loop of Observe, a context
// check before Query, a no-op Flush).
//
// A nil registry with no options returns be unchanged, so call sites
// can wire instrumentation unconditionally; with WithTracer the wrapper
// also traces (a nil registry then just mutes the metrics — every
// telemetry handle is nil-safe).
func Instrument(be Backend, reg *telemetry.Registry, backend string, opts ...Option) Backend {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if reg == nil && o.tracer == nil {
		return be
	}
	return &instrumented{
		be:      be,
		reg:     reg,
		backend: backend,
		trc:     o.tracer,
		obsLat: reg.Histogram("analytics_backend_observe_seconds",
			"Observe latency through the Backend contract.",
			0, 1e-3, 64, "backend", backend),
		qryLat: reg.Histogram("analytics_backend_query_seconds",
			"Query latency through the Backend contract.",
			0, 50e-3, 64, "backend", backend),
		obsErrs: reg.Counter("analytics_backend_errors_total",
			"Backend operations that returned an error.",
			"backend", backend, "op", "observe"),
		qryErrs: reg.Counter("analytics_backend_errors_total",
			"Backend operations that returned an error.",
			"backend", backend, "op", "query"),
		obsCount: make(map[string]*telemetry.Counter),
		qryCount: make(map[string]*telemetry.Counter),
	}
}

type instrumented struct {
	be      Backend
	reg     *telemetry.Registry
	backend string
	trc     *trace.Tracer // nil when tracing is off

	obsLat  *telemetry.Histogram
	qryLat  *telemetry.Histogram
	obsErrs *telemetry.Counter
	qryErrs *telemetry.Counter

	// Per-metric operation counters, pre-created on RegisterMetric (the
	// contract requires registration before first use) and created
	// lazily for anything that slips past — e.g. a backend wrapped
	// after its metrics were registered.
	mu       sync.RWMutex
	obsCount map[string]*telemetry.Counter
	qryCount map[string]*telemetry.Counter
}

// queryAttrs summarizes a request for the query root span — and so for
// the slow-query log, which snapshots the root's attributes.
func (in *instrumented) queryAttrs(req store.QueryRequest) []trace.Attr {
	metrics := req.Metrics
	if len(metrics) == 0 && req.Metric != "" {
		metrics = []string{req.Metric}
	}
	return []trace.Attr{
		trace.Str("backend", in.backend),
		trace.Str("metrics", strings.Join(metrics, ",")),
		trace.Int("keys", int64(len(req.Keys))),
		trace.Int("from", req.From),
		trace.Int("to", req.To),
		trace.Bool("aggregate", req.Aggregate),
		trace.Bool("all_keys", req.AllKeys),
	}
}

// counterFor returns the per-metric counter from m, registering the
// series on first sight. family is the metric family name.
func (in *instrumented) counterFor(m map[string]*telemetry.Counter, family, metric string) *telemetry.Counter {
	in.mu.RLock()
	c, ok := m[metric]
	in.mu.RUnlock()
	if ok {
		return c
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if c, ok = m[metric]; ok {
		return c
	}
	c = in.reg.Counter(family, "Backend operations by metric.",
		"backend", in.backend, "metric", metric)
	m[metric] = c
	return c
}

func (in *instrumented) RegisterMetric(name string, proto store.Prototype) error {
	if err := in.be.RegisterMetric(name, proto); err != nil {
		return err
	}
	// Pre-create the metric's series so the hot paths take the RLock.
	in.counterFor(in.obsCount, "analytics_backend_observe_total", name)
	in.counterFor(in.qryCount, "analytics_backend_query_total", name)
	return nil
}

func (in *instrumented) Observe(obs store.Observation) error {
	if sp := in.trc.StartSampled("analytics.observe"); sp != nil {
		// Head-sampled ingest root: the context rides the observation so
		// every layer underneath stitches child spans onto this trace.
		obs.Trace = sp.Context()
		sp.SetAttrs(trace.Str("backend", in.backend),
			trace.Str("metric", obs.Metric), trace.Str("key", obs.Key))
		defer sp.Finish()
	}
	t0 := time.Now()
	err := in.be.Observe(obs)
	in.obsLat.ObserveSince(t0)
	if err != nil {
		in.obsErrs.Inc()
		return err
	}
	in.counterFor(in.obsCount, "analytics_backend_observe_total", obs.Metric).Inc()
	return nil
}

// ObserveBatch counts and times the batch as one operation per
// observation: the latency histogram records the whole call (batched
// ingest is priced by the batch), the per-metric counters advance by
// each metric's share, and errors count once. Delegation goes through
// the package helper, so a backend without BatchObserver still absorbs
// the batch as a loop.
func (in *instrumented) ObserveBatch(obs []store.Observation) error {
	if len(obs) == 0 {
		return nil
	}
	t0 := time.Now()
	err := ObserveBatch(in.be, obs)
	in.obsLat.ObserveSince(t0)
	if err != nil {
		in.obsErrs.Inc()
		return err
	}
	for i := 0; i < len(obs); {
		j := i + 1
		for j < len(obs) && obs[j].Metric == obs[i].Metric {
			j++
		}
		in.counterFor(in.obsCount, "analytics_backend_observe_total", obs[i].Metric).Add(uint64(j - i))
		i = j
	}
	return nil
}

func (in *instrumented) Query(req store.QueryRequest) (store.QueryResult, error) {
	return in.QueryContext(context.Background(), req)
}

// QueryContext instruments exactly like Query while threading ctx into
// the backend (see the package-level QueryContext helper); the wrapper
// itself adds no cancellation points, so answers stay byte-identical
// to the bare backend's.
func (in *instrumented) QueryContext(ctx context.Context, req store.QueryRequest) (store.QueryResult, error) {
	if sp := in.trc.StartRoot("analytics.query"); sp != nil {
		// Query roots always start; the tail decision at Finish keeps the
		// trace when head-sampled or over the slow threshold, and a slow
		// root lands in the slow-query log with these summary attributes
		// plus the per-stage child durations.
		req.Trace = sp.Context()
		sp.SetAttrs(in.queryAttrs(req)...)
		defer sp.Finish()
	}
	t0 := time.Now()
	res, err := QueryContext(ctx, in.be, req)
	in.qryLat.ObserveSince(t0)
	if err != nil {
		in.qryErrs.Inc()
		return res, err
	}
	if len(req.Metrics) == 0 {
		in.counterFor(in.qryCount, "analytics_backend_query_total", req.Metric).Inc()
	} else {
		for _, m := range req.Metrics {
			in.counterFor(in.qryCount, "analytics_backend_query_total", m).Inc()
		}
	}
	return res, nil
}

func (in *instrumented) Keys(metric string) []string { return in.be.Keys(metric) }

func (in *instrumented) Stats() store.Stats { return in.be.Stats() }

// Flush settles the backend's producer-side buffers when it has any.
func (in *instrumented) Flush() {
	if f, ok := in.be.(Flusher); ok {
		f.Flush()
	}
}
