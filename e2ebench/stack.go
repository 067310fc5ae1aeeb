package main

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/admission"
	"repro/internal/analytics"
	"repro/internal/dstore"
	"repro/internal/lambda"
	"repro/internal/rcache"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// stack is the serving stack cmd/analyticsd assembles, on a loopback
// listener, with a serve.Client over at most Connections connections.
// When traced, timing wrappers sit at every composition boundary; they
// record only while rec is switched on.
type stack struct {
	m     *manifest
	w     workloadSpec
	reg   *telemetry.Registry
	trc   *trace.Tracer
	ctrl  *admission.Controller
	cache *rcache.Cache
	st    *store.Store         // store backend
	ar    *lambda.Architecture // lambda-cluster backend
	raw   analytics.Backend    // st or ar
	srv   *serve.Server
	hs    *http.Server
	ln    net.Listener
	tr    *http.Transport
	cli   *serve.Client
	// probes writes freshness probes over the same connections as cli
	// but without the timing transport: probes are never traced.
	probes *serve.Client
	specs  map[string]serve.ProtoSpec
	rec    *recorder     // nil unless traced
	done   chan struct{} // closed when the HTTP server has stopped
}

func (m *manifest) storeConfig() store.Config {
	d := m.Defaults
	return store.Config{Shards: d.Shards, BucketWidth: d.BucketWidth, RingBuckets: d.RingBuckets}
}

func newStack(m *manifest, w workloadSpec, traced bool) (s *stack, err error) {
	d := m.Defaults
	s = &stack{m: m, w: w, reg: telemetry.New(), specs: schema()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.trc = trace.NewTracer(trace.Config{
		SampleRate:    d.TraceSampleRate,
		SlowThreshold: time.Duration(d.TraceSlowMS) * time.Millisecond,
	})
	var lag func() uint64
	switch w.Backend {
	case "store":
		if s.st, err = store.New(m.storeConfig()); err != nil {
			return s, err
		}
		s.st.SetTelemetry(s.reg)
		s.st.SetTracer(s.trc)
		s.raw = s.st
	case "lambda-cluster":
		s.ar, err = lambda.New(lambda.Config{
			Batch:        m.storeConfig(),
			Cluster:      &dstore.Config{Partitions: d.Partitions, Store: m.storeConfig()},
			ClusterNodes: d.Nodes,
		})
		if err != nil {
			return s, err
		}
		s.ar.SetTelemetry(s.reg)
		s.ar.SetTracer(s.trc)
		s.raw = s.ar
		lag = s.ar.Cluster().Lag
	default:
		return s, fmt.Errorf("unknown backend %q", w.Backend)
	}
	cfg := admission.Config{
		Rate: d.AdmissionRate, Burst: d.AdmissionBurst,
		MetricRate: d.AdmissionRate, MetricBurst: d.AdmissionBurst,
		TenantRate: d.AdmissionRate, TenantBurst: d.AdmissionBurst,
	}
	if lag != nil {
		cfg.Backpressure = admission.BackpressureConfig{Lag: lag, LagHigh: d.LagHigh}
	}
	if s.ctrl, err = admission.New(cfg); err != nil {
		return s, err
	}
	s.ctrl.SetTelemetry(s.reg)
	if s.cache, err = rcache.New(rcache.Config{BucketWidth: d.BucketWidth, MaxEntries: d.CacheEntries}); err != nil {
		return s, err
	}

	// Admission wraps outside instrumentation, as in analyticsd.
	be := s.raw
	if traced {
		s.rec = newRecorder()
		be = wrapBackend(be, s.rec, spanRaw)
	}
	be = analytics.Instrument(be, s.reg, w.Backend, analytics.WithTracer(s.trc))
	if traced {
		be = wrapBackend(be, s.rec, spanInstr)
	}
	be = analytics.Admit(be, s.ctrl)
	if traced {
		be = wrapBackend(be, s.rec, spanAdmit)
	}
	s.srv, err = serve.NewServer(serve.Config{
		Backend:        be,
		Cache:          s.cache,
		Registry:       s.reg,
		Tracer:         s.trc,
		DefaultTimeout: time.Duration(d.DefaultTimeout) * time.Millisecond,
		MaxTimeout:     time.Duration(d.MaxTimeout) * time.Millisecond,
		Admission:      s.ctrl,
		NegCache:       d.NegCacheEntries,
	})
	if err != nil {
		return s, err
	}
	var h http.Handler = s.srv.Handler()
	if traced {
		h = handlerMiddleware(s.rec, h)
	}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return s, err
	}
	s.hs = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(s.ln)
	}()

	conns := m.Generator.Connections
	s.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	var rt http.RoundTripper = s.tr
	if traced {
		rt = &timedTransport{rt: s.tr, rec: s.rec}
	}
	base := "http://" + s.ln.Addr().String()
	s.cli = serve.NewClient(base, &http.Client{Transport: rt})
	s.probes = serve.NewClient(base, &http.Client{Transport: s.tr})
	return s, nil
}

// specOf resolves a metric's spec for serve.DecodeResult.
func (s *stack) specOf(metric string) (serve.ProtoSpec, bool) {
	spec, ok := s.specs[metric]
	return spec, ok
}

// setup registers the schema and preloads the workload's history
// through the edge, then waits until the stack is ready: the cluster
// drained and a first batch view built for Lambda.
func (s *stack) setup(g *gen) error {
	for _, name := range sortedKeys(s.specs) {
		if err := s.cli.Register(name, s.specs[name]); err != nil {
			return fmt.Errorf("register %s: %w", name, err)
		}
	}
	for b := int64(0); b < s.w.Preload; b++ {
		if err := s.cli.ObserveBatch(g.preloadBatch(b)); err != nil {
			return fmt.Errorf("preload bucket %d: %w", b, err)
		}
	}
	if s.ar != nil {
		if err := s.ar.Drain(); err != nil {
			return err
		}
		if _, err := s.ar.RunBatch(); err != nil {
			return err
		}
	}
	return nil
}

// close stops the server and waits for it, then the backend. Teardown
// errors change nothing a finished run reports, so they are dropped.
func (s *stack) close() {
	if s.done != nil {
		_ = s.hs.Close()
		<-s.done
	} else if s.ln != nil {
		_ = s.ln.Close()
	}
	if s.tr != nil {
		s.tr.CloseIdleConnections()
	}
	if s.ar != nil {
		_ = s.ar.Close()
	}
}
