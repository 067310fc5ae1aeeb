package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// harness drives one stack with one generator.
type harness struct {
	s      *stack
	g      *gen
	panels []store.QueryRequest
	limit  time.Duration // probe visibility limit
	gap    time.Duration // first probe poll interval
	maxGap time.Duration // longest probe poll interval

	// lane orders the workload's writes: it has one ordered producer, so
	// acknowledged order is applied order and the reference can replay
	// acked in that order.
	lane   sync.Mutex
	acked  []ackRec
	ackObs atomic.Uint64

	attempted atomic.Uint64
	failed    atomic.Uint64
	firstErr  atomic.Pointer[error]

	batcher *batcher // lambda-cluster only

	// alternate traces every other workload op when the stack is
	// traced; the untraced half gives the tracing overhead.
	alternate bool
}

// traced reports whether op o runs under a client call span.
func (h *harness) traced(o op) bool { return h.alternate && o.idx%2 == 1 }

// call opens a traced request's root span, or returns -1.
func (h *harness) call(traced bool) int {
	if !traced {
		return -1
	}
	return h.s.rec.begin(spanCall, -1)
}

// ackRec names one acknowledged observe request; the batch itself is
// regenerated from it.
type ackRec struct {
	phase, idx uint64
	t          int64
}

func newHarness(s *stack, g *gen) *harness {
	h := &harness{
		s: s, g: g, panels: g.panels(),
		limit:  time.Duration(g.m.Generator.ProbeLimitMS) * time.Millisecond,
		gap:    time.Duration(g.m.Generator.ProbePollMS) * time.Millisecond,
		maxGap: time.Duration(g.m.Generator.ProbeMaxPoll) * time.Millisecond,
	}
	for b := int64(0); b < g.w.Preload; b++ {
		h.acked = append(h.acked, ackRec{phase: phasePreload, idx: uint64(b)})
	}
	if s.ar != nil && g.w.BatchEveryObs > 0 {
		h.batcher = newBatcher(s)
	}
	return h
}

// close stops the batcher and tears the stack down.
func (h *harness) close() {
	if h.batcher != nil {
		h.batcher.close()
	}
	h.s.close()
}

func (h *harness) fail(err error) {
	h.failed.Add(1)
	h.firstErr.CompareAndSwap(nil, &err)
}

// sample is what one op of a measured phase reports.
type sample struct {
	kind   opKind
	shape  string
	traced bool
	window int           // one-second window of the schedule it was due in
	lat    time.Duration // completion - due
	fresh  time.Duration // probe: visible - due
	seen   bool
	err    bool
}

// observe sends one workload write through the ordered lane.
func (h *harness) observe(o op, wait func() time.Time, smp *sample) {
	t := h.g.eventTime(o.vt)
	b := h.g.batch(o.phase, o.idx, t)
	due := wait()
	call := h.call(h.traced(o))
	h.lane.Lock()
	h.attempted.Add(1)
	if call >= 0 {
		h.s.rec.call.Store(int64(call))
		h.s.rec.first.Store(&b[0])
	}
	err := h.s.cli.ObserveBatch(b)
	if call >= 0 {
		h.s.rec.call.Store(-1)
		h.s.rec.first.Store(nil)
	}
	if err == nil {
		h.acked = append(h.acked, ackRec{phase: o.phase, idx: o.idx, t: t})
		n := h.ackObs.Add(uint64(len(b)))
		if h.batcher != nil {
			h.batcher.note(n / h.g.w.BatchEveryObs)
		}
	}
	h.lane.Unlock()
	h.s.rec.end(call, func(s *span) { s.Kind = "observe" })
	if smp != nil {
		smp.lat = time.Since(due)
		smp.err = err != nil
	}
	if err != nil {
		h.fail(err)
	}
}

// query sends one request and decodes its answer.
func (h *harness) query(req store.QueryRequest, kind, shape string, traced bool) (store.QueryResult, bool, error) {
	call := h.call(traced)
	h.attempted.Add(1)
	resp, err := h.s.cli.QueryWire(withSpan(context.Background(), call), req)
	var res store.QueryResult
	if err == nil {
		dec := h.s.rec.begin(spanDecode, call)
		res, err = serve.DecodeResult(resp, h.s.specOf)
		h.s.rec.end(dec, nil)
	}
	h.s.rec.end(call, func(s *span) { s.Kind, s.Shape, s.Cached = kind, shape, resp.Cached })
	if err != nil {
		h.fail(err)
	}
	return res, resp.Cached, err
}

func (h *harness) workloadQuery(o op, wait func() time.Time, smp *sample) {
	req := h.g.query(o, h.panels)
	due := wait()
	_, _, err := h.query(req, "query", o.shape, h.traced(o))
	if smp != nil {
		smp.lat = time.Since(due)
		smp.err = err != nil
	}
}

// probe writes a freshness probe and queries until the write is
// visible. Probes are a canary of their own: they write unique keys of
// their own metric, so they need not wait for the workload's ordered
// lane, and they write through an untimed client. It
// returns the poll that keeps looking, or nil once settled; with
// follow false it looks once.
func (h *harness) probe(o op, wait func() time.Time, smp *sample, follow bool) poll {
	obs, req := h.g.probe(o)
	due := wait()
	h.attempted.Add(1)
	err := h.s.probes.ObserveBatch([]store.Observation{obs})
	if err != nil {
		h.fail(err)
		if smp != nil {
			smp.err = true
		}
		return nil
	}
	look := func() bool {
		res, _, err := h.query(req, "probe", "", false)
		switch {
		case err != nil:
			if smp != nil {
				smp.err = true
			}
			return true
		case res.Len() == 1 && res.Items() > 0:
			if smp != nil {
				smp.fresh, smp.seen = time.Since(due), true
			}
			return true
		case time.Since(due) > h.limit:
			h.fail(fmt.Errorf("probe %s not visible within %v", req.Keys[0], h.limit))
			if smp != nil {
				smp.err = true
			}
			return true
		}
		return false
	}
	if look() || !follow {
		return nil
	}
	return look
}

// phase is what one open-loop phase measured.
type phase struct {
	samples   []sample // measured ops only
	late      []time.Duration
	cpu       time.Duration
	attempted uint64
	vtEnd     float64
	rt        runtimeDelta
	obs       uint64 // observations acked in the phase (lane and probes)
}

// fixed runs the open-loop phase: seconds of schedule measured, plus
// the tail that lets measured probes settle.
func (h *harness) fixed(ph uint64, seconds, vt0 float64) phase {
	tail := h.limit.Seconds() + 1
	ops := h.g.schedule(ph, seconds+tail, vt0)
	measured := 0
	for measured < len(ops) && ops[measured].due < seconds {
		measured++
	}
	samples := make([]sample, measured)
	var probes atomic.Uint64
	loop := &openLoop{
		senders: h.g.m.Generator.Senders,
		ops:     ops,
		measure: seconds,
		pollGap: h.gap,
		maxGap:  h.maxGap,
		do: func(i int, o op, wait func() time.Time) poll {
			var smp *sample
			if i < measured {
				smp = &samples[i]
				smp.kind, smp.shape, smp.traced, smp.window = o.kind, o.shape, h.traced(o), int(o.due)
			}
			switch o.kind {
			case opObserve:
				h.observe(o, wait, smp)
			case opQuery:
				h.workloadQuery(o, wait, smp)
			default:
				// Only measured probes follow up; tail probes look once,
				// since the tail stops once the measured ones settle.
				probes.Add(1)
				return h.probe(o, wait, smp, i < measured)
			}
			return nil
		},
	}
	obs0, att0 := h.ackObs.Load(), h.attempted.Load()
	rt0, cpu0 := readRuntime(), cpuTime()
	start := time.Now().Add(5 * time.Millisecond)
	loop.run(start)
	p := phase{
		samples:   samples,
		late:      loop.late[:measured],
		cpu:       cpuTime() - cpu0,
		attempted: h.attempted.Load() - att0,
		rt:        readRuntime().sub(rt0),
		obs:       h.ackObs.Load() - obs0 + probes.Load(),
		vtEnd:     vt0 + seconds + tail,
	}
	return p
}

// saturate runs the closed-loop phase and returns completed requests
// per second.
func (h *harness) saturate(seconds float64) float64 {
	att0, fail0 := h.attempted.Load(), h.failed.Load()
	start := time.Now()
	closedLoop(h.g.m.Generator.Senders, start.Add(time.Duration(seconds*float64(time.Second))), func(k uint64) {
		o := h.g.saturationOp(k)
		now := func() time.Time { return time.Now() }
		switch o.kind {
		case opObserve:
			h.observe(o, now, nil)
		case opQuery:
			h.workloadQuery(o, now, nil)
		default:
			h.probe(o, now, nil, false)
		}
	})
	done := (h.attempted.Load() - att0) - (h.failed.Load() - fail0)
	return float64(done) / time.Since(start).Seconds()
}

// quiesce waits for pending batch runs, then (cluster) for the nodes
// to consume the log. It never flushes the router: acknowledged writes
// still in its buffers stay there, as they would for a user.
func (h *harness) quiesce() (time.Duration, error) {
	if h.batcher != nil {
		if err := h.batcher.wait(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	if h.s.ar != nil {
		cl := h.s.ar.Cluster()
		for cl.Lag() > 0 {
			if time.Since(start) > 30*time.Second {
				return 0, fmt.Errorf("cluster lag %d did not drain", cl.Lag())
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return time.Since(start), nil
}

// batcher runs lambda RunBatch once per fixed count of acknowledged
// observations, off the senders. At the fixed rate it keeps up, so a
// run makes the same number of batch runs every time.
type batcher struct {
	s      *stack
	due    atomic.Uint64
	wake   chan struct{} // capacity 1: a pending wake-up
	stop   chan struct{}
	done   chan struct{}
	mu     sync.Mutex
	ran    uint64
	durs   []time.Duration
	err    error
	idle   *sync.Cond
	closed bool
}

func newBatcher(s *stack) *batcher {
	b := &batcher{s: s, wake: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	b.idle = sync.NewCond(&b.mu)
	go b.loop()
	return b
}

// note records that n batches are due.
func (b *batcher) note(n uint64) {
	for {
		cur := b.due.Load()
		if n <= cur {
			return
		}
		if b.due.CompareAndSwap(cur, n) {
			break
		}
	}
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

func (b *batcher) loop() {
	defer close(b.done)
	for {
		select {
		case <-b.stop:
			return
		case <-b.wake:
		}
		for {
			b.mu.Lock()
			if b.ran >= b.due.Load() || b.err != nil {
				b.idle.Broadcast()
				b.mu.Unlock()
				break
			}
			b.mu.Unlock()
			// A batch run recomputes the whole view, so one run covers
			// every batch that fell due while it was behind.
			due := b.due.Load()
			t0 := time.Now()
			_, err := b.s.ar.RunBatch()
			b.mu.Lock()
			b.durs = append(b.durs, time.Since(t0))
			b.ran = due
			b.err = err
			b.mu.Unlock()
		}
	}
}

// wait blocks until every due batch has run.
func (b *batcher) wait() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.ran < b.due.Load() && b.err == nil {
		b.idle.Wait()
	}
	return b.err
}

func (b *batcher) close() {
	close(b.stop)
	<-b.done
}

func (b *batcher) durations() []time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]time.Duration(nil), b.durs...)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeDelta holds runtime/metrics counters over a phase.
type runtimeDelta struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeDelta{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value), totalCPU: val(s[2].Value)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
