// Command e2ebench is the repository's end-to-end serving benchmark. It
// assembles the stack cmd/analyticsd assembles — serve.Server over
// analytics.Admit(analytics.Instrument(backend)), the rcache read
// cache, the negative cache, a telemetry registry, a 5% tracer and
// admission that never sheds — serves it on a loopback listener, and
// drives it with serve.Client from a seeded open-loop generator. The
// workloads, rates and mirrored analyticsd defaults are in
// manifest.json, which the program embeds.
//
// One run sets the stack up several times (set-up time is the median).
// The first set-up runs a closed-loop saturation phase (capacity); the
// last runs the fixed-rate open-loop phase, then checks every answer of
// the workload's own query shapes against a reference fed every
// acknowledged write. With --trace 1 the run instead traces every other
// request of the fixed-rate phase through timing wrappers at each
// composition boundary and reports per-layer metrics, the layer-sum
// check and the tracing overhead.
//
//	bash e2ebench/run.sh --workload dashboard --seed 1 --seconds 55 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (name → value and unit).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name (see manifest.json)")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	spanDir := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *traced == 1, *spanDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(name string, seed uint64, seconds float64, traced bool, spanDir string) (*result, error) {
	m, err := loadManifest()
	if err != nil {
		return nil, err
	}
	w, err := m.workload(name)
	if err != nil {
		return nil, err
	}
	if seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	g := newGen(m, w, seed)
	if traced {
		s, _, err := setUp(m, w, g, true)
		if err != nil {
			return nil, err
		}
		h := newHarness(s, g)
		defer h.close()
		return h.tracedRun(seconds, spanDir)
	}
	return plainRun(m, w, g, seconds)
}

// setUp builds a stack and sets it up, timing the set-up.
func setUp(m *manifest, w workloadSpec, g *gen, traced bool) (*stack, float64, error) {
	s, err := newStack(m, w, traced)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := s.setup(g); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return s, time.Since(t0).Seconds(), nil
}

// plainRun measures the end-to-end metrics. It sets a stack up several
// times (set-up time is the median): the first set-up runs the
// closed-loop saturation phase, so capacity is measured from the same
// starting state every run; the last runs the fixed-rate phase and the
// reference check.
func plainRun(m *manifest, w workloadSpec, g *gen, seconds float64) (*result, error) {
	gc := m.Generator
	if gc.Setups < 2 {
		return nil, errors.New("manifest: generator.setups must be at least 2")
	}
	fixedSecs := seconds * gc.FixedShare
	var setups []float64
	var capacity float64
	var satAttempted, satFailed uint64
	var h *harness
	for i := 0; i < gc.Setups; i++ {
		s, secs, err := setUp(m, w, g, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		switch {
		case i == gc.Setups-1:
			h = newHarness(s, g)
			defer h.close()
		case i == 0:
			sat := newHarness(s, g)
			capacity = sat.saturate(seconds - fixedSecs)
			satAttempted, satFailed = sat.attempted.Load(), sat.failed.Load()
			sat.close()
		default:
			s.close()
		}
	}

	p := h.fixed(phaseFixed, fixedSecs, 0)
	heap := liveHeapMB()
	v, err := h.verify(p.vtEnd)
	if err != nil {
		return nil, err
	}
	e := endToEnd(p, false)
	late := quantile(ms(p.late), 0.99)
	att, failed := h.attempted.Load()+satAttempted, h.failed.Load()+satFailed
	errRatio := float64(failed) / float64(max(att, 1))

	// observe_p99_ms and freshness_p99_ms are printed but not reported:
	// across ten runs on a shared 2-vCPU machine they spread wider than
	// any bound BENCHMARK.json may set.
	metrics := map[string]metric{
		"setup_s":          {median(setups), "s"},
		"observe_p50_ms":   {e.obsP50, "ms"},
		"query_p50_ms":     {e.qryP50, "ms"},
		"query_p99_ms":     {e.qryP99, "ms"},
		"freshness_p50_ms": {e.freshP50, "ms"},
		"capacity_ops_s":   {capacity, "1/s"},
		"cpu_us_per_op":    {float64(p.cpu) / 1e3 / float64(max(p.attempted, 1)), "us"},
		"live_heap_mb":     {heap, "MB"},
		"success_ratio":    {1 - errRatio, "ratio"},
		"answer_match_ratio": {
			1 - float64(v.wrong)/float64(max(v.cells, 1)), "ratio"},
	}
	fmt.Printf("workload %s: %d observes, %d queries, %d probes (%d visible after more than 500 ms) measured; generator late p99 %.3f ms (limit %.0f)\n",
		w.Name, e.nObs, e.nQry, e.nFresh, e.freshSlow, late, gc.LateLimitMS)
	fmt.Printf("  observe_p99_ms %.3f, freshness_p99_ms %.3f (not reported: too unsteady across runs)\n", e.obsP99, e.freshP99)
	fmt.Printf("  p99 over the whole phase: observe %.3f ms, query %.3f ms, freshness %.3f ms\n", e.obsP99All, e.qryP99All, e.freshP99All)
	fmt.Printf("  error_ratio %.6f (%d of %d requests); peak RSS %s\n", errRatio, failed, att, peakRSS())
	h.report(v)
	printMetrics(metrics)
	ok := v.ok() && failed == 0 && late <= gc.LateLimitMS
	if !ok {
		h.explain(v, late)
	}
	return &result{Correct: ok, Attempted: att, Failed: failed + uint64(v.unexplained), Metrics: metrics}, nil
}

// tracedRun measures the per-layer metrics. Every other request of
// the fixed-rate phase is traced; the untraced half, run on the same
// stack at the same moments, gives the tracing overhead.
func (h *harness) tracedRun(seconds float64, spanDir string) (*result, error) {
	gc := h.g.m.Generator
	h.alternate = true
	gs := h.sampleGauges()
	c0 := h.counters()
	p := h.fixed(phaseFixed, seconds, 0)
	c1 := h.counters()
	gs.finish()
	h.alternate = false
	drain, err := h.quiesce()
	if err != nil {
		return nil, err
	}
	spans := h.s.rec.snapshot()
	lr := h.layers(spans, p, c0, c1, gs, drain)
	v, err := h.verify(p.vtEnd)
	if err != nil {
		return nil, err
	}
	eb, et := endToEnd(p, false), endToEnd(p, true)
	lr.values["trace.overhead_observe_p50_ms"] = et.obsP50 - eb.obsP50
	lr.values["trace.overhead_query_p50_ms"] = et.qryP50 - eb.qryP50

	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", h.g.w.Name, h.g.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	metrics := map[string]metric{}
	for name, val := range lr.values {
		metrics[name] = metric{val, layerUnit(name)}
	}
	att, failed := h.attempted.Load(), h.failed.Load()
	tol := h.g.m.Checks.LayerSumTolerance
	sumOK := lr.gapObs <= tol && lr.gapQry <= tol && lr.broken == 0
	late := quantile(ms(p.late), 0.99)
	fmt.Printf("workload %s traced: %d request chains (%d broken), %d spans written to %s\n", h.g.w.Name, lr.chains, lr.broken, len(spans), path)
	fmt.Printf("  tracing overhead (traced minus untraced requests): observe p50 %+.3f ms, query p50 %+.3f ms (untraced %.3f / %.3f ms)\n",
		lr.values["trace.overhead_observe_p50_ms"], lr.values["trace.overhead_query_p50_ms"], eb.obsP50, eb.qryP50)
	fmt.Printf("  layer sum gap: observe %.3f, query %.3f (tolerance %.2f)\n", lr.gapObs, lr.gapQry, tol)
	h.report(v)
	printMetrics(metrics)
	ok := v.ok() && failed == 0 && sumOK && late <= gc.LateLimitMS
	if !sumOK {
		fmt.Println("  FLAG: the blocking path's layer times do not add up to the client round trip within tolerance")
	}
	if !ok {
		h.explain(v, late)
	}
	return &result{Correct: ok, Attempted: att, Failed: failed + uint64(v.unexplained), Metrics: metrics}, nil
}

type e2e struct {
	obsP50, obsP99, qryP50, qryP99, freshP50, freshP99 float64
	obsP99All, qryP99All, freshP99All                  float64
	nObs, nQry, nFresh, freshSlow                      int
}

// latencies is one latency stream of a phase, in milliseconds, by
// one-second window of the schedule.
type latencies [][]float64

func (l *latencies) add(window int, d time.Duration) {
	for len(*l) <= window {
		*l = append(*l, nil)
	}
	(*l)[window] = append((*l)[window], float64(d)/1e6)
}

func (l latencies) all() []float64 {
	var out []float64
	for _, w := range l {
		out = append(out, w...)
	}
	return out
}

// p99 is the mean over one-second windows of each window's 99th
// percentile. A stall or collection cycle still counts, in the windows
// it hits, but the figure does not hang on the handful of samples past
// the whole phase's 99th percentile, which swing from run to run on a
// shared 2-vCPU machine.
func (l latencies) p99() float64 {
	sum, n := 0.0, 0
	for _, w := range l {
		if len(w) > 0 {
			sum += quantile(w, 0.99)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// endToEnd summarizes a phase's samples; traced selects the traced
// half of an alternating phase (every sample of an untraced phase has
// traced false).
func endToEnd(p phase, traced bool) e2e {
	var obs, qry, fresh latencies
	for _, s := range p.samples {
		switch {
		case s.err, s.traced != traced:
		case s.kind == opObserve:
			obs.add(s.window, s.lat)
		case s.kind == opQuery:
			qry.add(s.window, s.lat)
		case s.seen:
			fresh.add(s.window, s.fresh)
		}
	}
	o, q, f := obs.all(), qry.all(), fresh.all()
	slow := 0
	for _, x := range f {
		if x > 500 {
			slow++
		}
	}
	return e2e{
		obsP50: quantile(o, 0.5), obsP99: obs.p99(), obsP99All: quantile(o, 0.99),
		qryP50: quantile(q, 0.5), qryP99: qry.p99(), qryP99All: quantile(q, 0.99),
		freshP50: quantile(f, 0.5), freshP99: fresh.p99(), freshP99All: quantile(f, 0.99),
		nObs: len(o), nQry: len(q), nFresh: len(f), freshSlow: slow,
	}
}

func (h *harness) report(v verdict) {
	fmt.Printf("  wrong_answers %d of %d cells", v.wrong, v.cells)
	if h.s.ar != nil {
		fmt.Printf(" (router-buffer window %d, read-cache window %d, unexplained %d; router holds %d acknowledged observations)",
			v.routerWindow, v.cacheWindow, v.unexplained, h.routerBuffered())
	}
	fmt.Println()
}

func (h *harness) explain(v verdict, late float64) {
	if v.unexplained > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: %d answers differ from the reference; first: %s\n", v.unexplained, v.detail)
	}
	if e := h.firstErr.Load(); e != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %d requests failed; first: %v\n", h.failed.Load(), *e)
	}
	if limit := h.g.m.Generator.LateLimitMS; late > limit {
		fmt.Fprintf(os.Stderr, "e2ebench: generator ran %.1f ms late at p99, over its %.0f ms limit\n", late, limit)
	}
}

// peakRSS reads the process's peak resident set from /proc, for the
// report only.
func peakRSS() string {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			return strings.Join(strings.Fields(line)[1:], " ")
		}
	}
	return "unknown"
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "_us_per_op"), strings.Contains(name, "_us."):
		return "us"
	case strings.HasSuffix(name, "_bytes"), strings.HasSuffix(name, "bytes_per_op"):
		return "bytes"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_per_kobs"):
		return "1/kobs"
	case strings.HasSuffix(name, "ratio"), strings.HasSuffix(name, "fraction"), strings.HasSuffix(name, "skew"), strings.HasSuffix(name, "_gap_observe"), strings.HasSuffix(name, "_gap_query"):
		return "ratio"
	default:
		return "count"
	}
}
