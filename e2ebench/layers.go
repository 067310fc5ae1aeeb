package main

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/dstore"
	"repro/internal/rcache"
)

// counters snapshots the public counters the per-layer metrics read.
type counters struct {
	at      time.Time
	cache   rcache.Stats
	adm     admission.Stats
	ends    []uint64
	cluster dstore.Stats
}

func (h *harness) counters() counters {
	c := counters{at: time.Now(), cache: h.s.cache.Stats(), adm: h.s.ctrl.Stats()}
	if h.s.ar != nil {
		c.ends = h.s.ar.Topic().EndOffsets()
		c.cluster = h.s.ar.Cluster().Stats()
	}
	return c
}

// gauges samples the queue-depth signals every few milliseconds while
// a phase runs.
type gauges struct {
	stop            chan struct{}
	done            chan struct{}
	mu              sync.Mutex
	lag, buf, stale []float64
}

func (h *harness) sampleGauges() *gauges {
	g := &gauges{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
			if h.s.ar == nil {
				continue
			}
			lag := float64(h.s.ar.Cluster().Lag())
			buf := float64(h.routerBuffered())
			stale := float64(h.s.ar.Staleness())
			g.mu.Lock()
			g.lag, g.buf, g.stale = append(g.lag, lag), append(g.buf, buf), append(g.stale, stale)
			g.mu.Unlock()
		}
	}()
	return g
}

func (g *gauges) finish() {
	close(g.stop)
	<-g.done
}

// tree indexes spans by parent for self-time arithmetic.
type tree struct {
	spans    []span
	children [][]int
}

func newTree(spans []span) *tree {
	t := &tree{spans: spans, children: make([][]int, len(spans))}
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s.ID)
		}
	}
	return t
}

// child returns the first child of id whose name starts with prefix.
func (t *tree) child(id int, prefix string) (int, bool) {
	if id < 0 {
		return -1, false
	}
	for _, c := range t.children[id] {
		if strings.HasPrefix(t.spans[c].Name, prefix) {
			return c, true
		}
	}
	return -1, false
}

// self is a span's duration minus the part of it its children cover.
func (t *tree) self(id int) float64 {
	s := t.spans[id]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range t.children[id] {
		cs := t.spans[c]
		a, b := max(cs.Start, s.Start), min(cs.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	covered := int64(0)
	// Children are few; merge by repeated scan in start order.
	for len(ivs) > 0 {
		k := 0
		for i := range ivs {
			if ivs[i].a < ivs[k].a {
				k = i
			}
		}
		cur := ivs[k]
		ivs = append(ivs[:k], ivs[k+1:]...)
		for merged := true; merged; {
			merged = false
			for i := 0; i < len(ivs); i++ {
				if ivs[i].a <= cur.b {
					cur.b = max(cur.b, ivs[i].b)
					ivs = append(ivs[:i], ivs[i+1:]...)
					merged = true
					i--
				}
			}
		}
		covered += cur.b - cur.a
	}
	return float64(s.dur()-covered) / 1e3
}

func (t *tree) durUS(id int) float64 { return float64(t.spans[id].dur()) / 1e3 }

// chain is one traced request's blocking path.
type chain struct {
	call, rt, handler, admit, instr, raw, decode int
}

func (t *tree) chain(call int) chain {
	c := chain{call: call}
	c.rt, _ = t.child(call, spanTransport)
	c.decode, _ = t.child(call, spanDecode)
	c.handler, _ = t.child(c.rt, spanHandler)
	c.admit, _ = t.child(c.handler, spanAdmit)
	c.instr, _ = t.child(c.admit, spanInstr)
	c.raw, _ = t.child(c.instr, spanRaw)
	return c
}

// layerSum checks that the blocking path's parts add up to the round
// trip over requests that reached the backend: it returns
// |sum of part means - mean round trip| / mean round trip. Means add
// where medians do not, so a gap means time the decomposition lost or
// counted twice (a span outside its parent, a boundary missing). It
// also prints the per-shape medians, the budget a reader adds up.
func (t *tree) layerSum(kind string, cs []chain) float64 {
	groups := map[string][]chain{}
	var rt, parts float64
	n := 0
	for _, c := range cs {
		if c.raw < 0 {
			continue
		}
		shape := t.spans[c.call].Shape
		groups[shape] = append(groups[shape], c)
		rt += t.durUS(c.rt)
		parts += t.self(c.rt) + t.self(c.handler) + t.self(c.admit) + t.self(c.instr) + t.durUS(c.raw)
		n++
	}
	if n == 0 {
		return 0
	}
	for _, shape := range sortedKeys(groups) {
		g := groups[shape]
		var rt, tr, sv, ad, in, be []float64
		for _, c := range g {
			rt = append(rt, t.durUS(c.rt))
			tr = append(tr, t.self(c.rt))
			sv = append(sv, t.self(c.handler))
			ad = append(ad, t.self(c.admit))
			in = append(in, t.self(c.instr))
			be = append(be, t.durUS(c.raw))
		}
		fmt.Printf("    %s %-13s n=%5d median us: round trip %8.1f | transport %7.1f serve %7.1f admission %6.1f instrument %6.1f backend %8.1f\n",
			kind, shape, len(g), median(rt), median(tr), median(sv), median(ad), median(in), median(be))
	}
	return math.Abs(parts-rt) / rt
}

// layerReport computes the per-layer metrics of a traced phase.
type layerReport struct {
	values map[string]float64
	gapObs float64
	gapQry float64
	chains int
	broken int // traced requests missing a boundary span
}

func (h *harness) layers(spans []span, p phase, c0, c1 counters, gs *gauges, drain time.Duration) layerReport {
	t := newTree(spans)
	var obs, qry []chain
	broken := 0
	for _, s := range spans {
		if s.Name != spanCall || s.Parent >= 0 || s.End < 0 {
			continue
		}
		c := t.chain(s.ID)
		if c.rt < 0 || c.handler < 0 {
			broken++
			continue
		}
		switch s.Kind {
		case "observe":
			if c.raw < 0 {
				broken++
				continue
			}
			obs = append(obs, c)
		case "query":
			if !s.Cached && c.raw < 0 {
				broken++
				continue
			}
			qry = append(qry, c)
		}
	}
	col := func(cs []chain, f func(chain) float64, keep func(chain) bool) []float64 {
		var out []float64
		for _, c := range cs {
			if keep == nil || keep(c) {
				out = append(out, f(c))
			}
		}
		return out
	}
	reached := func(c chain) bool { return c.raw >= 0 }
	shape := func(names ...string) func(chain) bool {
		return func(c chain) bool {
			if c.raw < 0 {
				return false
			}
			for _, n := range names {
				if t.spans[c.call].Shape == n {
					return true
				}
			}
			return false
		}
	}
	v := map[string]float64{}
	v["loadgen.late_p99_ms"] = quantile(ms(p.late), 0.99)
	var waits []float64
	for _, s := range spans {
		if s.Name == spanTransport && s.End >= 0 {
			waits = append(waits, float64(s.ConnWait)/1e6)
		}
	}
	v["loadgen.conn_wait_p50_ms"] = quantile(waits, 0.5)
	v["loadgen.conn_wait_p99_ms"] = quantile(waits, 0.99)

	v["client.observe_transport_us"] = median(col(obs, func(c chain) float64 { return t.self(c.rt) }, nil))
	v["client.query_transport_us"] = median(col(qry, func(c chain) float64 { return t.self(c.rt) }, nil))
	v["client.decode_result_us"] = median(col(qry, func(c chain) float64 { return t.durUS(c.decode) }, func(c chain) bool { return c.decode >= 0 }))
	v["serve.observe_self_us"] = median(col(obs, func(c chain) float64 { return t.self(c.handler) }, nil))
	v["serve.query_self_us"] = median(col(qry, func(c chain) float64 { return t.self(c.handler) }, nil))
	v["serve.observe_request_bytes"] = median(col(obs, func(c chain) float64 { return float64(t.spans[c.handler].ReqBytes) }, nil))
	v["serve.query_response_bytes"] = median(col(qry, func(c chain) float64 { return float64(t.spans[c.handler].Bytes) }, nil))

	hits, misses := float64(c1.cache.Hits-c0.cache.Hits), float64(c1.cache.Misses-c0.cache.Misses)
	v["rcache.hit_ratio"] = 0
	if hits+misses > 0 {
		v["rcache.hit_ratio"] = hits / (hits + misses)
	}
	v["rcache.invalidations_per_kobs"] = 0
	if p.obs > 0 {
		v["rcache.invalidations_per_kobs"] = float64(c1.cache.Invalidations-c0.cache.Invalidations) / (float64(p.obs) / 1000)
	}
	v["rcache.evictions"] = float64(c1.cache.Evictions - c0.cache.Evictions)

	v["admission.observe_self_us"] = median(col(obs, func(c chain) float64 { return t.self(c.admit) }, nil))
	adm, shed := float64(c1.adm.Admitted-c0.adm.Admitted), float64(c1.adm.Shed-c0.adm.Shed)
	v["admission.shed_ratio"] = 0
	if adm+shed > 0 {
		v["admission.shed_ratio"] = shed / (adm + shed)
	}
	v["analytics.instrument_observe_self_us"] = median(col(obs, func(c chain) float64 { return t.self(c.instr) }, nil))
	v["analytics.instrument_query_self_us"] = median(col(qry, func(c chain) float64 { return t.self(c.instr) }, reached))

	raw := func(c chain) float64 { return t.durUS(c.raw) }
	st := h.s.raw.Stats()
	for _, name := range []string{"store.observe_batch_us", "store.query_us.live_1key", "store.query_us.live_agg", "store.query_us.sealed_miss",
		"lambda.observe_batch_us", "lambda.query_us"} {
		v[name] = 0
	}
	if h.s.ar == nil {
		v["store.observe_batch_us"] = median(col(obs, raw, nil))
		v["store.query_us.live_1key"] = median(col(qry, raw, shape(shapeLive1, shapeTop)))
		v["store.query_us.live_agg"] = median(col(qry, raw, shape(shapeAgg)))
		v["store.query_us.sealed_miss"] = median(col(qry, raw, shape(shapePanel, shapeRecent)))
	} else {
		v["lambda.observe_batch_us"] = median(col(obs, raw, nil))
		v["lambda.query_us"] = median(col(qry, raw, reached))
	}
	v["store.bytes_mb"] = float64(st.Bytes) / (1 << 20)
	v["store.entries"] = float64(st.Entries)
	v["store.dropped_late"] = float64(st.DroppedLate)

	secs := c1.at.Sub(c0.at).Seconds()
	for _, name := range []string{"dstore.lag_records_p99", "dstore.router_buffered_p99", "dstore.applied_per_s", "dstore.drain_ms",
		"mqlog.appended_per_s", "mqlog.partition_skew", "lambda.run_batch_ms", "lambda.staleness_records_p99"} {
		v[name] = 0
	}
	if h.s.ar != nil {
		gs.mu.Lock()
		v["dstore.lag_records_p99"] = quantile(gs.lag, 0.99)
		v["dstore.router_buffered_p99"] = quantile(gs.buf, 0.99)
		v["lambda.staleness_records_p99"] = quantile(gs.stale, 0.99)
		gs.mu.Unlock()
		v["dstore.applied_per_s"] = float64(c1.cluster.Applied-c0.cluster.Applied) / secs
		v["dstore.drain_ms"] = float64(drain) / 1e6
		var total, peak float64
		for i := range c1.ends {
			d := float64(c1.ends[i] - c0.ends[i])
			total += d
			peak = max(peak, d)
		}
		v["mqlog.appended_per_s"] = total / secs
		if total > 0 {
			v["mqlog.partition_skew"] = peak / (total / float64(len(c1.ends)))
		}
		if h.batcher != nil {
			v["lambda.run_batch_ms"] = median(ms(h.batcher.durations()))
		}
	}
	ops := float64(p.attempted)
	v["process.alloc_bytes_per_op"] = p.rt.allocBytes / ops
	v["process.gc_cpu_fraction"] = 0
	if p.rt.totalCPU > 0 {
		v["process.gc_cpu_fraction"] = p.rt.gcCPU / p.rt.totalCPU
	}
	r := layerReport{values: v, gapObs: t.layerSum("observe", obs), gapQry: t.layerSum("query", qry), chains: len(obs) + len(qry), broken: broken}
	v["trace.layer_sum_gap_observe"] = r.gapObs
	v["trace.layer_sum_gap_query"] = r.gapQry
	return r
}
