package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workload"
)

//go:embed manifest.json
var manifestJSON []byte

// manifest is the embedded manifest.json: the one place the workload
// rates, mixes, limits and mirrored analyticsd defaults live.
type manifest struct {
	Defaults struct {
		Shards          int     `json:"shards"`
		BucketWidth     int64   `json:"bucket_width"`
		RingBuckets     int     `json:"ring_buckets"`
		CacheEntries    int     `json:"cache_entries"`
		NegCacheEntries int     `json:"negcache_entries"`
		TraceSampleRate float64 `json:"trace_sample_rate"`
		TraceSlowMS     int     `json:"trace_slow_ms"`
		DefaultTimeout  int     `json:"default_timeout_ms"`
		MaxTimeout      int     `json:"max_timeout_ms"`
		Partitions      int     `json:"cluster_partitions"`
		Nodes           int     `json:"cluster_nodes"`
		AdmissionRate   float64 `json:"admission_rate_obs_per_s"`
		AdmissionBurst  float64 `json:"admission_burst_obs"`
		LagHigh         uint64  `json:"lambda_cluster_lag_high_records"`
	} `json:"analyticsd_defaults"`
	Generator struct {
		Senders      int     `json:"senders"`
		Connections  int     `json:"connections"`
		Events       int     `json:"events_per_observe"`
		Keys         int     `json:"keys"`
		ZipfS        float64 `json:"zipf_s"`
		Referrers    int     `json:"referrers"`
		ProbeRate    float64 `json:"probe_rate"`
		ProbeLimitMS int     `json:"probe_limit_ms"`
		ProbePollMS  int     `json:"probe_poll_ms"`
		ProbeMaxPoll int     `json:"probe_max_poll_ms"`
		FixedShare   float64 `json:"fixed_share"`
		Setups       int     `json:"setups"`
		LateLimitMS  float64 `json:"late_p99_limit_ms"`
	} `json:"generator"`
	Checks struct {
		LayerSumTolerance float64 `json:"layer_sum_tolerance"`
	} `json:"checks"`
	Workloads []workloadSpec `json:"workloads"`
}

// workloadSpec is one traffic mix.
type workloadSpec struct {
	Name          string             `json:"name"`
	Why           string             `json:"why"`
	Backend       string             `json:"backend"`
	ObserveRate   float64            `json:"observe_rate"`
	QueryRate     float64            `json:"query_rate"`
	Mix           map[string]float64 `json:"mix"`
	LiveBuckets   int64              `json:"live_buckets"`
	AggBuckets    int64              `json:"agg_buckets"`
	Preload       int64              `json:"preload_buckets"`
	LateShare     float64            `json:"late_request_share"`
	LateEvents    int                `json:"late_events"`
	BatchEveryObs uint64             `json:"batch_every_observations"`
}

func loadManifest() (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(manifestJSON, &m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return &m, nil
}

func (m *manifest) workload(name string) (workloadSpec, error) {
	for _, w := range m.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// The schema: one metric per synopsis family, as analyticsd's demo
// dataset declares it, plus the freshness probe metric.
const (
	mUniques = "uniques"
	mHits    = "page-hits"
	mTop     = "top-pages"
	mLatency = "latency-us"
	mProbe   = "probe"
)

func schema() map[string]serve.ProtoSpec {
	return map[string]serve.ProtoSpec{
		mUniques: serve.DistinctSpec(12, 42),
		mHits:    serve.FreqSpec(1024, 4, 42),
		mTop:     serve.TopKSpec(32),
		mLatency: serve.QuantileSpec(20, 512),
		mProbe:   serve.FreqSpec(64, 2, 7),
	}
}

// keyedMetrics are the per-page metrics single-key and aggregate
// queries draw from (top-pages has the one key "all").
var keyedMetrics = []string{mUniques, mHits, mLatency}

type opKind uint8

const (
	opObserve opKind = iota
	opQuery
	opProbe
)

// Query shapes. Names are the manifest's mix keys.
const (
	shapeLive1  = "live_1key"
	shapeAgg    = "live_agg"
	shapeTop    = "top_pages"
	shapePanel  = "sealed_panel"
	shapeRecent = "recent_sealed"
)

// Phases name independent op streams of one run, so every op's payload
// is a pure function of (seed, phase, index).
const (
	phasePreload uint64 = iota + 1
	phaseFixed
	phaseSaturate
)

// op is one scheduled request.
type op struct {
	due   float64 // seconds after phase start (open loop only)
	vt    float64 // virtual seconds since the end of preload: event time
	kind  opKind
	shape string
	phase uint64
	idx   uint64
}

// gen turns a workload and a seed into requests. All methods are pure
// functions of their arguments.
type gen struct {
	m     *manifest
	w     workloadSpec
	seed  uint64
	pages []string
	refs  []string
	cdf   []float64 // Zipf CDF over pages
	refc  []float64 // Zipf CDF over referrers
	total float64   // ops per second
	shape []string  // mix shapes, sorted
	shcdf []float64 // cumulative mix weights
}

func newGen(m *manifest, w workloadSpec, seed uint64) *gen {
	g := &gen{m: m, w: w, seed: seed}
	for i := 0; i < m.Generator.Keys; i++ {
		g.pages = append(g.pages, fmt.Sprintf("page-%03d", i))
	}
	for i := 0; i < m.Generator.Referrers; i++ {
		g.refs = append(g.refs, fmt.Sprintf("ref-%02d", i))
	}
	g.cdf = zipfCDF(m.Generator.Keys, m.Generator.ZipfS)
	g.refc = zipfCDF(m.Generator.Referrers, 1)
	g.total = w.ObserveRate + w.QueryRate + m.Generator.ProbeRate
	for s := range w.Mix {
		g.shape = append(g.shape, s)
	}
	sort.Strings(g.shape)
	sum := 0.0
	for _, s := range g.shape {
		sum += w.Mix[s]
		g.shcdf = append(g.shcdf, sum)
	}
	for i := range g.shcdf {
		g.shcdf[i] /= sum
	}
	return g
}

func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func draw(rng *workload.RNG, cdf []float64) int {
	i := sort.SearchFloat64s(cdf, rng.Float64())
	return min(i, len(cdf)-1)
}

// mix hashes its arguments into one seed (splitmix64 finalizer chain).
func mix(xs ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, x := range xs {
		h ^= x + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

// kindAt draws an op's kind and query shape from its own stream.
func (g *gen) kindAt(rng *workload.RNG) (opKind, string) {
	u := rng.Float64() * g.total
	switch {
	case u < g.w.ObserveRate:
		return opObserve, ""
	case u < g.w.ObserveRate+g.w.QueryRate:
		return opQuery, g.shape[draw(rng, g.shcdf)]
	default:
		return opProbe, ""
	}
}

// schedule draws a Poisson arrival schedule of the workload's mix for
// seconds of wall time, starting at virtual time vt0.
func (g *gen) schedule(phase uint64, seconds, vt0 float64) []op {
	rng := workload.NewRNG(mix(g.seed, phase))
	var ops []op
	t := 0.0
	for k := uint64(0); ; k++ {
		t += rng.ExpFloat64() / g.total
		if t >= seconds {
			return ops
		}
		kind, shape := g.kindAt(rng)
		ops = append(ops, op{due: t, vt: vt0 + t, kind: kind, shape: shape, phase: phase, idx: k})
	}
}

// saturationOp is the k-th op of the closed-loop phase: the same mix,
// with virtual time advancing at the open-loop rate.
func (g *gen) saturationOp(k uint64) op {
	rng := workload.NewRNG(mix(g.seed, phaseSaturate, k))
	kind, shape := g.kindAt(rng)
	return op{vt: float64(k) / g.total, kind: kind, shape: shape, phase: phaseSaturate, idx: k}
}

// eventTime maps virtual seconds to stream time: one bucket per second,
// after the preloaded history.
func (g *gen) eventTime(vt float64) int64 {
	bw := g.m.Defaults.BucketWidth
	return g.w.Preload*bw + int64(vt*float64(bw))
}

// batch returns the observations of an observe op whose events happen
// at stream time t: events of four observations each, in event order,
// the way a client ships a stream. A share of the dashboard's requests
// carries a few events that arrive 1-20 buckets late.
func (g *gen) batch(phase, idx uint64, t int64) []store.Observation {
	rng := workload.NewRNG(mix(g.seed, phase, idx, 0xb))
	n := g.m.Generator.Events
	late := 0
	if g.w.LateShare > 0 && rng.Float64() < g.w.LateShare {
		late = g.w.LateEvents
	}
	bw := g.m.Defaults.BucketWidth
	out := make([]store.Observation, 0, 4*n)
	for j := 0; j < n; j++ {
		et := t
		if j < late {
			et -= int64(1+rng.Intn(20)) * bw
			et = max(et, 0)
		}
		page := g.pages[draw(rng, g.cdf)]
		user := "u" + strconv.FormatUint(mix(g.seed, phase, idx, uint64(j))%(1<<40), 36)
		if rng.Intn(10) == 0 {
			user = "u-regular-" + strconv.Itoa(rng.Intn(512))
		}
		lat := uint64(100 + rng.ExpFloat64()*900)
		out = append(out,
			store.Observation{Metric: mUniques, Key: page, Item: user, Time: et},
			store.Observation{Metric: mHits, Key: page, Item: g.refs[draw(rng, g.refc)], Time: et},
			store.Observation{Metric: mTop, Key: "all", Item: page, Time: et},
			store.Observation{Metric: mLatency, Key: page, Value: min(lat, 1<<20-1), Time: et},
		)
	}
	return out
}

// preloadBatch is the history request for bucket b.
func (g *gen) preloadBatch(b int64) []store.Observation {
	return g.batch(phasePreload, uint64(b), b*g.m.Defaults.BucketWidth+g.m.Defaults.BucketWidth/2)
}

// probe returns a freshness probe's write and the query that sees it.
func (g *gen) probe(o op) (store.Observation, store.QueryRequest) {
	t := g.eventTime(o.vt)
	key := fmt.Sprintf("probe-%d-%d", o.phase, o.idx)
	return store.Observation{Metric: mProbe, Key: key, Item: "p", Time: t},
		store.QueryRequest{Metrics: []string{mProbe}, Keys: []string{key}, From: t, To: t + 1}
}

// liveWindow is [From, To) over the last n buckets, the open one
// included.
func (g *gen) liveWindow(t, n int64) (int64, int64) {
	bw := g.m.Defaults.BucketWidth
	cb := t / bw
	return max(cb-n+1, 0) * bw, (cb + 1) * bw
}

// panels are the dashboard's fixed sealed-range panels: half single
// key, half 8-key aggregates, over 50 buckets of preloaded history.
func (g *gen) panels() []store.QueryRequest {
	rng := workload.NewRNG(mix(g.seed, 0x9a))
	bw := g.m.Defaults.BucketWidth
	out := make([]store.QueryRequest, 16)
	for i := range out {
		from := int64(150+rng.Intn(50)) * bw
		req := store.QueryRequest{Metrics: []string{keyedMetrics[i%3]}, From: from, To: from + 50*bw}
		if i%2 == 0 {
			req.Keys = []string{g.pages[draw(rng, g.cdf)]}
		} else {
			req.Keys = g.distinctPages(rng, 8)
			req.Aggregate = true
		}
		out[i] = req
	}
	return out
}

func (g *gen) distinctPages(rng *workload.RNG, n int) []string {
	seen := map[string]bool{}
	var keys []string
	for len(keys) < n {
		p := g.pages[draw(rng, g.cdf)]
		if !seen[p] {
			seen[p] = true
			keys = append(keys, p)
		}
	}
	return keys
}

// query builds the request of a query op at its event time.
func (g *gen) query(o op, panels []store.QueryRequest) store.QueryRequest {
	rng := workload.NewRNG(mix(g.seed, o.phase, o.idx, 0x9))
	return g.shapeQuery(rng, o.shape, g.eventTime(o.vt), panels)
}

func (g *gen) shapeQuery(rng *workload.RNG, shape string, t int64, panels []store.QueryRequest) store.QueryRequest {
	from, to := g.liveWindow(t, g.w.LiveBuckets)
	metric := keyedMetrics[rng.Intn(len(keyedMetrics))]
	switch shape {
	case shapeAgg:
		from, to := g.liveWindow(t, g.w.AggBuckets)
		return store.QueryRequest{Metrics: []string{metric}, Keys: g.distinctPages(rng, 8), Aggregate: true, From: from, To: to}
	case shapeTop:
		return store.QueryRequest{Metrics: []string{mTop}, Keys: []string{"all"}, From: from, To: to}
	case shapePanel:
		return panels[rng.Intn(len(panels))]
	case shapeRecent:
		bw := g.m.Defaults.BucketWidth
		cb := t / bw
		return store.QueryRequest{Metrics: []string{metric}, Keys: []string{g.pages[draw(rng, g.cdf)]}, From: max(cb-10, 0) * bw, To: cb * bw}
	default:
		return store.QueryRequest{Metrics: []string{metric}, Keys: []string{g.pages[draw(rng, g.cdf)]}, From: from, To: to}
	}
}

// verifyQueries are the workload's own query shapes at stream time t,
// instantiated over the hottest keys: what the reference check asks.
func (g *gen) verifyQueries(t int64, panels []store.QueryRequest) []store.QueryRequest {
	var out []store.QueryRequest
	for _, shape := range g.shape {
		switch shape {
		case shapePanel:
			out = append(out, panels...)
		case shapeTop:
			out = append(out, g.shapeQuery(workload.NewRNG(0), shapeTop, t, nil))
		default:
			for i := 0; i < 24; i++ {
				rng := workload.NewRNG(mix(g.seed, 0xc4, uint64(i)))
				q := g.shapeQuery(rng, shape, t, panels)
				q.Metrics = []string{keyedMetrics[i%3]}
				if shape != shapeAgg {
					q.Keys = []string{g.pages[i]}
				}
				out = append(out, q)
			}
		}
	}
	return out
}
