package lambda

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/dstore"
	"repro/internal/store"
	"repro/internal/workload"
)

// querySyn answers one series over the half-open [from, to) through q's
// Query and returns the merged synopsis.
func querySyn(q interface {
	Query(store.QueryRequest) (store.QueryResult, error)
}, metric, key string, from, to int64) (store.Synopsis, error) {
	res, err := q.Query(store.QueryRequest{Metric: metric, Key: key, From: from, To: to})
	return res.Raw(), err
}

func storeGeom() store.Config {
	return store.Config{Shards: 4, BucketWidth: 100, RingBuckets: 64}
}

func testConfig() Config {
	return Config{Partitions: 4, Batch: storeGeom(), Speed: storeGeom()}
}

// testProtos returns the four synopsis families one Lambda code path must
// serve: counters, cardinality, top-k, quantiles.
func testProtos(t testing.TB) map[string]store.Prototype {
	t.Helper()
	protos := map[string]store.Prototype{}
	mk := func(name string, p store.Prototype, err error) {
		if err != nil {
			t.Fatal(err)
		}
		protos[name] = p
	}
	cm, err := store.NewFreqProto(256, 4, 11)
	mk("hits", cm, err)
	hll, err := store.NewDistinctProto(12, 11)
	mk("uniq", hll, err)
	// k=64 counters over a <=48-key item universe: Space-Saving runs in
	// its exact regime, so merged halves must equal a one-pass summary.
	ss, err := store.NewTopKProto(64)
	mk("top", ss, err)
	qd, err := store.NewQuantileProto(16, 256)
	mk("lat", qd, err)
	return protos
}

func newArch(t testing.TB, cfg Config) *Architecture {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	for name, proto := range testProtos(t) {
		if err := a.RegisterMetric(name, proto); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestLambdaValidation(t *testing.T) {
	if _, err := New(Config{Retention: -1}); err == nil {
		t.Fatal("negative retention accepted")
	}
	if _, err := New(Config{Batch: store.Config{Shards: -1}}); err == nil {
		t.Fatal("invalid batch store config accepted")
	}
	if _, err := New(Config{Speed: store.Config{MaxIdle: -1}}); err == nil {
		t.Fatal("invalid speed store config accepted")
	}
	if _, err := New(Config{Cluster: &dstore.Config{Retention: -1}}); err == nil {
		t.Fatal("invalid cluster config accepted")
	}
	a := newArch(t, testConfig())
	if err := a.Append(store.Observation{Metric: "nope", Key: "k", Time: 0}); err == nil {
		t.Fatal("unregistered metric accepted")
	}
	if err := a.Append(store.Observation{Metric: "hits", Key: "k", Time: -1}); err == nil {
		t.Fatal("negative time accepted")
	}
	if err := a.Append(store.Observation{Metric: "hits", Key: "", Item: "u", Time: 0}); err == nil {
		t.Fatal("empty key accepted (cluster mode rejects it; modes must agree)")
	}
	if got := a.MasterLen(); got != 0 {
		t.Fatalf("rejected appends reached the master dataset: %d", got)
	}
	if err := a.Append(store.Observation{Metric: "hits", Key: "k", Item: "u", Value: 1, Time: 0}); err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterMetric("late", testProtos(t)["hits"]); err == nil {
		t.Fatal("metric registration after first append accepted")
	}
	if _, err := querySyn(a, "nope", "k", 0, 11); err == nil {
		t.Fatal("query on unregistered metric accepted")
	}
}

func hitCount(t *testing.T, syn store.Synopsis, item string) uint64 {
	t.Helper()
	return syn.(*store.Freq).Count(item)
}

func TestQueryMergesBatchAndSpeed(t *testing.T) {
	a := newArch(t, testConfig())
	for i := 0; i < 10; i++ {
		if err := a.Append(store.Observation{Metric: "hits", Key: "clicks", Item: "u", Value: 1, Time: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	info, err := a.RunBatch()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Applied != 10 {
		t.Fatalf("batch info %+v", info)
	}
	for i := 10; i < 15; i++ {
		if err := a.Append(store.Observation{Metric: "hits", Key: "clicks", Item: "u", Value: 1, Time: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := querySyn(a, "hits", "clicks", 0, 101)
	if err != nil {
		t.Fatal(err)
	}
	if got := hitCount(t, merged, "u"); got != 15 {
		t.Fatalf("merged count %d, want 15", got)
	}
	batchOnly, err := a.BatchOnlyQuery(store.QueryRequest{Metric: "hits", Key: "clicks", From: 0, To: 101})
	if err != nil {
		t.Fatal(err)
	}
	if got := hitCount(t, batchOnly.Raw(), "u"); got != 10 {
		t.Fatalf("batch-only count %d, want 10", got)
	}
	if s := a.Staleness(); s != 5 {
		t.Fatalf("staleness %d, want 5", s)
	}
	if a.MasterLen() != 15 || a.Appended() != 15 {
		t.Fatalf("master len %d appended %d, want 15", a.MasterLen(), a.Appended())
	}
}

func TestRunBatchTruncatesSpeedLayer(t *testing.T) {
	a := newArch(t, testConfig())
	for i := 0; i < 100; i++ {
		if err := a.Append(store.Observation{Metric: "hits", Key: fmt.Sprintf("k%d", i%10), Item: "u", Value: 1, Time: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.RunBatch(); err != nil {
		t.Fatal(err)
	}
	// The speed layer holds exactly the uncovered suffix: nothing.
	if obs := a.SpeedStats().Observed; obs != 0 {
		t.Fatalf("speed layer retains %d observations after batch handoff", obs)
	}
	// Merged query must not double count.
	syn, err := querySyn(a, "hits", "k0", 0, 1001)
	if err != nil {
		t.Fatal(err)
	}
	if got := hitCount(t, syn, "u"); got != 10 {
		t.Fatalf("double counting: %d, want 10", got)
	}
	// A second boundary with a live tail: only the tail stays realtime.
	for i := 100; i < 130; i++ {
		if err := a.Append(store.Observation{Metric: "hits", Key: "k0", Item: "u", Value: 1, Time: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.RunBatch(); err != nil {
		t.Fatal(err)
	}
	for i := 130; i < 140; i++ {
		if err := a.Append(store.Observation{Metric: "hits", Key: "k0", Item: "u", Value: 1, Time: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if obs := a.SpeedStats().Observed; obs != 10 {
		t.Fatalf("speed layer holds %d, want the 10-event tail", obs)
	}
	if s := a.Staleness(); s != 10 {
		t.Fatalf("staleness %d, want 10", s)
	}
}

func TestBatchOnlyGoesStale(t *testing.T) {
	a := newArch(t, testConfig())
	if err := a.Append(store.Observation{Metric: "hits", Key: "x", Item: "u", Value: 1, Time: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RunBatch(); err != nil {
		t.Fatal(err)
	}
	stale := 0
	for i := 1; i <= 50; i++ {
		if err := a.Append(store.Observation{Metric: "hits", Key: "x", Item: "u", Value: 1, Time: int64(i)}); err != nil {
			t.Fatal(err)
		}
		req := store.QueryRequest{Metric: "hits", Key: "x", From: 0, To: 1001}
		b, err := a.BatchOnlyQuery(req)
		if err != nil {
			t.Fatal(err)
		}
		m, err := a.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		if b.Count("u") != m.Count("u") {
			stale++
		}
	}
	if stale != 50 {
		t.Fatalf("batch-only should lag merged for all 50 post-batch appends, got %d", stale)
	}
}

// oracleStore rebuilds a single store from the whole master log — the
// replay-everything oracle merged answers must match.
func oracleStore(t testing.TB, a *Architecture) *store.Store {
	t.Helper()
	st, _, err := store.Rebuild(a.cfg.Batch, testProtos(t), a.Topic(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// assertParity compares merged lambda answers against the oracle for
// every key: counters, cardinality and top-k exactly, quantiles within a
// merged q-digest's rank-error bound against the exact value list.
func assertParity(t *testing.T, a *Architecture, o *store.Store, values map[string][]uint64, to int64, context string) {
	t.Helper()
	keys := o.Keys("hits")
	if len(keys) == 0 {
		t.Fatalf("%s: oracle has no keys", context)
	}
	for _, key := range keys {
		merged, err := querySyn(a, "hits", key, 0, to+1)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := querySyn(o, "hits", key, 0, to+1)
		for u := 0; u < 8; u++ {
			item := fmt.Sprintf("u%d", u)
			if g, w := hitCount(t, merged, item), want.(*store.Freq).Count(item); g != w {
				t.Fatalf("%s: key %s item %s: merged count %d != oracle %d", context, key, item, g, w)
			}
		}
		mu, err := querySyn(a, "uniq", key, 0, to+1)
		if err != nil {
			t.Fatal(err)
		}
		wu, _ := querySyn(o, "uniq", key, 0, to+1)
		if g, w := mu.(*store.Distinct).Estimate(), wu.(*store.Distinct).Estimate(); g != w {
			t.Fatalf("%s: key %s: merged cardinality %v != oracle %v", context, key, g, w)
		}
		mt, err := querySyn(a, "top", key, 0, to+1)
		if err != nil {
			t.Fatal(err)
		}
		wt, _ := querySyn(o, "top", key, 0, to+1)
		if g, w := topCounts(mt), topCounts(wt); !sameCounts(g, w) {
			t.Fatalf("%s: key %s: merged top-k %v != oracle %v", context, key, g, w)
		}
		ml, err := querySyn(a, "lat", key, 0, to+1)
		if err != nil {
			t.Fatal(err)
		}
		vals := values[key]
		if len(vals) == 0 {
			continue
		}
		sorted := append([]uint64(nil), vals...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		n := len(sorted)
		// Rank tolerance: each constituent q-digest guarantees ~logU/k
		// rank error; the batch+speed merge doubles the constituents, so
		// accept 2x with slack. k=256, logU=16 -> 0.0625 per digest.
		tol := int(0.2*float64(n)) + 1
		for _, phi := range []float64{0.5, 0.9, 0.99} {
			got := ml.(*store.Quantiles).Quantile(phi)
			lo, hi := rankRange(sorted, got)
			target := int(phi * float64(n))
			if lo-tol > target || hi+tol < target {
				t.Fatalf("%s: key %s phi %.2f: answer %d has rank [%d,%d], target %d +/- %d",
					context, key, phi, got, lo, hi, target, tol)
			}
		}
	}
}

func topCounts(syn store.Synopsis) map[string]uint64 {
	out := map[string]uint64{}
	for _, c := range syn.(*store.TopK).Top(64) {
		out[c.Item] = c.Count
	}
	return out
}

func sameCounts(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// rankRange returns the index range [lo, hi) positions of x in sorted.
func rankRange(sorted []uint64, x uint64) (int, int) {
	lo, hi := 0, len(sorted)
	for i, v := range sorted {
		if v < x {
			lo = i + 1
		}
		if v <= x {
			hi = i + 1
		}
	}
	return lo, hi
}

// TestMergedMatchesOracleAcrossBoundaries is the batch/speed boundary
// property test (the F1.2 invariant, synopsis_prop_test.go style): after
// an arbitrary interleaving of appends and batch recomputes, Query equals
// a replay-everything oracle for every family, at every checkpoint.
func TestMergedMatchesOracleAcrossBoundaries(t *testing.T) {
	const trials = 5
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			a := newArch(t, testConfig())
			rng := workload.NewRNG(uint64(1000 + trial))
			z := workload.NewZipf(rng, 24, 1.2)
			values := map[string][]uint64{}
			now := int64(0)
			boundaries := 0
			for i := 0; i < 4000; i++ {
				key := fmt.Sprintf("k%d", z.Draw())
				item := fmt.Sprintf("u%d", rng.Uint64()%48)
				val := rng.Uint64() % 40000
				now = int64(i)
				for _, obs := range []store.Observation{
					{Metric: "hits", Key: key, Item: item, Value: 1 + val%5, Time: now},
					{Metric: "uniq", Key: key, Item: item, Time: now},
					{Metric: "top", Key: key, Item: item, Time: now},
					{Metric: "lat", Key: key, Value: val, Time: now},
				} {
					if err := a.Append(obs); err != nil {
						t.Fatal(err)
					}
				}
				values[key] = append(values[key], val)
				// Arbitrary interleaving: batch runs fire randomly, ~1/500.
				if rng.Uint64()%500 == 0 {
					if _, err := a.RunBatch(); err != nil {
						t.Fatal(err)
					}
					boundaries++
					assertParity(t, a, oracleStore(t, a), values, now, fmt.Sprintf("post-batch %d", boundaries))
				}
				if i%1499 == 1498 {
					assertParity(t, a, oracleStore(t, a), values, now, "mid-stream")
				}
			}
			for ; boundaries < 3; boundaries++ {
				if _, err := a.RunBatch(); err != nil {
					t.Fatal(err)
				}
				assertParity(t, a, oracleStore(t, a), values, now, "final boundary")
			}
		})
	}
}

// TestLambdaParityHotKeySpeedLayer runs the boundary invariant with the
// T2.5 hot-key write-combining path enabled on the speed store, and
// checks the path actually engaged (writes were splayed).
func TestLambdaParityHotKeySpeedLayer(t *testing.T) {
	cfg := testConfig()
	cfg.Speed.HotKey = store.HotKeyConfig{Replicas: 4, MaxHot: 64, PromotePct: 2, EpochWrites: 256}
	a := newArch(t, cfg)
	rng := workload.NewRNG(42)
	z := workload.NewZipf(rng, 24, 1.4)
	values := map[string][]uint64{}
	now := int64(0)
	var splayed uint64
	for i := 0; i < 9000; i++ {
		key := fmt.Sprintf("k%d", z.Draw())
		item := fmt.Sprintf("u%d", rng.Uint64()%48)
		val := rng.Uint64() % 40000
		now = int64(i)
		for _, obs := range []store.Observation{
			{Metric: "hits", Key: key, Item: item, Value: 1 + val%5, Time: now},
			{Metric: "uniq", Key: key, Item: item, Time: now},
			{Metric: "top", Key: key, Item: item, Time: now},
			{Metric: "lat", Key: key, Value: val, Time: now},
		} {
			if err := a.Append(obs); err != nil {
				t.Fatal(err)
			}
		}
		values[key] = append(values[key], val)
		if i%3000 == 2999 {
			// Sample the splay counter before the boundary wipes the
			// speed store (its stats reset with the truncation).
			a.FlushSpeedHot()
			splayed += a.SpeedStats().SplayedWrites
			if _, err := a.RunBatch(); err != nil {
				t.Fatal(err)
			}
			assertParity(t, a, oracleStore(t, a), values, now, fmt.Sprintf("hot boundary %d", i/3000))
		}
	}
	if splayed == 0 {
		t.Fatal("hot-key path never engaged: no splayed writes")
	}
}

// TestLambdaParityUnderConcurrentIngest is the named -race CI target (the
// F1.2 concurrency leg): writers append while batch recomputes and
// queries run; after the dust settles, merged answers equal the oracle
// for the order-independent families (counters, cardinality).
func TestLambdaParityUnderConcurrentIngest(t *testing.T) {
	a := newArch(t, testConfig())
	const writers = 4
	const perWriter = 3000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := workload.NewRNG(uint64(7000 + w))
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("k%d", rng.Uint64()%16)
				obs := store.Observation{Metric: "hits", Key: key, Item: fmt.Sprintf("u%d", rng.Uint64()%8), Value: 1, Time: int64(i)}
				if err := a.Append(obs); err != nil {
					t.Error(err)
					return
				}
				obs.Metric = "uniq"
				if err := a.Append(obs); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := a.RunBatch(); err != nil {
				t.Error(err)
				return
			}
			if _, err := querySyn(a, "hits", "k0", 0, int64(perWriter)+1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if _, err := a.RunBatch(); err != nil {
		t.Fatal(err)
	}
	o := oracleStore(t, a)
	for k := 0; k < 16; k++ {
		key := fmt.Sprintf("k%d", k)
		merged, err := querySyn(a, "hits", key, 0, perWriter+1)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := querySyn(o, "hits", key, 0, perWriter+1)
		for u := 0; u < 8; u++ {
			item := fmt.Sprintf("u%d", u)
			if g, w := hitCount(t, merged, item), want.(*store.Freq).Count(item); g != w {
				t.Fatalf("key %s item %s: merged %d != oracle %d", key, item, g, w)
			}
		}
		mu, err := querySyn(a, "uniq", key, 0, perWriter+1)
		if err != nil {
			t.Fatal(err)
		}
		wu, _ := querySyn(o, "uniq", key, 0, perWriter+1)
		if g, w := mu.(*store.Distinct).Estimate(), wu.(*store.Distinct).Estimate(); g != w {
			t.Fatalf("key %s: merged cardinality %v != oracle %v", key, g, w)
		}
	}
}

// TestClusterSpeedLayerParity runs the architecture with the dstore
// cluster as the speed layer: appends route through the cluster's router
// onto the shared master topic, batch handoffs truncate the cluster, and
// merged answers equal the oracle once drained.
func TestClusterSpeedLayerParity(t *testing.T) {
	cfg := Config{
		Batch:        storeGeom(),
		Cluster:      &dstore.Config{Partitions: 8, Store: storeGeom(), Topic: "lambda-cluster"},
		ClusterNodes: 3,
	}
	a := newArch(t, cfg)
	rng := workload.NewRNG(99)
	z := workload.NewZipf(rng, 24, 1.2)
	values := map[string][]uint64{}
	now := int64(0)
	for round := 0; round < 3; round++ {
		for i := 0; i < 1200; i++ {
			key := fmt.Sprintf("k%d", z.Draw())
			item := fmt.Sprintf("u%d", rng.Uint64()%48)
			val := rng.Uint64() % 40000
			now = int64(round*1200 + i)
			for _, obs := range []store.Observation{
				{Metric: "hits", Key: key, Item: item, Value: 1 + val%5, Time: now},
				{Metric: "uniq", Key: key, Item: item, Time: now},
				{Metric: "top", Key: key, Item: item, Time: now},
				{Metric: "lat", Key: key, Value: val, Time: now},
			} {
				if err := a.Append(obs); err != nil {
					t.Fatal(err)
				}
			}
			values[key] = append(values[key], val)
		}
		if _, err := a.RunBatch(); err != nil {
			t.Fatal(err)
		}
		// The cluster speed layer holds only the uncovered suffix, which
		// right after a drained batch handoff is nothing.
		if obs := a.SpeedStats().Observed; obs != 0 {
			t.Fatalf("round %d: cluster speed layer retains %d observations", round, obs)
		}
		assertParity(t, a, oracleStore(t, a), values, now, fmt.Sprintf("cluster round %d", round))
	}
	// Post-boundary tail served by the speed layer alone.
	if err := a.Append(store.Observation{Metric: "hits", Key: "k0", Item: "u0", Value: 3, Time: now}); err != nil {
		t.Fatal(err)
	}
	if err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	assertParity(t, a, oracleStore(t, a), values, now, "cluster tail")
}

func TestQueryBeforeFirstBatchServesSpeedOnly(t *testing.T) {
	a := newArch(t, testConfig())
	for i := 0; i < 20; i++ {
		if err := a.Append(store.Observation{Metric: "hits", Key: "k", Item: "u", Value: 1, Time: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	syn, err := querySyn(a, "hits", "k", 0, 101)
	if err != nil {
		t.Fatal(err)
	}
	if got := hitCount(t, syn, "u"); got != 20 {
		t.Fatalf("pre-batch merged count %d, want 20", got)
	}
	b, err := a.BatchOnlyQuery(store.QueryRequest{Metric: "hits", Key: "k", From: 0, To: 101})
	if err != nil {
		t.Fatal(err)
	}
	if got := hitCount(t, b.Raw(), "u"); got != 0 {
		t.Fatalf("batch-only before first batch %d, want 0", got)
	}
	if a.BatchView() != nil {
		t.Fatal("batch view exists before RunBatch")
	}
	if s := a.Staleness(); s != 20 {
		t.Fatalf("staleness %d, want 20", s)
	}
}

func BenchmarkLambdaAppend(b *testing.B) {
	a := newArch(b, testConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Append(store.Observation{Metric: "hits", Key: fmt.Sprintf("k%d", i%64), Item: "u", Value: 1, Time: int64(i / 64)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLambdaQuery is a single-key query merging the batch view and
// the speed layer.
func BenchmarkLambdaQuery(b *testing.B) {
	a := newArch(b, testConfig())
	for i := 0; i < 50000; i++ {
		if err := a.Append(store.Observation{Metric: "hits", Key: fmt.Sprintf("k%d", i%64), Item: fmt.Sprintf("u%d", i%8), Value: 1, Time: int64(i / 64)}); err != nil {
			b.Fatal(err)
		}
		if i == 25000 {
			if _, err := a.RunBatch(); err != nil {
				b.Fatal(err)
			}
		}
	}
	to := int64(50000 / 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Query(store.QueryRequest{Metric: "hits", Key: fmt.Sprintf("k%d", i%64), From: 0, To: to + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLambdaRunBatch100k(b *testing.B) {
	a := newArch(b, testConfig())
	for i := 0; i < 100000; i++ {
		if err := a.Append(store.Observation{Metric: "hits", Key: fmt.Sprintf("k%d", i%1000), Item: "u", Value: 1, Time: int64(i / 1000)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.RunBatch(); err != nil {
			b.Fatal(err)
		}
	}
}
