package experiments

import (
	"fmt"
	"sort"

	"repro/internal/lambda"
	"repro/internal/store"
	"repro/internal/workload"
)

// F1_2_StoreLambda proves the offset-fenced batch/speed split end to end:
// a store-backed Lambda serving all four synopsis families (counters,
// cardinality, top-k, quantiles) must answer exactly like a single store
// that replayed the whole master log, at every batch-recompute boundary —
// while the speed layer sustains the T2.5 hot-key write-combining path
// under Zipf-skewed ingest.
//
// The mismatch column is the acceptance gate and must be zero: counters
// (Count-Min is additive), cardinality (HyperLogLog merge is register
// max) and top-k (Space-Saving in its exact regime: k counters >= item
// universe) are compared for equality; quantiles are compared against the
// exact value list within the merged q-digest's rank-error budget (two
// constituents at logU/k = 16/256 each, checked at 4x slack). The
// hot-keys / splayed-writes columns prove the speed layer actually ran
// the splayed path, not the plain one — the speed store's stats reset at
// every truncation, so they are sampled just before each handoff.
func F1_2_StoreLambda() Table {
	t := Table{
		ID:     "F1.2",
		Title:  "Store-backed Lambda: merged batch+speed answers vs single-store oracle",
		Claim:  "across batch boundaries, merged answers equal a replay-everything oracle (counters/cardinality/top-k exact, quantiles within bound) with hot-key splaying active",
		Header: []string{"boundary", "appended", "staleness-pre", "hot-keys", "splayed-writes", "checked", "mismatch"},
	}
	geom := store.Config{Shards: 8, BucketWidth: 1000, RingBuckets: 64}
	speed := geom
	speed.HotKey = store.HotKeyConfig{Replicas: 8, MaxHot: 64, PromotePct: 2, EpochWrites: 512}
	arch, err := lambda.New(lambda.Config{Partitions: 4, Batch: geom, Speed: speed})
	if err != nil {
		panic(err)
	}
	defer arch.Close()

	protos := map[string]store.Prototype{}
	mk := func(name string, p store.Prototype, err error) {
		if err != nil {
			panic(err)
		}
		protos[name] = p
		if err := arch.RegisterMetric(name, p); err != nil {
			panic(err)
		}
	}
	cm, err := store.NewFreqProto(512, 4, 12)
	mk("hits", cm, err)
	hll, err := store.NewDistinctProto(12, 12)
	mk("uniq", hll, err)
	ss, err := store.NewTopKProto(64) // item universe is 48: exact regime
	mk("top", ss, err)
	qd, err := store.NewQuantileProto(16, 256)
	mk("lat", qd, err)

	rng := workload.NewRNG(112)
	z := workload.NewZipf(rng, 32, 1.3)
	values := map[string][]uint64{}
	const rounds = 4 // >= 3 batch-recompute boundaries, plus one extra
	const perRound = 15000
	var now int64
	for round := 1; round <= rounds; round++ {
		for i := 0; i < perRound; i++ {
			now = int64((round-1)*perRound + i)
			key := fmt.Sprintf("k%d", z.Draw())
			item := fmt.Sprintf("u%d", rng.Uint64()%48)
			val := rng.Uint64() % 50000
			for _, obs := range []store.Observation{
				{Metric: "hits", Key: key, Item: item, Value: 1 + val%5, Time: now},
				{Metric: "uniq", Key: key, Item: item, Time: now},
				{Metric: "top", Key: key, Item: item, Time: now},
				{Metric: "lat", Key: key, Value: val, Time: now},
			} {
				if err := arch.Append(obs); err != nil {
					panic(err)
				}
			}
			values[key] = append(values[key], val)
		}
		// Sample hot-key engagement before the handoff resets the store.
		arch.FlushSpeedHot()
		st := arch.SpeedStats()
		stalePre := arch.Staleness()
		if _, err := arch.RunBatch(); err != nil {
			panic(err)
		}
		checked, mismatch := lambdaOracleCompare(arch, geom, protos, values, now)
		t.AddRow(d(round), d(arch.Appended()), d(stalePre), d(st.HotKeys), d(st.SplayedWrites), d(checked), d(mismatch))
	}
	return t
}

// lambdaOracleCompare checks every key's merged answer against a single
// store rebuilt from the whole master log with the architecture's own
// geometry, returning how many answers were checked and how many
// disagreed beyond each family's bound.
func lambdaOracleCompare(arch *lambda.Architecture, geom store.Config, protos map[string]store.Prototype, values map[string][]uint64, to int64) (checked, mismatch int) {
	oracle, _, err := store.Rebuild(geom, protos, arch.Topic(), nil)
	if err != nil {
		panic(err)
	}
	q := func(src func(store.QueryRequest) (store.QueryResult, error), metric, key string) store.Synopsis {
		res, err := src(store.QueryRequest{Metric: metric, Key: key, From: 0, To: to + 1})
		if err != nil {
			panic(err)
		}
		return res.Raw()
	}
	for _, key := range oracle.Keys("hits") {
		// Counters: additive, exact.
		mh := q(arch.Query, "hits", key).(*store.Freq)
		oh := q(oracle.Query, "hits", key).(*store.Freq)
		for u := 0; u < 8; u++ {
			item := fmt.Sprintf("u%d", u)
			if mh.Count(item) != oh.Count(item) {
				mismatch++
			}
			checked++
		}
		// Cardinality: register max, exact.
		if q(arch.Query, "uniq", key).(*store.Distinct).Estimate() != q(oracle.Query, "uniq", key).(*store.Distinct).Estimate() {
			mismatch++
		}
		checked++
		// Top-k: exact regime (64 counters, 48 items), exact.
		mt := map[string]uint64{}
		for _, c := range q(arch.Query, "top", key).(*store.TopK).Top(64) {
			mt[c.Item] = c.Count
		}
		ot := map[string]uint64{}
		for _, c := range q(oracle.Query, "top", key).(*store.TopK).Top(64) {
			ot[c.Item] = c.Count
		}
		if len(mt) != len(ot) {
			mismatch++
		} else {
			for item, c := range ot {
				if mt[item] != c {
					mismatch++
					break
				}
			}
		}
		checked++
		// Quantiles: rank error within the merged digest budget against
		// the exact value list.
		vals := append([]uint64(nil), values[key]...)
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		n := len(vals)
		tol := int(0.25*float64(n)) + 1 // 4x slack on 2 x logU/k = 0.125
		ml := q(arch.Query, "lat", key).(*store.Quantiles)
		for _, phi := range []float64{0.5, 0.9, 0.99} {
			got := ml.Quantile(phi)
			lo := sort.Search(n, func(i int) bool { return vals[i] >= got })
			hi := sort.Search(n, func(i int) bool { return vals[i] > got })
			target := int(phi * float64(n))
			if lo-tol > target || hi+tol < target {
				mismatch++
			}
			checked++
		}
	}
	return checked, mismatch
}
