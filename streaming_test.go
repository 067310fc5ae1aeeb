package repro_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro"
)

// These tests exercise the public facade end to end — the integration
// surface a downstream user sees — complementing the per-package unit
// tests in internal/.

// querySyn answers one series over the half-open [from, to) through q's
// Query and returns the merged synopsis.
func querySyn(q interface {
	Query(repro.QueryRequest) (repro.QueryResult, error)
}, metric, key string, from, to int64) (repro.StoreSynopsis, error) {
	res, err := q.Query(repro.QueryRequest{Metric: metric, Key: key, From: from, To: to})
	return res.Raw(), err
}

func TestFacadeSketchRoundTrip(t *testing.T) {
	hll, err := repro.NewHyperLogLog(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := repro.NewSpaceSaving(50)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := repro.NewGK(0.01)
	if err != nil {
		t.Fatal(err)
	}
	bloom, err := repro.NewBloom(10000, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("item-%d", i%1000)
		hll.UpdateString(key)
		ss.Update(key)
		gk.Update(float64(i % 1000))
		bloom.AddString(key)
	}
	if est := hll.Estimate(); math.Abs(est-1000) > 100 {
		t.Fatalf("facade HLL estimate %v", est)
	}
	if top := ss.TopK(5); len(top) != 5 {
		t.Fatalf("facade top-k %v", top)
	}
	if med := gk.Query(0.5); med < 400 || med > 600 {
		t.Fatalf("facade median %v", med)
	}
	if !bloom.ContainsString("item-1") {
		t.Fatal("facade bloom lost a key")
	}
}

func TestFacadeGenericSamplers(t *testing.T) {
	res, err := repro.NewReservoir[string](10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		res.Update(fmt.Sprintf("ev-%d", i))
	}
	if len(res.Sample()) != 10 {
		t.Fatalf("facade reservoir size %d", len(res.Sample()))
	}
	wr, err := repro.NewWeightedReservoir[int](5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		wr.Update(i, float64(i+1))
	}
	if len(wr.Sample()) != 5 {
		t.Fatalf("facade weighted reservoir size %d", len(wr.Sample()))
	}
}

func TestFacadeTopologyWordcount(t *testing.T) {
	sentences := []string{"a b", "b c", "c c"}
	i := 0
	spout := repro.SpoutFunc(func() (repro.TupleMessage, bool) {
		if i >= len(sentences) {
			return repro.TupleMessage{}, false
		}
		i++
		return repro.TupleMessage{Value: sentences[i-1]}, true
	})
	counts := map[string]int{}
	split := func(int) repro.Bolt {
		return repro.BoltFunc(func(m repro.TupleMessage, emit func(repro.TupleMessage)) error {
			for _, r := range m.Value.(string) {
				if r != ' ' {
					emit(repro.TupleMessage{Key: string(r), Value: 1})
				}
			}
			return nil
		})
	}
	count := func(int) repro.Bolt {
		return repro.BoltFunc(func(m repro.TupleMessage, emit func(repro.TupleMessage)) error {
			counts[m.Key]++
			return nil
		})
	}
	top, err := repro.NewTopologyBuilder().
		AddSpout("src", spout).
		AddBolt("split", split, 2, repro.ShuffleFrom("src")).
		AddBolt("count", count, 1, repro.GlobalFrom("split")).
		Build(repro.TopologyConfig{Semantics: repro.AtLeastOnce})
	if err != nil {
		t.Fatal(err)
	}
	stats := top.Run()
	if counts["c"] != 3 || counts["b"] != 2 || counts["a"] != 1 {
		t.Fatalf("facade wordcount %v", counts)
	}
	if stats.Acked != 3 {
		t.Fatalf("facade acked %d", stats.Acked)
	}
}

func TestFacadeLambda(t *testing.T) {
	geom := repro.SketchStoreConfig{Shards: 4, BucketWidth: 10, RingBuckets: 64}
	arch, err := repro.NewLambda(repro.LambdaConfig{Partitions: 2, Batch: geom, Speed: geom})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	proto, err := repro.NewFreqProto(256, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.RegisterMetric("hits", proto); err != nil {
		t.Fatal(err)
	}
	if err := arch.Append(repro.StoreObservation{Metric: "hits", Key: "k", Item: "u", Value: 5, Time: 0}); err != nil {
		t.Fatal(err)
	}
	info, err := arch.RunBatch()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Applied != 1 {
		t.Fatalf("facade batch info %+v", info)
	}
	if err := arch.Append(repro.StoreObservation{Metric: "hits", Key: "k", Item: "u", Value: 3, Time: 1}); err != nil {
		t.Fatal(err)
	}
	syn, err := querySyn(arch, "hits", "k", 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got := syn.(*repro.FreqSynopsis).Count("u"); got != 8 {
		t.Fatalf("facade lambda merged count %d, want 8", got)
	}
	if arch.Staleness() != 1 {
		t.Fatalf("facade staleness %d, want 1", arch.Staleness())
	}
	// The standalone batch-layer helpers compose over the same topic.
	view, err := repro.FreezeStoreAt(geom, map[string]repro.StorePrototype{"hits": proto}, arch.Topic(), arch.Topic().EndOffsets(), nil)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := querySyn(view, "hits", "k", 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got := vs.(*repro.FreqSynopsis).Count("u"); got != 8 {
		t.Fatalf("facade frozen view count %d, want 8", got)
	}
}

// The unified serving API through the facade: all three serving layers
// satisfy repro.Backend, answer typed QueryRequests, and agree on the
// unknown-metric sentinel.
func TestFacadeBackend(t *testing.T) {
	geom := repro.SketchStoreConfig{Shards: 4, BucketWidth: 10, RingBuckets: 64}
	proto, err := repro.NewDistinctProto(12, 7)
	if err != nil {
		t.Fatal(err)
	}

	st, err := repro.NewSketchStore(geom)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := repro.NewStoreCluster(repro.StoreClusterConfig{Partitions: 4, Store: geom})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	arch, err := repro.NewLambda(repro.LambdaConfig{Partitions: 2, Batch: geom, Speed: geom})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()

	backends := []repro.Backend{st, cl.Router(), arch}
	for _, be := range backends {
		if err := be.RegisterMetric("uniques", proto); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.StartNode(); err != nil {
		t.Fatal(err)
	}
	for _, be := range backends {
		for i := 0; i < 100; i++ {
			if err := be.Observe(repro.StoreObservation{
				Metric: "uniques", Key: "home", Item: fmt.Sprintf("u%d", i%40), Time: int64(i % 50),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, be := range backends {
		res, err := be.Query(repro.QueryRequest{Metric: "uniques", Key: "home", From: 0, To: 50})
		if err != nil {
			t.Fatal(err)
		}
		if res.Family() != repro.FamilyDistinct {
			t.Fatalf("family %v, want distinct", res.Family())
		}
		if got := res.Distinct(); got < 35 || got > 45 {
			t.Fatalf("typed distinct %d, want ~40", got)
		}
		// The typed accessor is the raw synopsis's rounded estimate.
		if want := res.Raw().(*repro.DistinctSynopsis).Estimate(); float64(res.Distinct()) != math.Round(want) {
			t.Fatalf("typed %d != raw %f", res.Distinct(), want)
		}
		// Unified error semantics: unknown metrics carry the sentinel...
		if _, err := be.Query(repro.QueryRequest{Metric: "nope", Key: "home", From: 0, To: 50}); !errors.Is(err, repro.ErrUnknownMetric) {
			t.Fatalf("unknown metric error %v, want ErrUnknownMetric", err)
		}
		// ...and a known metric with no data answers empty, not an error.
		res, err = be.Query(repro.QueryRequest{Metric: "uniques", Key: "ghost", From: 0, To: 50})
		if err != nil {
			t.Fatal(err)
		}
		if res.Items() != 0 {
			t.Fatalf("ghost key items %d, want 0", res.Items())
		}
		if got := be.Keys("uniques"); len(got) != 1 || got[0] != "home" {
			t.Fatalf("keys %v, want [home]", got)
		}
		if be.Stats().Observed == 0 {
			t.Fatal("stats observed 0")
		}
	}
}

func TestFacadeBrokerConsumerGroup(t *testing.T) {
	b := repro.NewBroker()
	topic, err := b.CreateTopic("t", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		topic.Produce(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	g, err := repro.NewConsumerGroup(b, topic, "grp")
	if err != nil {
		t.Fatal(err)
	}
	g.Join("w")
	total := 0
	for {
		batches := g.Poll("w", 100)
		if len(batches) == 0 {
			break
		}
		for _, batch := range batches {
			total += len(batch.Messages)
			g.Commit(batch.Partition, batch.Next)
		}
	}
	if total != 10 {
		t.Fatalf("facade consumer got %d", total)
	}
}

func TestFacadeGraphAndWindows(t *testing.T) {
	sf, err := repro.NewSpanningForest(10)
	if err != nil {
		t.Fatal(err)
	}
	sf.Update(repro.GraphEdge{U: 0, V: 1})
	sf.Update(repro.GraphEdge{U: 1, V: 2})
	if !sf.Connected(0, 2) {
		t.Fatal("facade forest connectivity")
	}
	dg, err := repro.NewDGIM(100, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		dg.Update(true)
	}
	if est := dg.Estimate(); est < 40 || est > 60 {
		t.Fatalf("facade DGIM estimate %d", est)
	}
}

func TestFacadeWindowedQuantileAndMinCut(t *testing.T) {
	wq, err := repro.NewWindowedQuantile(1000, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		wq.Update(float64(i % 100))
	}
	if med := wq.Query(0.5); med < 30 || med > 70 {
		t.Fatalf("facade windowed median %v", med)
	}
	mc, err := repro.NewMinCut(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	mc.Update(repro.GraphEdge{U: 0, V: 1})
	mc.Update(repro.GraphEdge{U: 1, V: 2})
	mc.Update(repro.GraphEdge{U: 2, V: 3})
	if cut := mc.Estimate(50); cut != 1 {
		t.Fatalf("facade path min cut %d", cut)
	}
}

func TestFacadePredictors(t *testing.T) {
	truth := []float64{1, 2, 3, 4, 5, 6}
	masked := []float64{1, 2, math.NaN(), 4, math.NaN(), 6}
	k, _ := repro.NewKalman(0.1, 1)
	rmse := repro.ImputeRMSE(k, truth, masked)
	base := repro.ImputeRMSE(repro.NewLastValue(), truth, masked)
	if rmse < 0 || base < 0 {
		t.Fatal("negative RMSE")
	}
}

// The sketch-store facade covers the full speed/batch loop: ingest via a
// SinkBolt topology, concurrent range queries, and a rebuild from the
// log that matches the live store.
func TestFacadeSketchStore(t *testing.T) {
	protos := map[string]repro.StorePrototype{}
	hll, err := repro.NewDistinctProto(12, 42)
	if err != nil {
		t.Fatal(err)
	}
	topk, err := repro.NewTopKProto(32)
	if err != nil {
		t.Fatal(err)
	}
	protos["uniques"], protos["top"] = hll, topk
	cfg := repro.SketchStoreConfig{Shards: 8, BucketWidth: 10, RingBuckets: 100}
	st, err := repro.NewSketchStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range protos {
		if err := st.RegisterMetric(name, p); err != nil {
			t.Fatal(err)
		}
	}

	broker := repro.NewBroker()
	topic, err := broker.CreateTopic("events", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	const events = 3000
	for i := 0; i < events; i++ {
		obs := repro.StoreObservation{
			Metric: "uniques",
			Key:    fmt.Sprintf("page%d", i%4),
			Item:   fmt.Sprintf("user%d", i%800),
			Time:   int64(i % 500),
		}
		topic.Produce(obs.Key, repro.EncodeObservation(obs))
	}

	// Speed layer: topology ingest from the log.
	var pos int
	var queue []repro.StoreObservation
	spout := repro.SpoutFunc(func() (repro.TupleMessage, bool) {
		for len(queue) == 0 {
			if pos >= topic.Partitions() {
				return repro.TupleMessage{}, false
			}
			off := topic.StartOffset(pos)
			msgs, next, _, err := topic.Fetch(pos, off, events)
			if err != nil || len(msgs) == 0 {
				pos++
				continue
			}
			for _, m := range msgs {
				if obs, err := repro.DecodeObservation(m.Value); err == nil {
					queue = append(queue, obs)
				}
			}
			_ = next
			pos++
		}
		obs := queue[0]
		queue = queue[1:]
		return repro.TupleMessage{Key: obs.Key, Value: obs}, true
	})
	sink, err := repro.NewSinkBolt(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := repro.NewTopologyBuilder().
		AddSpout("log", spout).
		AddBolt("store", sink.Factory(), 4, repro.FieldsFrom("log")).
		Build(repro.TopologyConfig{Semantics: repro.AtLeastOnce})
	if err != nil {
		t.Fatal(err)
	}
	topo.Run()
	if got := st.Stats().Observed; got != events {
		t.Fatalf("speed layer observed %d, want %d", got, events)
	}

	// Batch layer: rebuild from the log and compare.
	batch, applied, err := repro.RebuildStore(cfg, protos, topic, nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied != events {
		t.Fatalf("replayed %d, want %d", applied, events)
	}
	for k := 0; k < 4; k++ {
		key := fmt.Sprintf("page%d", k)
		a, err := querySyn(st, "uniques", key, 0, 500)
		if err != nil {
			t.Fatal(err)
		}
		b, err := querySyn(batch, "uniques", key, 0, 500)
		if err != nil {
			t.Fatal(err)
		}
		sa := a.(*repro.DistinctSynopsis).Estimate()
		sb := b.(*repro.DistinctSynopsis).Estimate()
		if sa != sb {
			t.Fatalf("%s: speed %f != batch %f", key, sa, sb)
		}
		if sa < 150 || sa > 250 {
			t.Fatalf("%s: implausible estimate %f", key, sa)
		}
	}
}

// The partitioned store cluster through the facade: cluster up, ingest
// through the router, scatter-gather a union, survive a kill/rejoin, and
// agree with a single-store rebuild of the same log.
func TestFacadeStoreCluster(t *testing.T) {
	storeCfg := repro.SketchStoreConfig{Shards: 4, BucketWidth: 10, RingBuckets: 100}
	c, err := repro.NewStoreCluster(repro.StoreClusterConfig{Partitions: 8, Store: storeCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	proto, err := repro.NewDistinctProto(12, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterMetric("uniques", proto); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	const events = 3000
	r := c.Router()
	for i := 0; i < events; i++ {
		if err := r.Observe(repro.StoreObservation{
			Metric: "uniques",
			Key:    fmt.Sprintf("page%d", i%8),
			Item:   fmt.Sprintf("user%d", i%700),
			Time:   int64(i % 500),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	// Kill + rejoin: survivors and the joiner recover from the log.
	if err := c.StopNode(c.NodeNames()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StartNode(); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	batch, applied, err := repro.RebuildStore(storeCfg, map[string]repro.StorePrototype{"uniques": proto}, c.Topic(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied != events {
		t.Fatalf("replayed %d, want %d", applied, events)
	}
	keys := r.Keys("uniques")
	if len(keys) != 8 {
		t.Fatalf("cluster serves %d keys, want 8", len(keys))
	}
	var parts []repro.StoreSynopsis
	for _, key := range keys {
		a, err := querySyn(r, "uniques", key, 0, 500)
		if err != nil {
			t.Fatal(err)
		}
		b, err := querySyn(batch, "uniques", key, 0, 500)
		if err != nil {
			t.Fatal(err)
		}
		sa := a.(*repro.DistinctSynopsis).Estimate()
		sb := b.(*repro.DistinctSynopsis).Estimate()
		if sa != sb {
			t.Fatalf("%s: cluster %f != batch rebuild %f", key, sa, sb)
		}
		parts = append(parts, b)
	}
	// Scatter-gather union vs a manual combine of the oracle's parts.
	union, err := r.Query(repro.QueryRequest{Metric: "uniques", Keys: keys, From: 0, To: 500, Aggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := repro.CombineSnapshots(proto, parts...)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := union.Raw().(*repro.DistinctSynopsis).Estimate(), want.(*repro.DistinctSynopsis).Estimate(); g != w {
		t.Fatalf("scatter-gather union %f != combined oracle %f", g, w)
	}
}
