package engine

import (
	"fmt"
	"testing"

	"repro/internal/analytics"
	"repro/internal/dstore"
	"repro/internal/lambda"
	"repro/internal/mqlog"
	"repro/internal/store"
)

func sinkGeom() store.Config {
	return store.Config{Shards: 4, BucketWidth: 10, RingBuckets: 64}
}

// sinkHarness is one serving layer under a SinkBolt, with the metric
// registered: the backend, a drain to reach read-your-writes, the
// ingest log it appends to (nil for the synchronous store) and any
// layer-specific checks, run after the per-key answers match the oracle.
type sinkHarness struct {
	be    analytics.Backend
	drain func() error
	log   *mqlog.Topic
	after func(t *testing.T, observed uint64, answers func() store.QueryResult)
}

func newSinkHarness(t *testing.T, kind string, proto store.Prototype) sinkHarness {
	t.Helper()
	switch kind {
	case "store":
		st, err := store.New(sinkGeom())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.RegisterMetric("uniques", proto); err != nil {
			t.Fatal(err)
		}
		return sinkHarness{be: st, drain: func() error { return nil }}
	case "cluster-router":
		cl, err := dstore.New(dstore.Config{Partitions: 4, Store: sinkGeom()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		if err := cl.Router().RegisterMetric("uniques", proto); err != nil {
			t.Fatal(err)
		}
		// Start and settle the nodes before any record lands, so every
		// record is consumed once by the live loop, never replayed by a
		// post-start rebalance.
		for i := 0; i < 2; i++ {
			if _, err := cl.StartNode(); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Drain(); err != nil {
			t.Fatal(err)
		}
		return sinkHarness{
			be:    cl.Router(),
			drain: cl.Drain,
			log:   cl.Topic(),
			after: func(t *testing.T, observed uint64, _ func() store.QueryResult) {
				if st := cl.Stats(); st.Applied+st.Replayed != observed {
					t.Fatalf("cluster consumed %d, want %d", st.Applied+st.Replayed, observed)
				}
			},
		}
	case "lambda":
		arch, err := lambda.New(lambda.Config{Partitions: 2, Batch: sinkGeom(), Speed: sinkGeom()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { arch.Close() })
		if err := arch.RegisterMetric("uniques", proto); err != nil {
			t.Fatal(err)
		}
		return sinkHarness{
			be:    arch,
			drain: arch.Drain,
			log:   arch.Topic(),
			// Every tuple reached the master log AND the speed layer: a
			// batch recompute covers the whole run, truncates the speed
			// layer to nothing, and leaves every merged answer unchanged.
			after: func(t *testing.T, _ uint64, answers func() store.QueryResult) {
				before := answers()
				if _, err := arch.RunBatch(); err != nil {
					t.Fatal(err)
				}
				if obs := arch.SpeedStats().Observed; obs != 0 {
					t.Fatalf("speed layer holds %d observations after handoff", obs)
				}
				for i, a := range answers().Answers() {
					if a.Distinct() != before.Answers()[i].Distinct() {
						t.Fatalf("%s: post-batch distinct %d, pre-batch %d", a.Key, a.Distinct(), before.Answers()[i].Distinct())
					}
				}
			},
		}
	}
	t.Fatalf("unknown backend %q", kind)
	return sinkHarness{}
}

// One generic SinkBolt drives every serving backend through the same
// topology wiring — parallel bolt tasks hammer Observe concurrently, so
// this is also the -race pass over the Backend write paths (named
// TestSinkBolt for the CI race step). Each backend runs under a 4-task
// fields-grouped topology and a 2-task shuffle-grouped one; every
// seventh tuple is a foreign message the extractor skips, which still
// acks and never reaches the backend or its log. Per-key answers must
// equal one store fed the same observations in order.
func TestSinkBoltIntoEachBackend(t *testing.T) {
	const events = 3000
	hll, err := store.NewDistinctProto(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	message := func(i int) Message {
		key := fmt.Sprintf("page%d", i%8)
		if i%7 == 6 {
			return Message{Key: key, Value: "not an observation"}
		}
		return Message{Key: key, Value: store.Observation{
			Metric: "uniques", Key: key, Item: fmt.Sprintf("u%d", i%500), Time: int64(i % 300),
		}}
	}
	oracle, err := store.New(sinkGeom())
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.RegisterMetric("uniques", hll); err != nil {
		t.Fatal(err)
	}
	var observed uint64
	for i := 0; i < events; i++ {
		if obs, ok := DefaultExtract(message(i)); ok {
			if err := oracle.Observe(obs); err != nil {
				t.Fatal(err)
			}
			observed++
		}
	}
	perKey := store.QueryRequest{Metric: "uniques", AllKeys: true, From: 0, To: 300}
	want, err := oracle.Query(perKey)
	if err != nil {
		t.Fatal(err)
	}

	for _, kind := range []string{"store", "cluster-router", "lambda"} {
		for _, topo := range []struct {
			suffix string
			tasks  int
			group  func(string) Input
		}{{"", 4, FieldsFrom}, {"-shuffle", 2, ShuffleFrom}} {
			t.Run(kind+topo.suffix, func(t *testing.T) {
				h := newSinkHarness(t, kind, hll)
				sink, err := NewSinkBolt(h.be, nil)
				if err != nil {
					t.Fatal(err)
				}
				if sink.Backend() == nil {
					t.Fatal("backend accessor lost the backend")
				}
				emitted := 0
				spout := SpoutFunc(func() (Message, bool) {
					if emitted >= events {
						return Message{}, false
					}
					emitted++
					return message(emitted - 1), true
				})
				run, err := NewBuilder().
					AddSpout("events", spout).
					AddBolt("sink", sink.Factory(), topo.tasks, topo.group("events")).
					Build(Config{Semantics: AtLeastOnce})
				if err != nil {
					t.Fatal(err)
				}
				stats := run.Run()
				if stats.Acked != events || stats.Dropped != 0 || stats.Errors["sink"] != 0 {
					t.Fatalf("topology stats %+v, want %d acked and no failures", stats, events)
				}
				// Flush settles buffering backends (the router's partition
				// batches), so the log holds every observation before any
				// drain; a no-op for the store.
				sink.Flush()
				if h.log != nil {
					var logged uint64
					for _, end := range h.log.EndOffsets() {
						logged += end
					}
					if logged != observed {
						t.Fatalf("log holds %d records after Flush, want %d", logged, observed)
					}
				}
				if err := h.drain(); err != nil {
					t.Fatal(err)
				}
				if got := h.be.Stats().Observed; got != observed {
					t.Fatalf("backend observed %d, want %d", got, observed)
				}
				answers := func() store.QueryResult {
					res, err := h.be.Query(perKey)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				got := answers()
				if got.Len() != want.Len() {
					t.Fatalf("%d keys, want %d", got.Len(), want.Len())
				}
				for i, a := range got.Answers() {
					if w := want.Answers()[i]; a.Key != w.Key || a.Distinct() != w.Distinct() {
						t.Fatalf("%s distinct %d, oracle %s %d", a.Key, a.Distinct(), w.Key, w.Distinct())
					}
				}
				agg, err := h.be.Query(store.QueryRequest{Metric: "uniques", AllKeys: true, From: 0, To: 300, Aggregate: true})
				if err != nil {
					t.Fatal(err)
				}
				if d := agg.Distinct(); d < 450 || d > 550 {
					t.Fatalf("aggregate distinct %d, want ~500", d)
				}
				if h.after != nil {
					h.after(t, observed, answers)
				}
			})
		}
	}
}

// Skips and failures follow the bolt contract: extract false skips the
// tuple, a backend error fails the tuple tree.
func TestSinkBoltSkipAndError(t *testing.T) {
	st, err := store.New(sinkGeom())
	if err != nil {
		t.Fatal(err)
	}
	hll, _ := store.NewDistinctProto(10, 1)
	if err := st.RegisterMetric("uniques", hll); err != nil {
		t.Fatal(err)
	}
	sink, err := NewSinkBolt(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Non-observation values are skipped, not errors.
	if err := sink.Process(Message{Value: "not an observation"}, nil); err != nil {
		t.Fatalf("skip returned %v", err)
	}
	// Unknown metrics fail the tuple.
	err = sink.Process(Message{Value: store.Observation{Metric: "nope", Key: "k", Time: 0}}, nil)
	if err == nil {
		t.Fatal("unknown metric did not fail the tuple")
	}
	if _, err := NewSinkBolt(nil, nil); err == nil {
		t.Fatal("nil backend accepted")
	}
}

func TestDefaultExtract(t *testing.T) {
	obs := store.Observation{Metric: "m", Key: "k", Item: "i", Time: 3}
	if got, ok := DefaultExtract(Message{Value: obs}); !ok || got != obs {
		t.Fatalf("value extract: %+v %v", got, ok)
	}
	if got, ok := DefaultExtract(Message{Value: &obs}); !ok || got != obs {
		t.Fatalf("pointer extract: %+v %v", got, ok)
	}
	if _, ok := DefaultExtract(Message{Value: (*store.Observation)(nil)}); ok {
		t.Fatal("nil pointer extracted")
	}
	if _, ok := DefaultExtract(Message{Value: "not an observation"}); ok {
		t.Fatal("foreign value extracted")
	}
}

// pageSpout emits tuples observations over eight page keys, keyed by
// page so fields grouping keeps each series on one task.
func pageSpout(tuples int, obs func(i int) store.Observation) Spout {
	emitted := 0
	return SpoutFunc(func() (Message, bool) {
		if emitted >= tuples {
			return Message{}, false
		}
		o := obs(emitted)
		emitted++
		return Message{Key: o.Key, Value: o}, true
	})
}

// runSink drives be through a SinkBolt under a 4-task fields-grouped
// topology and fails the test on any dropped or failed tuple.
func runSink(t *testing.T, be analytics.Backend, spout Spout) *SinkBolt {
	t.Helper()
	sink, err := NewSinkBolt(be, nil)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewBuilder().
		AddSpout("events", spout).
		AddBolt("sink", sink.Factory(), 4, FieldsFrom("events")).
		Build(Config{Semantics: AtLeastOnce})
	if err != nil {
		t.Fatal(err)
	}
	if stats := topo.Run(); stats.Dropped != 0 || stats.Errors["sink"] != 0 {
		t.Fatalf("topology failures: %+v", stats)
	}
	return sink
}

func uniquesAt(i int) store.Observation {
	return store.Observation{
		Metric: "uniques",
		Key:    fmt.Sprintf("page%d", i%8),
		Item:   fmt.Sprintf("user%d", i%900),
		Time:   int64(i % 300),
	}
}

func pageKey(k int) store.QueryRequest {
	return store.QueryRequest{Metric: "uniques", Key: fmt.Sprintf("page%d", k), From: 0, To: 300}
}

// Parallel sink tasks share one store instance: the store locks per
// shard, not per task, so every tuple lands and each page's distinct
// count matches its user residue class.
func TestStoreBoltSinksTopologyStream(t *testing.T) {
	st, err := store.New(store.Config{Shards: 4, BucketWidth: 10, RingBuckets: 100})
	if err != nil {
		t.Fatal(err)
	}
	proto, err := store.NewDistinctProto(12, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterMetric("uniques", proto); err != nil {
		t.Fatal(err)
	}
	const tuples = 4000
	runSink(t, st, pageSpout(tuples, uniquesAt))
	got := st.Stats()
	if got.Observed != tuples {
		t.Fatalf("store observed %d, want %d", got.Observed, tuples)
	}
	if got.Entries != 8 {
		t.Fatalf("entries %d, want 8", got.Entries)
	}
	for k := 0; k < 8; k++ {
		res, err := st.Query(pageKey(k))
		if err != nil {
			t.Fatal(err)
		}
		// gcd(8 pages, 900 users) = 4, so each page cycles through a
		// 225-user residue class; allow HLL error around that.
		if d := res.Distinct(); d < 200 || d > 250 {
			t.Fatalf("page%d distinct %d", k, d)
		}
	}
}

// Parallel sink tasks forward a keyed stream to a three-node cluster's
// router; after Flush and a drain, every series served by its owning node
// equals one store rebuilt from the same log.
func TestClusterBoltSinksTopologyStream(t *testing.T) {
	geom := store.Config{Shards: 4, BucketWidth: 10, RingBuckets: 100}
	c, err := dstore.New(dstore.Config{Partitions: 8, Store: geom})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	proto, err := store.NewDistinctProto(12, 42)
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
	const tuples = 4000
	sink := runSink(t, c.Router(), pageSpout(tuples, uniquesAt))
	sink.Flush()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if cst := c.Stats(); cst.Applied+cst.Replayed != tuples {
		t.Fatalf("cluster consumed %d, want %d", cst.Applied+cst.Replayed, tuples)
	}
	oracle, _, err := store.Rebuild(geom, map[string]store.Prototype{"uniques": proto}, c.Topic(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		got, err := c.Router().Query(pageKey(k))
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Query(pageKey(k))
		if err != nil {
			t.Fatal(err)
		}
		if got.Distinct() != want.Distinct() {
			t.Fatalf("page%d: cluster %d != oracle %d", k, got.Distinct(), want.Distinct())
		}
	}
}

// One SinkBolt drives both Lambda layers: every tuple lands in the master
// log AND the speed layer, so exact per-page counts hold before a batch
// recompute and after it, once the speed layer is truncated to nothing.
func TestLambdaBoltDrivesBothLayers(t *testing.T) {
	geom := store.Config{Shards: 4, BucketWidth: 10, RingBuckets: 100}
	a, err := lambda.New(lambda.Config{Partitions: 4, Batch: geom, Speed: geom})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	proto, err := store.NewFreqProto(256, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterMetric("hits", proto); err != nil {
		t.Fatal(err)
	}
	const tuples = 4000
	runSink(t, a, pageSpout(tuples, func(i int) store.Observation {
		return store.Observation{Metric: "hits", Key: fmt.Sprintf("page%d", i%8), Item: "view", Value: 1, Time: int64(i % 300)}
	}))
	if got := a.MasterLen(); got != tuples {
		t.Fatalf("master log has %d messages, want %d", got, tuples)
	}
	checkCounts := func(phase string) {
		t.Helper()
		for k := 0; k < 8; k++ {
			res, err := a.Query(store.QueryRequest{Metric: "hits", Key: fmt.Sprintf("page%d", k), From: 0, To: 300})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Count("view"); got != tuples/8 {
				t.Fatalf("page%d %s merged count %d, want %d", k, phase, got, tuples/8)
			}
		}
	}
	checkCounts("pre-batch")
	if _, err := a.RunBatch(); err != nil {
		t.Fatal(err)
	}
	if obs := a.SpeedStats().Observed; obs != 0 {
		t.Fatalf("speed layer holds %d observations after handoff", obs)
	}
	checkCounts("post-batch")
}
