package store

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

// A traced batch write records one store.observe span per shard group,
// parented on the batch's trace and carrying the metric, the shard and
// the lock wait — the same span a traced single Observe records, since
// both land through the one shard write path.
func TestTracedObserveBatchRecordsStoreSpans(t *testing.T) {
	st, err := New(Config{Shards: 4, BucketWidth: 10, RingBuckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	hll, err := NewDistinctProto(12, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterMetric("uniq", hll); err != nil {
		t.Fatal(err)
	}
	tr := trace.NewTracer(trace.Config{SampleRate: 1, Seed: 3})
	st.SetTracer(tr)

	root := tr.StartSampled("analytics.observe")
	batch := make([]Observation, 32)
	groups := map[int64]bool{}
	for i := range batch {
		batch[i] = Observation{Metric: "uniq", Key: fmt.Sprintf("k%d", i%8), Item: fmt.Sprintf("u%d", i), Time: int64(i), Trace: root.Context()}
		groups[int64(st.shardIndex(entryKey{metric: "uniq", key: batch[i].Key}))] = true
	}
	if err := st.ObserveBatch(batch); err != nil {
		t.Fatal(err)
	}
	root.Finish()
	single := tr.StartSampled("analytics.observe")
	one := Observation{Metric: "uniq", Key: "k0", Item: "u", Time: 40, Trace: single.Context()}
	if err := st.Observe(one); err != nil {
		t.Fatal(err)
	}
	single.Finish()

	spans := map[trace.TraceID][]trace.SpanSnapshot{}
	for _, ts := range tr.Traces() {
		for _, sp := range ts.Spans {
			if sp.Name == "store.observe" {
				spans[ts.ID] = append(spans[ts.ID], sp)
			}
		}
	}
	check := func(ctx trace.Context, want map[int64]bool) {
		t.Helper()
		got := spans[ctx.Trace]
		if len(got) != len(want) {
			t.Fatalf("%d store.observe spans, want one per shard group (%d)", len(got), len(want))
		}
		for _, sp := range got {
			if sp.Parent != ctx.Span {
				t.Fatalf("store.observe parent %v, want the caller's span %v", sp.Parent, ctx.Span)
			}
			attrs := map[string]trace.Attr{}
			for _, a := range sp.Attrs {
				attrs[a.Key] = a
			}
			if attrs["metric"].Str != "uniq" {
				t.Fatalf("metric attr %+v", attrs["metric"])
			}
			if _, ok := attrs["lock_wait_ns"]; !ok {
				t.Fatal("no lock_wait_ns attr")
			}
			shard, ok := attrs["shard"]
			if !ok || !want[shard.Int] {
				t.Fatalf("shard attr %+v not among the batch's shard groups %v", shard, want)
			}
			delete(want, shard.Int)
		}
	}
	check(root.Context(), groups)
	check(single.Context(), map[int64]bool{int64(st.shardIndex(entryKey{metric: "uniq", key: "k0"})): true})
}
