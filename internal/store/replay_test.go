package store

import (
	"fmt"
	"testing"

	"repro/internal/mqlog"
)

// replayFixture builds a topic carrying n encoded observations over parts
// partitions (keyed so each series sticks to one partition) plus a store
// factory with a distinct-count metric registered.
func replayFixture(t *testing.T, parts, retention, n int) (*mqlog.Broker, *mqlog.Topic, func() *Store) {
	t.Helper()
	broker := mqlog.NewBroker()
	topic, err := broker.CreateTopic("events", parts, retention)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		obs := Observation{
			Metric: "uniq",
			Key:    fmt.Sprintf("k%d", i%7),
			Item:   fmt.Sprintf("u%d", i),
			Time:   int64(i),
		}
		topic.Produce(obs.Key, EncodeObservation(obs))
	}
	proto, err := NewDistinctProto(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	newStore := func() *Store {
		st, err := New(Config{Shards: 4, BucketWidth: 100, RingBuckets: 64})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.RegisterMetric("uniq", proto); err != nil {
			t.Fatal(err)
		}
		return st
	}
	return broker, topic, newStore
}

func queryEstimate(t *testing.T, st *Store, key string, to int64) float64 {
	t.Helper()
	syn, err := querySyn(st, "uniq", key, 0, to+1)
	if err != nil {
		t.Fatal(err)
	}
	return syn.(*Distinct).Estimate()
}

// TestReplayResumesFromCommittedOffsets is the consumer-restart story: a
// store consumes half the log, commits its positions through a consumer
// group, "restarts" (same store, the positions survive in the broker), and
// resumes replaying from the committed offsets. Nothing may be double-
// counted and nothing skipped: the total applied count is exactly the log
// size and every query answer matches a store that replayed in one pass.
func TestReplayResumesFromCommittedOffsets(t *testing.T) {
	const total = 2000
	broker, topic, newStore := replayFixture(t, 4, 0, total)
	group, err := mqlog.NewConsumerGroup(broker, topic, "speed")
	if err != nil {
		t.Fatal(err)
	}
	group.Join("node-0")

	st := newStore()
	var applied uint64
	// First leg: consume roughly half of each partition the way a live
	// consumer does — fetch, apply, commit the next offset — then "crash"
	// with the store intact and the positions durable in the broker.
	for pid := 0; pid < topic.Partitions(); pid++ {
		mid := topic.EndOffset(pid) / 2
		if mid == 0 {
			// Nothing routed here (or a single message): Fetch rejects
			// max <= 0 by contract, so there is no half-consumed leg.
			continue
		}
		msgs, next, _, err := topic.Fetch(pid, 0, int(mid))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			obs, ok := WireDecoder(m)
			if !ok {
				t.Fatalf("undecodable message at pid %d offset %d", pid, m.Offset)
			}
			if err := st.Observe(obs); err != nil {
				t.Fatal(err)
			}
			applied++
		}
		group.Commit(pid, next)
	}

	// Restart leg: resume each partition from its committed offset.
	for pid := 0; pid < topic.Partitions(); pid++ {
		from := broker.Committed("speed", "events", pid)
		next, n, truncated, err := ReplayPartition(st, topic, pid, from, nil)
		if err != nil {
			t.Fatal(err)
		}
		if truncated {
			t.Fatalf("pid %d: unexpected truncation on an unbounded topic", pid)
		}
		if next != topic.EndOffset(pid) {
			t.Fatalf("pid %d: resumed replay stopped at %d, end is %d", pid, next, topic.EndOffset(pid))
		}
		applied += n
		group.Commit(pid, next)
	}
	if applied != total {
		t.Fatalf("two-leg replay applied %d observations, log has %d (double count or skip)", applied, total)
	}
	if lag := broker.Lag("speed", topic); lag != 0 {
		t.Fatalf("lag %d after full resume", lag)
	}

	// One-pass oracle.
	oracle := newStore()
	if n, err := Replay(oracle, topic, nil); err != nil || n != total {
		t.Fatalf("oracle replay: n=%d err=%v", n, err)
	}
	for k := 0; k < 7; k++ {
		key := fmt.Sprintf("k%d", k)
		got, want := queryEstimate(t, st, key, total), queryEstimate(t, oracle, key, total)
		if got != want {
			t.Fatalf("key %s: resumed store %v != one-pass oracle %v", key, got, want)
		}
	}
}

// TestReplayPartitionTruncatedOffset is the retention race: the committed
// offset points below the oldest retained message, so the resume must
// report truncation, restart at the earliest retained offset (never loop
// or double-read), and apply exactly the retained suffix.
func TestReplayPartitionTruncatedOffset(t *testing.T) {
	const retention = 64
	_, topic, newStore := replayFixture(t, 1, retention, 500)
	if start := topic.StartOffset(0); start == 0 {
		t.Fatal("retention did not truncate the partition")
	}
	st := newStore()
	next, n, truncated, err := ReplayPartition(st, topic, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Fatal("replay from a truncated offset did not report truncation")
	}
	if n != retention {
		t.Fatalf("applied %d observations, retained suffix is %d", n, retention)
	}
	if next != topic.EndOffset(0) {
		t.Fatalf("next %d != end %d", next, topic.EndOffset(0))
	}
}

// TestReplayPartitionValidation pins the error surface.
func TestReplayPartitionValidation(t *testing.T) {
	_, topic, newStore := replayFixture(t, 1, 0, 10)
	if _, _, _, err := ReplayPartition(nil, topic, 0, 0, nil); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, _, _, err := ReplayPartition(newStore(), nil, 0, 0, nil); err == nil {
		t.Fatal("nil topic accepted")
	}
	if _, _, _, err := ReplayPartition(newStore(), topic, 9, 0, nil); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
}
