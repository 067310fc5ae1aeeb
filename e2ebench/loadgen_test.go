package main

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func testGen(t *testing.T, workload string, seed uint64) *gen {
	t.Helper()
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.workload(workload)
	if err != nil {
		t.Fatal(err)
	}
	return newGen(m, w, seed)
}

// stream renders the first seconds of a seed's requests: schedule,
// payloads and query requests.
func stream(g *gen, seconds float64) []any {
	panels := g.panels()
	var out []any
	for _, o := range g.schedule(phaseFixed, seconds, 0) {
		out = append(out, o)
		switch o.kind {
		case opObserve:
			out = append(out, g.batch(o.phase, o.idx, g.eventTime(o.vt)))
		case opQuery:
			out = append(out, g.query(o, panels))
		default:
			obs, req := g.probe(o)
			out = append(out, obs, req)
		}
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range []string{"ingest", "dashboard", "lambda-cluster"} {
		a, b := stream(testGen(t, w, 7), 2), stream(testGen(t, w, 7), 2)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seed 7 gave two different streams", w)
		}
		if c := stream(testGen(t, w, 8), 2); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 gave the same stream", w)
		}
	}
}

// TestStallChargedFromDue stalls the only sender for 50 ms: the ops
// due during the stall must be charged from their due time and show up
// as generator lateness, and the loop must catch up afterwards.
func TestStallChargedFromDue(t *testing.T) {
	const n = 100
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{due: float64(i) * 0.002, idx: uint64(i)}
	}
	var mu sync.Mutex
	lat := make([]time.Duration, n)
	loop := &openLoop{
		senders: 1,
		ops:     ops,
		measure: 1,
		pollGap: time.Millisecond,
		maxGap:  time.Millisecond,
		do: func(i int, o op, wait func() time.Time) poll {
			due := wait()
			if i == 10 {
				time.Sleep(50 * time.Millisecond)
			}
			mu.Lock()
			lat[i] = time.Since(due)
			mu.Unlock()
			return nil
		},
	}
	loop.run(time.Now().Add(5 * time.Millisecond))
	// Op 11 was due 2 ms after op 10 but could not start until the stall
	// ended: about 48 ms late, and its latency counts all of it.
	if loop.late[11] < 40*time.Millisecond {
		t.Fatalf("op 11 late %v, want about 48ms", loop.late[11])
	}
	if lat[11] < loop.late[11] {
		t.Fatalf("op 11 latency %v is not charged from its due time (late %v)", lat[11], loop.late[11])
	}
	if lat[10] < 50*time.Millisecond {
		t.Fatalf("stalled op latency %v, want at least 50ms", lat[10])
	}
	if loop.late[n-1] > 20*time.Millisecond {
		t.Fatalf("generator did not catch up: last op %v late", loop.late[n-1])
	}
}

// TestPollsKeepTheTailRunning: an op that leaves a poll keeps the tail
// of the schedule flowing until the poll settles.
func TestPollsKeepTheTailRunning(t *testing.T) {
	ops := make([]op, 50)
	for i := range ops {
		ops[i] = op{due: float64(i) * 0.001}
	}
	var mu sync.Mutex
	sent := map[int]bool{}
	polls := 0
	loop := &openLoop{
		senders: 2,
		ops:     ops,
		measure: 0.010,
		pollGap: time.Millisecond,
		maxGap:  time.Millisecond,
		do: func(i int, o op, wait func() time.Time) poll {
			wait()
			mu.Lock()
			sent[i] = true
			mu.Unlock()
			if i != 5 {
				return nil
			}
			return func() bool {
				mu.Lock()
				defer mu.Unlock()
				polls++
				return polls == 20
			}
		},
	}
	loop.run(time.Now())
	if polls != 20 {
		t.Fatalf("poll ran %d times, want 20", polls)
	}
	if !sent[15] {
		t.Fatal("tail ops were not sent while a measured poll was outstanding")
	}
	if sent[48] || sent[49] {
		t.Fatal("the tail kept running after every measured poll settled")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},  // overlaps span 1
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent
		{ID: 4, Parent: 1, Start: 15, End: 20},
	}
	tr := newTree(spans)
	// Children cover [10,60) and [90,100): 60 of 100 ns.
	if got := tr.self(0); got != 0.040 {
		t.Fatalf("self(0) = %v us, want 0.040", got)
	}
	if got := tr.self(1); got != 0.025 {
		t.Fatalf("self(1) = %v us, want 0.025", got)
	}
}
