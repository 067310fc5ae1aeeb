// Native fuzz targets for the store's write/query paths. The fuzzer
// drives a byte-script of operations — writes with random keys, deltas
// and out-of-order (even far-backward) timestamps, interleaved queries,
// stats reads and flushes — against two stores fed identically: one
// plain, one with aggressive hot-key splaying so promotion, write
// combining, demotion and drains all fire constantly. Invariants:
//
//   - nothing panics and no valid operation returns an error;
//   - byte accounting never goes negative (on either store);
//   - observations are conserved: Observed + DroppedLate == writes issued;
//   - a full-window query matches a serially-computed reference model of
//     the ring-retention semantics, exactly, on both stores — splayed and
//     plain alike.
//
// Seed corpus lives in testdata/fuzz/; run the fuzzer with
//
//	go test -run NONE -fuzz FuzzStoreObserve ./internal/store
package store

import (
	"fmt"
	"testing"
)

// fuzzRing is the ring depth both fuzz stores run with; small enough
// that scripted time jumps rotate and expire buckets constantly.
const (
	fuzzRing  = 8
	fuzzWidth = 8
	fuzzKeys  = 8
)

// refModel replays the store's documented retention semantics serially:
// per key, a write is accepted unless its bucket is more than the ring
// behind the key's newest bucket; at the end, the served window is the
// ring behind the final newest bucket.
type refModel struct {
	newest map[string]int64
	obs    map[string][][2]int64 // key -> (bucket, item id)
	drops  uint64
}

func newRefModel() *refModel {
	return &refModel{newest: map[string]int64{}, obs: map[string][][2]int64{}}
}

func (m *refModel) observe(key string, item int64, time int64) {
	bkt := time / fuzzWidth
	newest, seen := m.newest[key]
	if seen && bkt <= newest-fuzzRing {
		m.drops++
		return
	}
	if !seen || bkt > newest {
		m.newest[key] = bkt
	}
	m.obs[key] = append(m.obs[key], [2]int64{bkt, item})
}

// servedItems returns the item ids of the key's observations still inside
// the final retention window.
func (m *refModel) servedItems(key string) []int64 {
	horizon := m.newest[key] - fuzzRing
	var out []int64
	for _, o := range m.obs[key] {
		if o[0] > horizon {
			out = append(out, o[1])
		}
	}
	return out
}

func fuzzStores(t *testing.T) (plain, splayed *Store) {
	t.Helper()
	base := Config{Shards: 4, BucketWidth: fuzzWidth, RingBuckets: fuzzRing}
	var err error
	if plain, err = New(base); err != nil {
		t.Fatal(err)
	}
	hot := base
	hot.HotKey = HotKeyConfig{
		Replicas:         4,
		EpochWrites:      16,
		PromotePct:       10,
		SampleEvery:      1,
		TrackerK:         8,
		MaxHot:           4,
		DemoteHysteresis: 2,
		BatchWrites:      4,
	}
	if splayed, err = New(hot); err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{plain, splayed} {
		proto, err := NewDistinctProto(10, 77)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.RegisterMetric("uniq", proto); err != nil {
			t.Fatal(err)
		}
	}
	return plain, splayed
}

func FuzzStoreObserve(f *testing.F) {
	// Monotone writes across two keys.
	f.Add([]byte{0, 1, 2, 8, 0, 3, 4, 8, 0, 5, 6, 8, 1, 7, 8, 8})
	// Out-of-order and far-late writes that must be dropped.
	f.Add([]byte{0, 1, 1, 127, 0, 1, 2, 0, 0, 2, 3, 127, 0, 2, 4, 1})
	// Writes with interleaved queries, stats and flushes.
	f.Add([]byte{0, 1, 1, 16, 200, 1, 0, 0, 0, 1, 2, 16, 210, 0, 0, 0, 220, 0, 0, 0})
	// A hot key: many writes to key 0 to force promotion and demotion.
	f.Add(func() []byte {
		var b []byte
		for i := 0; i < 96; i++ {
			b = append(b, 0, 0, byte(i), 4)
		}
		for i := 0; i < 64; i++ {
			b = append(b, 0, byte(1+i%7), byte(i), 6)
		}
		return b
	}())

	f.Fuzz(func(t *testing.T, script []byte) {
		plain, splayed := fuzzStores(t)
		ref := newRefModel()
		var writes uint64
		var now, maxTime int64
		for i := 0; i+4 <= len(script); i += 4 {
			op, kb, ib, tb := script[i], script[i+1], script[i+2], script[i+3]
			switch {
			case op < 200:
				// A write: the time walks mostly forward, sometimes far
				// backward (tb is a signed delta biased positive).
				now += int64(tb) - 96
				if now < 0 {
					now = 0
				}
				if now > maxTime {
					maxTime = now
				}
				key := fmt.Sprintf("k%d", kb%fuzzKeys)
				item := int64(ib)
				obs := Observation{Metric: "uniq", Key: key, Item: fmt.Sprintf("i%d", item), Time: now}
				if err := plain.Observe(obs); err != nil {
					t.Fatalf("plain observe: %v", err)
				}
				if err := splayed.Observe(obs); err != nil {
					t.Fatalf("splayed observe: %v", err)
				}
				ref.observe(key, item, now)
				writes++
			case op < 220:
				key := fmt.Sprintf("k%d", kb%fuzzKeys)
				from := int64(ib) * 4
				to := from + int64(tb)*4
				for _, st := range []*Store{plain, splayed} {
					if _, err := querySyn(st, "uniq", key, from, to+1); err != nil && from <= to {
						t.Fatalf("query [%d,%d]: %v", from, to, err)
					}
				}
			case op < 240:
				for _, st := range []*Store{plain, splayed} {
					if b := st.Stats().Bytes; b < 0 {
						t.Fatalf("negative byte accounting: %d", b)
					}
				}
			default:
				splayed.FlushHot()
			}
		}

		// Settle pending hot batches, then check the global invariants.
		splayed.FlushHot()
		for _, st := range []*Store{plain, splayed} {
			stats := st.Stats()
			if stats.Bytes < 0 {
				t.Fatalf("negative byte accounting: %+v", stats)
			}
			if stats.Observed+stats.DroppedLate != writes {
				t.Fatalf("conservation: observed %d + dropped %d != writes %d (%+v)",
					stats.Observed, stats.DroppedLate, writes, stats)
			}
			if stats.DroppedLate != ref.drops {
				t.Fatalf("drops %d != reference %d", stats.DroppedLate, ref.drops)
			}
		}

		// Full-window answers must equal the serial reference, exactly:
		// bucketed HLL merging is lossless, so any deviation is a
		// retention or splay bug, not sketch noise.
		for kb := 0; kb < fuzzKeys; kb++ {
			key := fmt.Sprintf("k%d", kb)
			direct, err := NewDistinctProto(10, 77)
			if err != nil {
				t.Fatal(err)
			}
			want := direct()
			for _, item := range ref.servedItems(key) {
				want.Observe(fmt.Sprintf("i%d", item), 1)
			}
			for name, st := range map[string]*Store{"plain": plain, "splayed": splayed} {
				got, err := querySyn(st, "uniq", key, 0, maxTime+1)
				if err != nil {
					t.Fatal(err)
				}
				if ge, we := got.(*Distinct).Estimate(), want.(*Distinct).Estimate(); ge != we {
					t.Fatalf("%s %s full-window estimate %f != reference %f", name, key, ge, we)
				}
			}
		}
	})
}

func FuzzObservationCodec(f *testing.F) {
	f.Add(EncodeObservation(Observation{Metric: "m", Key: "k", Item: "i", Value: 7, Time: 42}))
	f.Add(EncodeObservation(Observation{}))
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add([]byte{3, 'a'})
	f.Fuzz(func(t *testing.T, data []byte) {
		obs, err := DecodeObservation(data)
		if err != nil {
			return // corrupt input rejected: fine
		}
		// Anything that decodes must survive a round trip bit-exactly.
		back, err := DecodeObservation(EncodeObservation(obs))
		if err != nil {
			t.Fatalf("re-decode of %+v: %v", obs, err)
		}
		if back != obs {
			t.Fatalf("round trip %+v != %+v", back, obs)
		}
	})
}
