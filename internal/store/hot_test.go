package store

import (
	"fmt"
	"testing"
)

// lifecycleConfig is a hot-key setup with thresholds small enough that a
// single-threaded scripted stream drives every state transition
// deterministically: SampleEvery 1 makes detection exact, EpochWrites 64
// makes epochs (and demotion sweeps) frequent, BatchWrites 8 keeps
// write-combining latency tiny.
func lifecycleConfig() Config {
	return Config{
		Shards:      8,
		BucketWidth: 10,
		RingBuckets: 32,
		HotKey: HotKeyConfig{
			Replicas:         4,
			EpochWrites:      64,
			PromotePct:       20,
			SampleEvery:      1,
			TrackerK:         8,
			MaxHot:           4,
			DemoteHysteresis: 2,
			BatchWrites:      8,
		},
	}
}

// registerExactPair registers the two synopsis families whose merges are
// exactly split-invariant (HLL register-max and Count-Min addition), so a
// splayed store and an unsplayed control must answer *identically*, not
// just within error bounds.
func registerExactPair(t *testing.T, st *Store) {
	t.Helper()
	hll, err := NewDistinctProto(10, 42)
	if err != nil {
		t.Fatal(err)
	}
	freq, err := NewFreqProto(512, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterMetric("uniq", hll); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterMetric("hits", freq); err != nil {
		t.Fatal(err)
	}
}

// assertStoresAgree compares subject and control answers for every key
// over several ranges; any divergence means splaying leaked into query
// results.
func assertStoresAgree(t *testing.T, subject, control *Store, keys []string, now int64) {
	t.Helper()
	ranges := [][2]int64{{0, now}, {0, now / 2}, {now / 2, now}, {now - 15, now}}
	for _, key := range keys {
		for _, r := range ranges {
			if r[0] < 0 {
				r[0] = 0
			}
			a, err := querySyn(subject, "uniq", key, r[0], r[1]+1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := querySyn(control, "uniq", key, r[0], r[1]+1)
			if err != nil {
				t.Fatal(err)
			}
			if ae, be := a.(*Distinct).Estimate(), b.(*Distinct).Estimate(); ae != be {
				t.Fatalf("uniq/%s over [%d,%d]: splayed %f != control %f", key, r[0], r[1], ae, be)
			}
			fa, err := querySyn(subject, "hits", key, r[0], r[1]+1)
			if err != nil {
				t.Fatal(err)
			}
			fb, err := querySyn(control, "hits", key, r[0], r[1]+1)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < 8; u++ {
				item := fmt.Sprintf("item%d", u)
				if ca, cb := fa.(*Freq).Count(item), fb.(*Freq).Count(item); ca != cb {
					t.Fatalf("hits/%s %s over [%d,%d]: splayed %d != control %d", key, item, r[0], r[1], ca, cb)
				}
			}
		}
	}
}

// TestHotKeyLifecycleMatchesControl drives a scripted key distribution
// through the full hot-entry state machine — cold, promotion, splayed
// writes (including late ones), demotion, and post-demotion writes — and
// asserts at every stage that the splayed store's query results are
// identical to an unsplayed control store fed the same stream. This is
// the ISSUE's acceptance invariant: splaying must be invisible to reads.
func TestHotKeyLifecycleMatchesControl(t *testing.T) {
	subject := mustStore(t, lifecycleConfig())
	cfg := lifecycleConfig()
	cfg.HotKey = HotKeyConfig{}
	control := mustStore(t, cfg)
	registerExactPair(t, subject)
	registerExactPair(t, control)

	cold := make([]string, 8)
	for i := range cold {
		cold[i] = fmt.Sprintf("bg%d", i)
	}
	allKeys := append([]string{"hot"}, cold...)

	var now int64
	feed := func(key, item string, ts int64) {
		t.Helper()
		obs := Observation{Metric: "uniq", Key: key, Item: item, Time: ts}
		if err := subject.Observe(obs); err != nil {
			t.Fatal(err)
		}
		if err := control.Observe(obs); err != nil {
			t.Fatal(err)
		}
		obs.Metric = "hits"
		obs.Value = 1
		if err := subject.Observe(obs); err != nil {
			t.Fatal(err)
		}
		if err := control.Observe(obs); err != nil {
			t.Fatal(err)
		}
		if ts > now {
			now = ts
		}
	}

	// Phase A — promotion: the hot key takes ~80% of a skewed stream.
	for i := 0; i < 600; i++ {
		ts := int64(i / 4)
		if i%5 != 4 {
			feed("hot", fmt.Sprintf("item%d", i%8), ts)
		} else {
			feed(cold[i%len(cold)], fmt.Sprintf("item%d", i%8), ts)
		}
	}
	if st := subject.Stats(); st.Promotions == 0 || st.HotKeys == 0 {
		t.Fatalf("hot key never promoted: %+v", st)
	}
	hotKeys := subject.HotKeys()
	found := false
	for _, hk := range hotKeys {
		if hk.Key == "hot" {
			found = true
		}
	}
	if !found {
		t.Fatalf("HotKeys() %v does not include the scripted hot key", hotKeys)
	}
	assertStoresAgree(t, subject, control, allKeys, now)

	// Phase B — splayed writes, including in-window late writes that
	// exercise the copy-on-write path on both replica and home rings.
	base := now
	for i := 0; i < 600; i++ {
		ts := base + int64(i/4)
		if i%7 == 6 && ts > 20 {
			ts -= 20 // late, but well inside the 32-bucket window
		}
		if i%5 != 4 {
			feed("hot", fmt.Sprintf("item%d", i%8), ts)
		} else {
			feed(cold[i%len(cold)], fmt.Sprintf("item%d", i%8), ts)
		}
	}
	if st := subject.Stats(); st.SplayedWrites == 0 {
		t.Fatalf("no splayed writes recorded while hot: %+v", st)
	}
	assertStoresAgree(t, subject, control, allKeys, now)

	// Phase C — demotion: the hot key goes quiet while keys homed on the
	// same shards keep its detection epochs rolling. Each metric's entry
	// for "hot" homes on its own shard (the hash covers the metric), so
	// pick rolling keys that cover both homes.
	uniqHome := subject.shardIndex(entryKey{metric: "uniq", key: "hot"})
	hitsHome := subject.shardIndex(entryKey{metric: "hits", key: "hot"})
	var sameShard []string
	for i := 0; len(sameShard) < 6; i++ {
		k := fmt.Sprintf("roll%d", i)
		u := subject.shardIndex(entryKey{metric: "uniq", key: k})
		h := subject.shardIndex(entryKey{metric: "hits", key: k})
		if u == uniqHome || h == hitsHome {
			sameShard = append(sameShard, k)
		}
	}
	hotRouted := func() bool {
		for _, hk := range subject.HotKeys() {
			if hk.Key == "hot" {
				return true
			}
		}
		return false
	}
	base = now
	for i := 0; i < 8000 && hotRouted(); i++ {
		ts := base + int64(i/8)
		feed(sameShard[i%len(sameShard)], fmt.Sprintf("item%d", i%8), ts)
	}
	st := subject.Stats()
	if st.Demotions == 0 || hotRouted() {
		t.Fatalf("hot key never demoted: %+v (hot keys %v)", st, subject.HotKeys())
	}
	assertStoresAgree(t, subject, control, append(allKeys, sameShard...), now)

	// Phase D — post-demotion writes take the plain path and still agree.
	base = now
	for i := 0; i < 200; i++ {
		feed("hot", fmt.Sprintf("item%d", i%8), base+int64(i/8))
	}
	assertStoresAgree(t, subject, control, allKeys, now)

	// Splaying must also be invisible to key listings: every key once.
	seen := map[string]int{}
	for _, k := range subject.Keys("uniq") {
		seen[k]++
	}
	if seen["hot"] != 1 {
		t.Fatalf("hot key listed %d times in Keys()", seen["hot"])
	}
}

// TestHotKeySilentHomeDemotion pins the silent-route lifecycle: a
// promoted key goes completely quiet along with everything else homed
// on its shards, so its own detection epochs never roll again — and
// epoch rolls on OTHER shards alone must still demote the route (the
// foreign silence check) instead of pinning dead replica rings
// forever. Single-threaded, so the DemoteHysteresis streak is an exact
// roll count.
func TestHotKeySilentHomeDemotion(t *testing.T) {
	subject := mustStore(t, lifecycleConfig())
	cfg := lifecycleConfig()
	cfg.HotKey = HotKeyConfig{}
	control := mustStore(t, cfg)
	registerExactPair(t, subject)
	registerExactPair(t, control)

	var now int64
	feed := func(key, item string, ts int64) {
		t.Helper()
		obs := Observation{Metric: "uniq", Key: key, Item: item, Time: ts}
		for _, st := range []*Store{subject, control} {
			if err := st.Observe(obs); err != nil {
				t.Fatal(err)
			}
		}
		obs.Metric = "hits"
		obs.Value = 1
		for _, st := range []*Store{subject, control} {
			if err := st.Observe(obs); err != nil {
				t.Fatal(err)
			}
		}
		if ts > now {
			now = ts
		}
	}
	hotRouted := func() bool {
		for _, hk := range subject.HotKeys() {
			if hk.Key == "hot" {
				return true
			}
		}
		return false
	}

	// Phase A — promote "hot" with a skewed stream (as the main
	// lifecycle test does).
	cold := make([]string, 8)
	for i := range cold {
		cold[i] = fmt.Sprintf("bg%d", i)
	}
	for i := 0; i < 600; i++ {
		ts := int64(i / 4)
		if i%5 != 4 {
			feed("hot", fmt.Sprintf("item%d", i%8), ts)
		} else {
			feed(cold[i%len(cold)], fmt.Sprintf("item%d", i%8), ts)
		}
	}
	if !hotRouted() {
		t.Fatalf("hot key never promoted: %+v", subject.Stats())
	}

	// Phase B — total silence on the hot key's home shards: every write
	// from here on lands on keys foreign to BOTH of its routes (one per
	// metric), so only foreign epoch rolls can ever judge them.
	uniqHome := subject.shardIndex(entryKey{metric: "uniq", key: "hot"})
	hitsHome := subject.shardIndex(entryKey{metric: "hits", key: "hot"})
	var foreign []string
	for i := 0; len(foreign) < 8; i++ {
		k := fmt.Sprintf("far%d", i)
		u := subject.shardIndex(entryKey{metric: "uniq", key: k})
		h := subject.shardIndex(entryKey{metric: "hits", key: k})
		if u != uniqHome && h != hitsHome && u != hitsHome && h != uniqHome {
			foreign = append(foreign, k)
		}
	}
	demotionsBefore := subject.Stats().Demotions
	base := now
	i := 0
	for ; i < 20000 && hotRouted(); i++ {
		feed(foreign[i%len(foreign)], fmt.Sprintf("item%d", i%8), base+int64(i/8))
	}
	if hotRouted() {
		t.Fatalf("silent route survived %d foreign writes: %+v (hot keys %v)",
			i, subject.Stats(), subject.HotKeys())
	}
	if d := subject.Stats().Demotions; d <= demotionsBefore {
		t.Fatalf("Demotions did not advance across the silent demotion: %d -> %d", demotionsBefore, d)
	}

	// The demotion drained every replica ring home: answers must still
	// match the unsplayed control exactly, including the quiet key's
	// full history.
	assertStoresAgree(t, subject, control, append([]string{"hot"}, foreign...), now)

	// Phase C — the key coming back takes the plain path and still
	// agrees (and may be re-promoted later; either way reads match).
	base = now
	for j := 0; j < 200; j++ {
		feed("hot", fmt.Sprintf("item%d", j%8), base+int64(j/8))
	}
	assertStoresAgree(t, subject, control, []string{"hot"}, now)
}

func TestHotKeyConfigValidation(t *testing.T) {
	for _, bad := range []HotKeyConfig{
		{Replicas: -1},
		{Replicas: 2, EpochWrites: -1},
		{Replicas: 2, PromotePct: -1},
		{Replicas: 2, PromotePct: 101},
		{Replicas: 2, SampleEvery: -1},
		{Replicas: 2, TrackerK: -1},
		{Replicas: 2, MaxHot: -1},
		{Replicas: 2, DemoteHysteresis: -1},
		{Replicas: 2, BatchWrites: -1},
	} {
		if _, err := New(Config{HotKey: bad}); err == nil {
			t.Fatalf("invalid hot-key config accepted: %+v", bad)
		}
	}
	// Replicas clamp to the shard count; a single-shard store disables
	// splaying entirely (nothing to spread across).
	st := mustStore(t, Config{Shards: 1, BucketWidth: 10, RingBuckets: 8,
		HotKey: HotKeyConfig{Replicas: 64, EpochWrites: 16, PromotePct: 1, SampleEvery: 1}})
	registerUniques(t, st)
	for i := 0; i < 1000; i++ {
		if err := st.Observe(Observation{Metric: "uniques", Key: "k", Item: fmt.Sprintf("i%d", i), Time: int64(i / 50)}); err != nil {
			t.Fatal(err)
		}
	}
	if stats := st.Stats(); stats.Promotions != 0 || stats.HotKeys != 0 {
		t.Fatalf("single-shard store promoted a key: %+v", stats)
	}
}

func TestHotKeyMaxHotCap(t *testing.T) {
	cfg := lifecycleConfig()
	cfg.HotKey.MaxHot = 2
	st := mustStore(t, cfg)
	registerUniques(t, st)
	// Ten keys each hot enough to promote; the table must stop at two.
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("k%d", i%10)
		if err := st.Observe(Observation{Metric: "uniques", Key: key, Item: "x", Time: int64(i / 100)}); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.HotKeys > 2 {
		t.Fatalf("hot table exceeded MaxHot: %+v", stats)
	}
	if stats.Promotions == 0 {
		t.Fatalf("no promotions at all: %+v", stats)
	}
}

// Sub-entries count against the shard byte budgets like any entry: a
// splayed store under a budget stays within it and still evicts.
func TestHotKeySubEntriesRespectByteBudget(t *testing.T) {
	cfg := lifecycleConfig()
	// Keep a full ring (~8 x 4KB) under the budget: eviction keeps at
	// least one entry per shard, so the bound below only holds when any
	// single entry fits the budget.
	cfg.RingBuckets = 8
	cfg.MaxShardBytes = 64 << 10
	st := mustStore(t, cfg)
	registerUniques(t, st) // precision 12: ~4KB per bucket synopsis
	for i := 0; i < 30000; i++ {
		key := fmt.Sprintf("k%d", i%40)
		if i%3 != 2 {
			key = "hot"
		}
		if err := st.Observe(Observation{Metric: "uniques", Key: key, Item: fmt.Sprintf("i%d", i%64), Time: int64(i / 100)}); err != nil {
			t.Fatal(err)
		}
	}
	st.FlushHot()
	stats := st.Stats()
	if max := cfg.MaxShardBytes * st.Shards(); stats.Bytes > max {
		t.Fatalf("bytes %d exceed total budget %d: %+v", stats.Bytes, max, stats)
	}
	if stats.EvictedSize == 0 {
		t.Fatalf("budget never evicted: %+v", stats)
	}
}

// Observed counts settle once pending write-combining batches flush;
// FlushHot forces that settlement, and queries drain the key they touch.
func TestHotKeyFlushAndQueryDrainPending(t *testing.T) {
	cfg := lifecycleConfig()
	cfg.HotKey.BatchWrites = 64 // large enough to leave a visible backlog
	st := mustStore(t, cfg)
	registerUniques(t, st)
	total := 0
	feed := func(n int, key string) {
		for i := 0; i < n; i++ {
			if err := st.Observe(Observation{Metric: "uniques", Key: key, Item: fmt.Sprintf("i%d", total), Time: 5}); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	feed(600, "hot")
	if st.Stats().HotKeys == 0 {
		t.Fatal("key never promoted")
	}
	feed(30, "hot") // strictly less than one batch: stays pending
	if got := st.Stats().Observed; got == uint64(total) {
		t.Fatalf("expected a pending backlog, all %d writes already flushed", got)
	}
	// A query of the hot key drains its pending batch first.
	syn, err := querySyn(st, "uniques", "hot", 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if est, want := syn.(*Distinct).Estimate(), float64(total); est < want*0.9 || est > want*1.1 {
		t.Fatalf("post-drain estimate %f far from %f", est, want)
	}
	feed(30, "hot")
	st.FlushHot()
	if got := st.Stats().Observed; got != uint64(total) {
		t.Fatalf("FlushHot settled %d of %d writes", got, total)
	}
}

// A splayed key's home entry receives no direct writes, but it holds the
// key's pre-promotion history: the flush path must keep it recency-fresh
// so idle/byte eviction treats the store's hottest key like the unsplayed
// store would — not as its least-recently-written victim.
func TestHotKeyHomeEntrySurvivesIdleEviction(t *testing.T) {
	cfg := lifecycleConfig()
	cfg.MaxIdle = 100
	st := mustStore(t, cfg)
	registerUniques(t, st)
	// Build pre-promotion history, then promote.
	for i := 0; i < 600; i++ {
		if err := st.Observe(Observation{Metric: "uniques", Key: "hot", Item: fmt.Sprintf("old%d", i), Time: int64(i / 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if st.Stats().HotKeys == 0 {
		t.Fatal("key never promoted")
	}
	// Splayed traffic plus other keys advancing every shard's clock far
	// past MaxIdle relative to the home entry's frozen lastWrite.
	for i := 0; i < 4000; i++ {
		ts := int64(60 + i/8)
		if err := st.Observe(Observation{Metric: "uniques", Key: "hot", Item: fmt.Sprintf("new%d", i), Time: ts}); err != nil {
			t.Fatal(err)
		}
		if err := st.Observe(Observation{Metric: "uniques", Key: fmt.Sprintf("bg%d", i%12), Item: "x", Time: ts}); err != nil {
			t.Fatal(err)
		}
	}
	// The hot key stays resident (its history inside the ring window is
	// still queryable) and listed exactly once.
	count := 0
	for _, k := range st.Keys("uniques") {
		if k == "hot" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("hot key listed %d times after idle churn (stats %+v)", count, st.Stats())
	}
	syn, err := querySyn(st, "uniques", "hot", 0, 1001)
	if err != nil {
		t.Fatal(err)
	}
	if est := syn.(*Distinct).Estimate(); est < 100 {
		t.Fatalf("hot key history lost to idle eviction: estimate %f", est)
	}
}
