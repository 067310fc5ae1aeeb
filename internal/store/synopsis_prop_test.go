// Property tests for the Synopsis merge laws. Every bucket synopsis the
// store serves must satisfy, for random streams:
//
//   - commutativity:   merge(A, B) answers like merge(B, A)
//   - associativity:   merge(merge(A, B), C) answers like merge(A, merge(B, C))
//   - split/unsplit:   merging the synopses of a randomly split stream
//     answers like one synopsis fed the whole stream
//
// within each family's error model. HyperLogLog (register max) and
// Count-Min (counter addition) are *exactly* invariant — the laws are
// checked with equality. Space-Saving and q-digest reorganize state on
// merge, so their laws are checked against each sketch's published
// guarantee (overestimate bounded by Err; rank error bounded by
// logU/k per constituent). The split/unsplit property is precisely the
// invariant hot-key splaying leans on: a splayed entry is a split stream
// whose parts merge at query time.
package store

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/cardinality"
	"repro/internal/frequency"
	"repro/internal/workload"
)

const propTrials = 20

// splitStream deals a stream into n parts using the rng, returning the
// parts; every element lands in exactly one part.
func splitStream[T any](rng *workload.RNG, stream []T, n int) [][]T {
	parts := make([][]T, n)
	for _, x := range stream {
		i := int(rng.Uint64() % uint64(n))
		parts[i] = append(parts[i], x)
	}
	return parts
}

func mustMerge(t *testing.T, dst, src Synopsis) {
	t.Helper()
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
}

// copyOf clones a synopsis by merging it into a fresh prototype instance.
func copyOf(t *testing.T, proto Prototype, s Synopsis) Synopsis {
	t.Helper()
	c := proto()
	mustMerge(t, c, s)
	return c
}

func TestDistinctMergeLaws(t *testing.T) {
	proto, err := NewDistinctProto(10, 99)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(1)
	for trial := 0; trial < propTrials; trial++ {
		n := 200 + int(rng.Uint64()%2000)
		universe := 1 + int(rng.Uint64()%1500)
		stream := make([]string, n)
		for i := range stream {
			stream[i] = fmt.Sprintf("u%d", rng.Uint64()%uint64(universe))
		}
		whole := proto()
		parts := splitStream(rng, stream, 3)
		abc := []Synopsis{proto(), proto(), proto()}
		for i, part := range parts {
			for _, item := range part {
				abc[i].Observe(item, 1)
			}
		}
		for _, item := range stream {
			whole.Observe(item, 1)
		}
		a, b, c := abc[0], abc[1], abc[2]

		// Commutativity, exactly: register-wise max has no order.
		ab := copyOf(t, proto, a)
		mustMerge(t, ab, b)
		ba := copyOf(t, proto, b)
		mustMerge(t, ba, a)
		if ab.(*Distinct).Estimate() != ba.(*Distinct).Estimate() {
			t.Fatalf("trial %d: merge not commutative: %f != %f",
				trial, ab.(*Distinct).Estimate(), ba.(*Distinct).Estimate())
		}
		// Associativity, exactly.
		abThenC := copyOf(t, proto, ab)
		mustMerge(t, abThenC, c)
		bc := copyOf(t, proto, b)
		mustMerge(t, bc, c)
		aThenBC := copyOf(t, proto, a)
		mustMerge(t, aThenBC, bc)
		if abThenC.(*Distinct).Estimate() != aThenBC.(*Distinct).Estimate() {
			t.Fatalf("trial %d: merge not associative", trial)
		}
		// Split stream == unsplit stream, exactly.
		if got, want := abThenC.(*Distinct).Estimate(), whole.(*Distinct).Estimate(); got != want {
			t.Fatalf("trial %d: split-merge %f != whole %f", trial, got, want)
		}
		if abThenC.Items() != whole.Items() {
			t.Fatalf("trial %d: items %d != %d", trial, abThenC.Items(), whole.Items())
		}
	}
}

func TestFreqMergeLaws(t *testing.T) {
	proto, err := NewFreqProto(256, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(2)
	for trial := 0; trial < propTrials; trial++ {
		n := 200 + int(rng.Uint64()%2000)
		z := workload.NewZipf(rng, 100, 1.2)
		type wobs struct {
			item string
			w    uint64
		}
		stream := make([]wobs, n)
		for i := range stream {
			stream[i] = wobs{item: fmt.Sprintf("i%d", z.Draw()), w: 1 + rng.Uint64()%5}
		}
		whole := proto()
		for _, o := range stream {
			whole.Observe(o.item, o.w)
		}
		parts := splitStream(rng, stream, 3)
		syns := make([]Synopsis, 3)
		for i, part := range parts {
			syns[i] = proto()
			for _, o := range part {
				syns[i].Observe(o.item, o.w)
			}
		}
		a, b, c := syns[0], syns[1], syns[2]
		probe := func(s Synopsis, item string) uint64 { return s.(*Freq).Count(item) }

		ab := copyOf(t, proto, a)
		mustMerge(t, ab, b)
		ba := copyOf(t, proto, b)
		mustMerge(t, ba, a)
		abThenC := copyOf(t, proto, ab)
		mustMerge(t, abThenC, c)
		bc := copyOf(t, proto, b)
		mustMerge(t, bc, c)
		aThenBC := copyOf(t, proto, a)
		mustMerge(t, aThenBC, bc)
		for u := 0; u < 100; u++ {
			item := fmt.Sprintf("i%d", u)
			if probe(ab, item) != probe(ba, item) {
				t.Fatalf("trial %d: count-min merge not commutative on %s", trial, item)
			}
			if probe(abThenC, item) != probe(aThenBC, item) {
				t.Fatalf("trial %d: count-min merge not associative on %s", trial, item)
			}
			// Counter addition is linear: split == unsplit, exactly.
			if probe(abThenC, item) != probe(whole, item) {
				t.Fatalf("trial %d: split-merge count %d != whole %d on %s",
					trial, probe(abThenC, item), probe(whole, item), item)
			}
		}
		if abThenC.Items() != whole.Items() {
			t.Fatalf("trial %d: items %d != %d", trial, abThenC.Items(), whole.Items())
		}
	}
}

func TestTopKMergeLaws(t *testing.T) {
	const k = 24
	proto, err := NewTopKProto(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(3)
	for trial := 0; trial < propTrials; trial++ {
		n := 500 + int(rng.Uint64()%3000)
		z := workload.NewZipf(rng, 200, 1.3)
		stream := make([]string, n)
		exact := map[string]uint64{}
		for i := range stream {
			stream[i] = fmt.Sprintf("i%d", z.Draw())
			exact[stream[i]]++
		}
		parts := splitStream(rng, stream, 3)
		syns := make([]Synopsis, 3)
		for i, part := range parts {
			syns[i] = proto()
			for _, item := range part {
				syns[i].Observe(item, 1)
			}
		}
		a, b, c := syns[0], syns[1], syns[2]

		// checkGuarantees asserts the Space-Saving contract on a merged
		// summary over the full stream: every tracked estimate brackets
		// the true count (count-err <= true <= count), the stream length
		// is exact, and every item with true count > n/k is tracked.
		checkGuarantees := func(s Synopsis, label string) {
			t.Helper()
			tk := s.(*TopK)
			if tk.Items() != uint64(n) {
				t.Fatalf("trial %d %s: items %d != %d", trial, label, tk.Items(), n)
			}
			tracked := map[string]bool{}
			for _, cand := range tk.Top(k) {
				tracked[cand.Item] = true
				truth := exact[cand.Item]
				if cand.Count < truth {
					t.Fatalf("trial %d %s: %s underestimated: %d < true %d",
						trial, label, cand.Item, cand.Count, truth)
				}
				if cand.Count-cand.Err > truth {
					t.Fatalf("trial %d %s: %s over error bound: %d - err %d > true %d",
						trial, label, cand.Item, cand.Count, cand.Err, truth)
				}
			}
			for item, cnt := range exact {
				if cnt > uint64(n)/uint64(k) && !tracked[item] {
					t.Fatalf("trial %d %s: heavy hitter %s (count %d > n/k) untracked",
						trial, label, item, cnt)
				}
			}
		}
		ab := copyOf(t, proto, a)
		mustMerge(t, ab, b)
		mustMerge(t, ab, c)
		checkGuarantees(ab, "(a+b)+c")
		ba := copyOf(t, proto, b)
		mustMerge(t, ba, a)
		mustMerge(t, ba, c)
		checkGuarantees(ba, "(b+a)+c")
		bc := copyOf(t, proto, b)
		mustMerge(t, bc, c)
		aThenBC := copyOf(t, proto, a)
		mustMerge(t, aThenBC, bc)
		checkGuarantees(aThenBC, "a+(b+c)")
	}
}

func TestQuantilesMergeLaws(t *testing.T) {
	const (
		logU = 12
		kq   = 64
	)
	proto, err := NewQuantileProto(logU, kq)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(4)
	for trial := 0; trial < propTrials; trial++ {
		n := 500 + int(rng.Uint64()%3000)
		stream := make([]uint64, n)
		for i := range stream {
			stream[i] = rng.Uint64() % (1 << logU)
		}
		parts := splitStream(rng, stream, 3)
		syns := make([]Synopsis, 3)
		for i, part := range parts {
			syns[i] = proto()
			for _, v := range part {
				syns[i].Observe("", v)
			}
		}
		a, b, c := syns[0], syns[1], syns[2]

		// rankOf counts stream values <= v — the exact rank the q-digest
		// answer is judged against.
		rankOf := func(v uint64) int {
			r := 0
			for _, x := range stream {
				if x <= v {
					r++
				}
			}
			return r
		}
		// A q-digest answers phi with rank error <= logU/k * n; merging
		// adds the constituents' errors, so three parts allow 3x that,
		// plus one more bound for the compression of the merge target.
		tol := float64(4) * float64(logU) / float64(kq) * float64(n)
		checkRanks := func(s Synopsis, label string) {
			t.Helper()
			qs := s.(*Quantiles)
			if qs.Items() != uint64(n) {
				t.Fatalf("trial %d %s: items %d != %d", trial, label, qs.Items(), n)
			}
			for _, phi := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
				v := qs.Quantile(phi)
				rank := float64(rankOf(v))
				want := phi * float64(n)
				if rank < want-tol || rank > want+tol {
					t.Fatalf("trial %d %s: phi=%.2f answered %d with rank %f, want %f +/- %f",
						trial, label, phi, v, rank, want, tol)
				}
			}
		}
		ab := copyOf(t, proto, a)
		mustMerge(t, ab, b)
		mustMerge(t, ab, c)
		checkRanks(ab, "(a+b)+c")
		ba := copyOf(t, proto, b)
		mustMerge(t, ba, a)
		mustMerge(t, ba, c)
		checkRanks(ba, "(b+a)+c")
		bc := copyOf(t, proto, b)
		mustMerge(t, bc, c)
		aThenBC := copyOf(t, proto, a)
		mustMerge(t, aThenBC, bc)
		checkRanks(aThenBC, "a+(b+c)")
	}
}

// Cross-family merges must fail for every adapter pair, not silently
// absorb — the store's copy-on-write and drain paths rely on it.
func TestCrossFamilyMergeRejected(t *testing.T) {
	hll, _ := NewDistinctProto(10, 1)
	cm, _ := NewFreqProto(64, 2, 1)
	tk, _ := NewTopKProto(4)
	qd, _ := NewQuantileProto(8, 16)
	protos := []Prototype{hll, cm, tk, qd}
	for i, pa := range protos {
		for j, pb := range protos {
			if i == j {
				continue
			}
			if err := pa().Merge(pb()); err == nil {
				t.Fatalf("adapter %d absorbed adapter %d", i, j)
			}
		}
	}
}

// TestCombineSnapshotsMatchesManualMerge pins the scatter-gather combiner:
// combining a split stream's per-part synopses must answer exactly like
// one synopsis fed the whole stream (HLL is exactly merge-invariant), the
// inputs must come back untouched, and nil parts must combine as empties.
func TestCombineSnapshotsMatchesManualMerge(t *testing.T) {
	proto, err := NewDistinctProto(12, 9)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(77)
	stream := make([]string, 5000)
	for i := range stream {
		stream[i] = fmt.Sprintf("u%d", rng.Uint64()%3000)
	}
	whole := proto()
	for _, it := range stream {
		whole.Observe(it, 0)
	}
	parts := splitStream(rng, stream, 4)
	syns := make([]Synopsis, len(parts))
	for i, p := range parts {
		syns[i] = proto()
		for _, it := range p {
			syns[i].Observe(it, 0)
		}
	}
	before := make([]uint64, len(syns))
	for i, s := range syns {
		before[i] = s.Items()
	}

	combined, err := CombineSnapshots(proto, syns...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := combined.(*Distinct).Estimate(), whole.(*Distinct).Estimate(); got != want {
		t.Fatalf("combined estimate %v != whole-stream estimate %v", got, want)
	}
	for i, s := range syns {
		if s.Items() != before[i] {
			t.Fatalf("CombineSnapshots mutated input %d: items %d -> %d", i, before[i], s.Items())
		}
	}

	withNils, err := CombineSnapshots(proto, nil, syns[0], nil, syns[1], syns[2], syns[3], nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := withNils.(*Distinct).Estimate(), whole.(*Distinct).Estimate(); got != want {
		t.Fatalf("nil-tolerant combine %v != %v", got, want)
	}

	empty, err := CombineSnapshots(proto)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Items() != 0 {
		t.Fatalf("empty combine absorbed %d items", empty.Items())
	}
}

// TestCombineSnapshotsErrors pins the failure surface: nil prototype and
// cross-family parts must error, not panic or silently drop.
func TestCombineSnapshotsErrors(t *testing.T) {
	if _, err := CombineSnapshots(nil); err == nil {
		t.Fatal("nil prototype accepted")
	}
	hll, err := NewDistinctProto(12, 9)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewFreqProto(64, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CombineSnapshots(hll, hll(), cm()); err == nil {
		t.Fatal("cross-family combine accepted")
	}
}

// ---- Sparse-first buckets vs always-dense sketches ----
//
// Distinct and Freq keep sparse forms until their footprint would pass
// the dense sketch's, and promise every observable of the dense sketch
// fed the same stream: encoded bytes, Items, Estimate bits and Count. The
// geometry here is small (64 registers: 16 words; a 16x3 matrix: 16
// cells) so short streams cross the switch.

const (
	equivPrecision = 6
	equivWidth     = 16
	equivDepth     = 3
	equivSeed      = 21
)

// equivPair is one sparse-first synopsis of each family beside the dense
// sketches fed the same operations.
type equivPair struct {
	d  *Distinct
	f  *Freq
	hd *cardinality.HyperLogLog
	cd *frequency.CountMin
}

func newEquivPair(t *testing.T) *equivPair {
	dp, err := NewDistinctProto(equivPrecision, equivSeed)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := NewFreqProto(equivWidth, equivDepth, equivSeed)
	if err != nil {
		t.Fatal(err)
	}
	hd, _ := cardinality.NewHyperLogLog(equivPrecision, equivSeed)
	cd, _ := frequency.NewCountMin(equivWidth, equivDepth, equivSeed)
	return &equivPair{d: dp().(*Distinct), f: fp().(*Freq), hd: hd, cd: cd}
}

func (p *equivPair) observe(item string, w uint64) {
	p.d.Observe(item, w)
	p.hd.UpdateString(item)
	p.f.Observe(item, w)
	p.cd.UpdateString(item, w)
}

func (p *equivPair) merge(t *testing.T, o *equivPair) {
	mustMerge(t, p.d, o.d)
	mustMerge(t, p.f, o.f)
	if err := p.hd.Merge(o.hd); err != nil {
		t.Fatal(err)
	}
	if err := p.cd.Merge(o.cd); err != nil {
		t.Fatal(err)
	}
}

func (p *equivPair) reset() {
	p.d.Reset()
	p.f.Reset()
	p.hd.Reset()
	p.cd.Reset()
}

// roundTrip replaces the sparse-first synopses with fresh ones decoded
// from their bytes: the checkpoint and wire path.
func (p *equivPair) roundTrip(t *testing.T) {
	fresh := newEquivPair(t)
	for _, c := range []struct {
		from interface{ MarshalBinary() ([]byte, error) }
		to   interface{ UnmarshalBinary([]byte) error }
	}{{p.d, fresh.d}, {p.f, fresh.f}} {
		data, err := c.from.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.to.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
	}
	p.d, p.f = fresh.d, fresh.f
}

// check fails unless both sparse-first synopses are their dense twins.
func (p *equivPair) check(t *testing.T, label string) {
	t.Helper()
	db, _ := p.d.MarshalBinary()
	hb, _ := p.hd.MarshalBinary()
	if !bytes.Equal(db, hb) {
		t.Fatalf("%s: distinct bytes differ from dense", label)
	}
	if p.d.Items() != p.hd.Items() {
		t.Fatalf("%s: distinct items %d != dense %d", label, p.d.Items(), p.hd.Items())
	}
	if g, w := p.d.Estimate(), p.hd.Estimate(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: estimate %v != dense %v", label, g, w)
	}
	fb, _ := p.f.MarshalBinary()
	cb, _ := p.cd.MarshalBinary()
	if !bytes.Equal(fb, cb) {
		t.Fatalf("%s: freq bytes differ from dense", label)
	}
	if p.f.Items() != p.cd.Items() {
		t.Fatalf("%s: freq items %d != dense %d", label, p.f.Items(), p.cd.Items())
	}
	for i := 0; i < equivItems; i++ {
		item := equivItem(i)
		if g, w := p.f.Count(item), p.cd.EstimateString(item); g != w {
			t.Fatalf("%s: count(%q) %d != dense %d", label, item, g, w)
		}
	}
}

const equivItems = 48

func equivItem(i int) string { return fmt.Sprintf("i%d", i%equivItems) }

// runEquivalence plays a byte script of (op, arg) pairs on two pairs a
// and b: observations into either, merges in both directions, Reset then
// reuse, and decode round trips; after every step both must match their
// dense twins. It returns which (receiver sparse, operand sparse) merge
// pairings the script exercised, per family.
func runEquivalence(t *testing.T, script []byte) (pairings [2][2][2]bool) {
	a, b := newEquivPair(t), newEquivPair(t)
	sparse := func(p *equivPair) [2]int {
		return [2]int{b2i(p.d.h.IsSparse()), b2i(p.f.cm.IsSparse())}
	}
	note := func(dst, src *equivPair) {
		ds, ss := sparse(dst), sparse(src)
		for fam := 0; fam < 2; fam++ {
			pairings[fam][ds[fam]][ss[fam]] = true
		}
	}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%8, int(script[i+1])
		switch op {
		case 0, 1, 2:
			a.observe(equivItem(arg), 1+uint64(arg%3))
		case 3:
			b.observe(equivItem(arg), 1+uint64(arg%3))
		case 4:
			note(a, b)
			a.merge(t, b)
		case 5:
			note(b, a)
			b.merge(t, a)
		case 6:
			a.reset()
		case 7:
			a.roundTrip(t)
		}
		a.check(t, fmt.Sprintf("step %d (op %d) a", i/2, op))
		b.check(t, fmt.Sprintf("step %d (op %d) b", i/2, op))
	}
	return pairings
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

func TestSparseFirstMatchesDense(t *testing.T) {
	rng := workload.NewRNG(31)
	var seen [2][2][2]bool
	for trial := 0; trial < 200; trial++ {
		script := make([]byte, 2*(10+rng.Uint64()%120))
		for i := range script {
			script[i] = byte(rng.Uint64())
		}
		got := runEquivalence(t, script)
		for fam := range got {
			for r := range got[fam] {
				for o := range got[fam][r] {
					seen[fam][r][o] = seen[fam][r][o] || got[fam][r][o]
				}
			}
		}
	}
	for fam, name := range []string{"distinct", "freq"} {
		for r := 0; r < 2; r++ {
			for o := 0; o < 2; o++ {
				if !seen[fam][r][o] {
					t.Errorf("%s: no merge with receiver sparse=%v, operand sparse=%v", name, r == 1, o == 1)
				}
			}
		}
	}
}

// A store of sparse-first buckets, some crossing into dense form, answers
// every range with the dense sketches' bytes before and after a
// checkpoint round trip.
func TestSparseFirstStoreCheckpointMatchesDense(t *testing.T) {
	cfg := Config{Shards: 2, BucketWidth: 10, RingBuckets: 8}
	open := func() *Store {
		st := mustStore(t, cfg)
		dp, _ := NewDistinctProto(equivPrecision, equivSeed)
		fp, _ := NewFreqProto(equivWidth, equivDepth, equivSeed)
		if err := st.RegisterMetric("uniq", dp); err != nil {
			t.Fatal(err)
		}
		if err := st.RegisterMetric("hits", fp); err != nil {
			t.Fatal(err)
		}
		return st
	}
	live := open()
	rng := workload.NewRNG(33)
	want := map[string]*equivPair{}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("k%d", rng.Uint64()%6)
		// Key k0 sees a handful of items per bucket, k5 the whole universe.
		item := equivItem(int(rng.Uint64() % uint64(8*(1+key[1]-'0'))))
		w := 1 + rng.Uint64()%3
		obs := []Observation{
			{Metric: "uniq", Key: key, Item: item, Value: w, Time: int64(i / 40)},
			{Metric: "hits", Key: key, Item: item, Value: w, Time: int64(i / 40)},
		}
		if err := live.ObserveBatch(obs); err != nil {
			t.Fatal(err)
		}
		// Times reach 74: buckets 0-7, the whole ring, so all of it is served.
		if want[key] == nil {
			want[key] = newEquivPair(t)
		}
		want[key].observe(item, w)
	}
	dir := t.TempDir()
	if _, err := WriteCheckpoint(live, dir, CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	restored := open()
	if _, err := RestoreCheckpoint(restored, dir); err != nil {
		t.Fatal(err)
	}
	for key, ref := range want {
		for name, st := range map[string]*Store{"live": live, "restored": restored} {
			d, err := querySyn(st, "uniq", key, 0, 80)
			if err != nil {
				t.Fatal(err)
			}
			f, err := querySyn(st, "hits", key, 0, 80)
			if err != nil {
				t.Fatal(err)
			}
			ref.d, ref.f = d.(*Distinct), f.(*Freq)
			ref.check(t, name+" "+key)
		}
	}
}
