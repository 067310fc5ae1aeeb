package quantile

import (
	"bytes"
	"maps"
	"sort"
	"testing"

	"repro/internal/workload"
)

// compressReference is the original Compress: every node id sorted
// deepest-first, whatever the threshold.
func compressReference(q *QDigest) {
	if q.n == 0 {
		return
	}
	threshold := q.n / q.k
	ids := make([]uint64, 0, len(q.counts))
	for id := range q.counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] })
	for _, id := range ids {
		if id <= 1 {
			continue
		}
		c := q.counts[id]
		if c == 0 {
			delete(q.counts, id)
			continue
		}
		sib := id ^ 1
		parent := id / 2
		family := c + q.counts[sib] + q.counts[parent]
		if family < threshold {
			q.counts[parent] = family
			delete(q.counts, id)
			delete(q.counts, sib)
		}
	}
}

// Compress's zero-threshold shortcut (n < k) and its sorted path (n >= k)
// both leave exactly the digest the original algorithm leaves, including
// the zero-count nodes weightless updates and merges create.
func TestQDigestCompressMatchesReference(t *testing.T) {
	rng := workload.NewRNG(17)
	for trial := 0; trial < 200; trial++ {
		k := 8 + rng.Uint64()%64
		n := rng.Uint64() % (2 * k) // about half the trials have n < k
		q, _ := NewQDigest(10, k)
		for i := uint64(0); i < n; i++ {
			w := rng.Uint64() % 3 // 0: a node that carries no weight
			q.Update(rng.Uint64()%1024, w)
		}
		// Merging in another digest's raw counters (as Merge does, minus
		// its compress) gives interior and zero-count nodes to process.
		for i := 0; i < 8; i++ {
			q.counts[1+rng.Uint64()%1023] += rng.Uint64() % 2
		}
		want := &QDigest{logU: q.logU, k: q.k, n: q.n, counts: maps.Clone(q.counts)}
		compressReference(want)
		q.Compress()
		got, _ := q.MarshalBinary()
		wantBytes, _ := want.MarshalBinary()
		if !bytes.Equal(got, wantBytes) {
			t.Fatalf("trial %d (n=%d k=%d): Compress diverges from the reference", trial, q.n, k)
		}
	}
}
