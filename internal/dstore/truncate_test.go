package dstore

import (
	"testing"

	"repro/internal/store"
)

// TestTruncateBelowShedsCoveredPrefix is the Lambda handoff from the
// cluster's side: freeze a batch view at the topic's end offsets, fence
// the cluster to them, and the cluster's rebuilt stores must contain only
// post-fence observations — while batch view + cluster still partition
// the log exactly (their per-key merged answers equal a full-log oracle).
func TestTruncateBelowShedsCoveredPrefix(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 8})
	for i := 0; i < 3; i++ {
		if _, err := c.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	to := feed(t, c, 1500, 77)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	// Freeze the batch view at the covered prefix and fence the cluster.
	ends := c.Topic().EndOffsets()
	view, err := store.FreezeAt(c.cfg.Store, testProtos(t), c.Topic(), ends, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.TruncateBelow(ends); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	// The rebuilt cluster holds nothing: everything is below the fence.
	if st := c.Stats().Store; st.Observed != 0 {
		t.Fatalf("cluster still holds %d observations after truncation", st.Observed)
	}

	// Post-fence traffic lands only in the cluster.
	feed(t, c, 800, 78)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	full := oracle(t, c) // full-log single store
	r := c.Router()
	protos := testProtos(t)
	mismatch := 0
	for _, key := range full.Keys("uniq") {
		want, err := querySyn(full, "uniq", key, 0, to+1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := querySyn(view, "uniq", key, 0, to+1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := querySyn(r, "uniq", key, 0, to+1)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := store.CombineSnapshots(protos["uniq"], b, s)
		if err != nil {
			t.Fatal(err)
		}
		if merged.(*store.Distinct).Estimate() != want.(*store.Distinct).Estimate() {
			mismatch++
		}
	}
	if mismatch != 0 {
		t.Fatalf("%d keys where batch+speed merge != full-log oracle", mismatch)
	}

	// Floors ratchet: an older (lower) bound must not resurrect history.
	low := make([]uint64, len(ends))
	if err := c.TruncateBelow(low); err != nil {
		t.Fatal(err)
	}
	for pid, f := range c.Floors() {
		if f != ends[pid] {
			t.Fatalf("floor %d regressed to %d, fence was %d", pid, f, ends[pid])
		}
	}

	// Validation.
	if err := c.TruncateBelow([]uint64{1}); err == nil {
		t.Fatal("mismatched bounds length accepted")
	}
}
