package main

import (
	"testing"

	"repro/internal/store"
)

func verifiedKeys(got []answered) map[string]bool {
	keys := map[string]bool{}
	for _, a := range got {
		for _, k := range a.req.Keys {
			keys[k] = true
		}
	}
	return keys
}

// TestCheckCatchesADroppedBatch: a reference that misses one
// acknowledged batch disagrees with the served answers.
func TestCheckCatchesADroppedBatch(t *testing.T) {
	h, got := smallRun(t, "dashboard", 5, false)
	keys := verifiedKeys(got)
	ref, err := h.reference(h.acked, keys)
	if err != nil {
		t.Fatal(err)
	}
	v, err := check(got, ref, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if v.wrong != 0 || !v.ok() {
		t.Fatalf("full reference: %d wrong answers; first %s", v.wrong, v.detail)
	}
	// Drop the last workload batch (the preload comes first).
	dropped := append([]ackRec(nil), h.acked[:len(h.acked)-1]...)
	ref, err = h.reference(dropped, keys)
	if err != nil {
		t.Fatal(err)
	}
	if v, err = check(got, ref, nil, false); err != nil {
		t.Fatal(err)
	}
	if v.wrong == 0 || v.ok() {
		t.Fatalf("reference missing a batch: %d wrong answers, check passed %t", v.wrong, v.ok())
	}
}

// TestCheckCatchesAnAlteredAnswer: one served cell replaced by an empty
// synopsis of its family fails the check.
func TestCheckCatchesAnAlteredAnswer(t *testing.T) {
	h, got := smallRun(t, "ingest", 5, false)
	ref, err := h.reference(h.acked, verifiedKeys(got))
	if err != nil {
		t.Fatal(err)
	}
	protos, err := h.protos()
	if err != nil {
		t.Fatal(err)
	}
	altered := false
	for i, a := range got {
		cell := a.res.Answers()[0]
		if a.res.Len() != 1 || cell.Items() == 0 || cell.Aggregate {
			continue
		}
		got[i].res = store.NewQueryResult([]store.Answer{store.NewAnswer(cell.Metric, cell.Key, protos[cell.Metric]())})
		altered = true
		break
	}
	if !altered {
		t.Fatal("no single-cell answer with data to alter")
	}
	v, err := check(got, ref, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if v.wrong != 1 || v.ok() {
		t.Fatalf("altered answer: %d wrong answers, check passed %t", v.wrong, v.ok())
	}
}
