package frequency

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/workload"
)

// sameAsDense fails unless s answers and encodes exactly like d.
func sameAsDense(t *testing.T, label string, s *SparseCountMin, d *CountMin, probes []string) {
	t.Helper()
	got, _ := s.MarshalBinary()
	want, _ := d.MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: bytes differ from dense (sparse=%v)", label, s.IsSparse())
	}
	if s.Items() != d.Items() {
		t.Fatalf("%s: items %d != dense %d", label, s.Items(), d.Items())
	}
	for _, p := range probes {
		if g, w := s.EstimateString(p), d.EstimateString(p); g != w {
			t.Fatalf("%s: count(%q) = %d, dense %d", label, p, g, w)
		}
	}
}

// For streams on both sides of the switch, and merges in every pairing
// of sparse and dense operands, the sparse-first sketch is the dense one.
func TestSparseCountMinMatchesDense(t *testing.T) {
	const width, depth, seed = 16, 3, 9 // 384-byte matrix: 16 cells
	rng := workload.NewRNG(61)
	probes := make([]string, 40)
	for i := range probes {
		probes[i] = fmt.Sprintf("i%d", i)
	}
	feed := func(n int) (*SparseCountMin, *CountMin) {
		s, _ := NewSparseCountMin(width, depth, seed)
		d, _ := NewCountMin(width, depth, seed)
		for i := 0; i < n; i++ {
			item, w := probes[rng.Uint64()%uint64(len(probes))], 1+rng.Uint64()%4
			s.UpdateString(item, w)
			d.UpdateString(item, w)
		}
		return s, d
	}
	for trial := 0; trial < 100; trial++ {
		a, da := feed(int(rng.Uint64() % 40))
		b, db := feed(int(rng.Uint64() % 40))
		label := fmt.Sprintf("trial %d (sparse %v <- %v)", trial, a.IsSparse(), b.IsSparse())
		sameAsDense(t, label+" before merge", a, da, probes)
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if err := da.Merge(db); err != nil {
			t.Fatal(err)
		}
		sameAsDense(t, label, a, da, probes)
		a.Reset()
		da.Reset()
		sameAsDense(t, label+" after reset", a, da, probes)
	}
}

func TestSparseCountMinSwitchesAtMatrixFootprint(t *testing.T) {
	s, _ := NewSparseCountMin(16, 3, 1)
	for i := 0; s.IsSparse(); i++ {
		if s.Bytes() > 16*3*8+32 {
			t.Fatalf("sparse footprint %d passed the matrix's", s.Bytes())
		}
		s.UpdateString(fmt.Sprint(i), 1)
	}
	if s.Bytes() != 16*3*8+32 {
		t.Fatalf("dense footprint %d", s.Bytes())
	}
	other, _ := NewSparseCountMin(16, 4, 1)
	if err := s.Merge(other); err == nil {
		t.Fatal("merged sketches of different depth")
	}
}

// Decoding goes through the dense form, so bytes written by either form
// restore to a sketch that encodes them unchanged.
func TestSparseCountMinUnmarshal(t *testing.T) {
	s, _ := NewSparseCountMin(64, 4, 3)
	s.UpdateString("a", 3)
	s.UpdateString("b", 1)
	data, _ := s.MarshalBinary()
	back, _ := NewSparseCountMin(64, 4, 3)
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if again, _ := back.MarshalBinary(); !bytes.Equal(again, data) || back.EstimateString("a") != 3 {
		t.Fatal("round trip changed the sketch")
	}
	wrongSeed, _ := NewSparseCountMin(64, 4, 4)
	if err := wrongSeed.UnmarshalBinary(data); err == nil {
		t.Fatal("decoded bytes written under another seed")
	}
}
