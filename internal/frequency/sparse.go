package frequency

import (
	"cmp"
	"encoding/binary"
	"slices"

	"repro/internal/core"
	"repro/internal/hashutil"
)

// SparseCountMin is a Count-Min sketch with a sparse small-stream mode,
// the frequency counterpart of cardinality.SparseHLL: until its exact
// (item, weight) cells would outweigh the width x depth counter matrix it
// keeps the cells, then replays them into a dense CountMin. Plain
// Count-Min is additive, so the replay builds exactly the counters the
// whole stream would have, and while sparse every answer is computed from
// the cells as the dense sketch would compute it: Count takes, per row,
// the weight sum of the cells hashing to the item's column, and
// MarshalBinary writes those column sums in CountMin's byte layout.
//
// Every observable except Bytes is therefore that of a plain (not
// conservative) CountMin fed the same stream.
type SparseCountMin struct {
	width, depth int
	seed         uint64
	n            uint64 // while sparse; the dense sketch counts its own

	cells []cmCell  // sorted by (h1, h2), while sparse
	dense *CountMin // non-nil after conversion
}

// cmCell is one distinct item's hash pair and total weight. Items whose
// 128-bit hashes collide share a cell, as they share every counter of the
// dense sketch.
type cmCell struct{ h1, h2, w uint64 }

const cmCellBytes = 24

// NewSparseCountMin returns a sparse-first sketch whose dense form is
// NewCountMin(width, depth, seed).
func NewSparseCountMin(width, depth int, seed uint64) (*SparseCountMin, error) {
	if _, err := NewCountMin(width, depth, seed); err != nil {
		return nil, err
	}
	return &SparseCountMin{width: width, depth: depth, seed: seed}, nil
}

// UpdateString adds count occurrences of a string item.
func (s *SparseCountMin) UpdateString(item string, count uint64) {
	if s.dense != nil {
		s.dense.UpdateString(item, count)
		return
	}
	if count == 0 {
		return // a weightless cell would change no answer
	}
	h1, h2 := hashutil.Sum128([]byte(item), s.seed0())
	s.n += count
	c := cmCell{h1, h2, count}
	i, found := slices.BinarySearchFunc(s.cells, c, compareCells)
	if found {
		s.cells[i].w += count
		return
	}
	s.cells = slices.Insert(s.cells, i, c)
	if s.overLimit() {
		s.toDense()
	}
}

// seed0 is the dense sketch's row-hash seed.
func (s *SparseCountMin) seed0() uint64 { return hashutil.NewFamily(s.seed).Seed(0) }

// compareCells orders cells by hash pair, ignoring weights.
func compareCells(a, b cmCell) int {
	if c := cmp.Compare(a.h1, b.h1); c != 0 {
		return c
	}
	return cmp.Compare(a.h2, b.h2)
}

// overLimit reports whether the cells outweigh the counter matrix.
func (s *SparseCountMin) overLimit() bool {
	return len(s.cells)*cmCellBytes > s.width*s.depth*8
}

func (s *SparseCountMin) toDense() {
	d, err := NewCountMin(s.width, s.depth, s.seed)
	if err != nil {
		// geometry was validated at construction; unreachable.
		panic(err)
	}
	s.replayInto(d)
	d.n = s.n
	s.dense = d
	s.cells = nil
	s.n = 0
}

// replayInto adds the cells' weights to d's counters (not to its mass).
func (s *SparseCountMin) replayInto(d *CountMin) {
	width := uint64(s.width)
	for _, c := range s.cells {
		for r := range d.counts {
			d.counts[r][hashutil.DoubleHash(c.h1, c.h2, uint(r))%width] += c.w
		}
	}
}

// IsSparse reports whether the sketch still keeps exact cells.
func (s *SparseCountMin) IsSparse() bool { return s.dense == nil }

// EstimateString returns the point estimate for a string item: the dense
// sketch's minimum over rows of the item's counter.
func (s *SparseCountMin) EstimateString(item string) uint64 {
	if s.dense != nil {
		return s.dense.EstimateString(item)
	}
	h1, h2 := hashutil.Sum128([]byte(item), s.seed0())
	width := uint64(s.width)
	est := ^uint64(0)
	for r := 0; r < s.depth; r++ {
		col := hashutil.DoubleHash(h1, h2, uint(r)) % width
		var sum uint64
		for _, c := range s.cells {
			if hashutil.DoubleHash(c.h1, c.h2, uint(r))%width == col {
				sum += c.w
			}
		}
		est = min(est, sum)
	}
	return est
}

// Items returns the total count mass absorbed.
func (s *SparseCountMin) Items() uint64 {
	if s.dense != nil {
		return s.dense.n
	}
	return s.n
}

// Bytes returns the current footprint: the cells while sparse (so it never
// exceeds the dense footprint), the counter matrix once dense.
func (s *SparseCountMin) Bytes() int {
	if s.dense != nil {
		return s.dense.Bytes()
	}
	return len(s.cells)*cmCellBytes + 32
}

// Reset returns the sketch to its empty state in place, keeping its
// allocations (and therefore its representation).
func (s *SparseCountMin) Reset() {
	if s.dense != nil {
		s.dense.Reset()
		return
	}
	s.cells = s.cells[:0]
	s.n = 0
}

// Merge adds another sketch of the same geometry and seed into s,
// converting to dense if either side already has or the union of the
// cells outgrows the matrix.
func (s *SparseCountMin) Merge(other *SparseCountMin) error {
	if other == nil || s.width != other.width || s.depth != other.depth || s.seed != other.seed {
		return core.ErrIncompatible
	}
	if s.dense == nil && other.dense == nil {
		s.cells = mergeCells(s.cells, other.cells)
		s.n += other.n
		if s.overLimit() {
			s.toDense()
		}
		return nil
	}
	if s.dense == nil {
		s.toDense()
	}
	if other.dense != nil {
		return s.dense.Merge(other.dense)
	}
	if s.dense.conservative {
		return core.ErrIncompatible
	}
	other.replayInto(s.dense)
	s.dense.n += other.n
	return nil
}

// mergeCells unions two sorted cell lists into dst, adding the weights of
// cells present in both. Like cardinality's word merge it fills dst's
// grown tail from the back and closes the gap duplicates leave.
func mergeCells(dst, src []cmCell) []cmCell {
	if len(src) == 0 {
		return dst
	}
	n := len(dst)
	dst = slices.Grow(dst, len(src))[:n+len(src)]
	i, j, k := n-1, len(src)-1, len(dst)
	for j >= 0 {
		k--
		c := 1 // no dst cell left: take src's
		if i >= 0 {
			c = compareCells(src[j], dst[i])
		}
		switch {
		case c < 0:
			dst[k] = dst[i]
			i--
		case c == 0:
			dst[k] = cmCell{dst[i].h1, dst[i].h2, dst[i].w + src[j].w}
			i--
			j--
		default:
			dst[k] = src[j]
			j--
		}
	}
	return append(dst[:i+1], dst[k:]...)
}

// MarshalBinary encodes the sketch in CountMin's layout whichever form it
// is in, so the bytes equal a dense sketch's fed the same stream. While
// sparse the cells are summed straight into the output's counters.
func (s *SparseCountMin) MarshalBinary() ([]byte, error) {
	if s.dense != nil {
		return s.dense.MarshalBinary()
	}
	out := make([]byte, cmHeaderSize+s.width*s.depth*8)
	putCountMinHeader(out, s.width, s.depth, false, s.n, s.seed0())
	width := uint64(s.width)
	for _, c := range s.cells {
		for r := 0; r < s.depth; r++ {
			p := out[cmHeaderSize+(uint64(r)*width+hashutil.DoubleHash(c.h1, c.h2, uint(r))%width)*8:]
			binary.LittleEndian.PutUint64(p, binary.LittleEndian.Uint64(p)+c.w)
		}
	}
	return out, nil
}

// UnmarshalBinary decodes CountMin bytes into the receiver, which must
// have the encoder's geometry and seed. Counters cannot be split back into
// cells, so the receiver decodes into the dense form.
func (s *SparseCountMin) UnmarshalBinary(data []byte) error {
	d := s.dense
	if d == nil {
		var err error
		if d, err = NewCountMin(s.width, s.depth, s.seed); err != nil {
			return err
		}
	}
	if err := d.UnmarshalBinary(data); err != nil {
		return err
	}
	s.dense, s.cells, s.n = d, nil, 0
	return nil
}
