package cardinality

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/hashutil"
)

// SparseHLL is the HLL++ small-cardinality representation: until the number
// of occupied registers justifies the dense array, it stores them as a
// sorted list of packed (index<<8 | rank) words, one 4-byte word per
// occupied register. Once that list would outweigh the 2^precision-byte
// dense register array it converts automatically.
//
// This is the dense/sparse crossover the survey cites from "HyperLogLog in
// practice" (Heule et al.), and the ablation experiment in bench_test.go
// measures exactly where the crossover pays off.
//
// Every observable except Bytes is that of a dense HyperLogLog fed the same
// stream: the conversion point (a quarter of the registers occupied) lies
// well inside HyperLogLog's linear-counting range, so the sparse Estimate
// is bit-identical to the dense one, and MarshalBinary writes the dense
// byte layout.
type SparseHLL struct {
	precision uint8
	seed      uint64
	items     uint64 // while sparse; the dense sketch counts its own

	sparse []uint32     // sorted index<<8 | rank words, while sparse
	dense  *HyperLogLog // non-nil after conversion
}

// NewSparseHLL returns an HLL++-style sketch with automatic sparse-to-dense
// conversion at the footprint crossover (sparse words > dense registers).
func NewSparseHLL(precision uint8, seed uint64) (*SparseHLL, error) {
	if precision < 4 || precision > 18 {
		return nil, core.Errf("SparseHLL", "precision", "%d not in [4,18]", precision)
	}
	return &SparseHLL{precision: precision, seed: seed}, nil
}

// Update adds an item.
func (s *SparseHLL) Update(item []byte) { s.UpdateHash(hashutil.Sum64(item, s.seed)) }

// UpdateString adds a string item.
func (s *SparseHLL) UpdateString(item string) { s.UpdateHash(hashutil.Sum64String(item, s.seed)) }

// UpdateUint64 adds an integer item.
func (s *SparseHLL) UpdateUint64(x uint64) { s.UpdateHash(hashutil.Sum64Uint64(x, s.seed)) }

// UpdateHash adds a pre-hashed item.
func (s *SparseHLL) UpdateHash(hv uint64) {
	if s.dense != nil {
		s.dense.UpdateHash(hv)
		return
	}
	s.items++
	idx := uint32(hv >> (64 - s.precision))
	rest := hv<<s.precision | 1<<(s.precision-1)
	word := idx<<8 | uint32(bits.LeadingZeros64(rest)+1)
	i, _ := slices.BinarySearch(s.sparse, idx<<8)
	if i < len(s.sparse) && s.sparse[i]>>8 == idx {
		s.sparse[i] = max(s.sparse[i], word)
		return
	}
	s.sparse = slices.Insert(s.sparse, i, word)
	if len(s.sparse) > s.sparseLimit() {
		s.toDense()
	}
}

// sparseLimit is the most occupied registers the sparse form holds: past
// it, 4 bytes per word outweigh the dense form's byte per register. At a
// quarter occupancy HyperLogLog's raw estimate is below 2.5m, so the dense
// sketch would still answer by linear counting — the formula Estimate
// applies to the sparse words.
func (s *SparseHLL) sparseLimit() int { return 1 << (s.precision - 2) }

func (s *SparseHLL) toDense() {
	d, err := NewHyperLogLog(s.precision, s.seed)
	if err != nil {
		// precision was validated at construction; unreachable.
		panic(err)
	}
	for _, w := range s.sparse {
		d.registers[w>>8] = uint8(w)
	}
	d.items = s.items
	s.dense = d
	s.sparse = nil
	s.items = 0
}

// IsSparse reports whether the sketch is still in its sparse representation.
func (s *SparseHLL) IsSparse() bool { return s.dense == nil }

// Estimate returns the estimated distinct count. In sparse mode it is
// linear counting over the virtual register file, exactly the dense
// sketch's answer in that range.
func (s *SparseHLL) Estimate() float64 {
	if s.dense != nil {
		return s.dense.Estimate()
	}
	m := float64(uint64(1) << s.precision)
	zeros := float64((1 << s.precision) - len(s.sparse))
	return m * math.Log(m/zeros)
}

// Items returns the number of updates absorbed.
func (s *SparseHLL) Items() uint64 {
	if s.dense != nil {
		return s.dense.items
	}
	return s.items
}

// Bytes returns the current footprint: the packed words while sparse (so
// it never exceeds the dense footprint), the register array once dense.
func (s *SparseHLL) Bytes() int {
	if s.dense != nil {
		return s.dense.Bytes()
	}
	return 4*len(s.sparse) + 16
}

// Reset returns the sketch to its empty state in place, keeping its
// allocations (and therefore its representation).
func (s *SparseHLL) Reset() {
	if s.dense != nil {
		s.dense.Reset()
		return
	}
	s.sparse = s.sparse[:0]
	s.items = 0
}

// Merge folds another SparseHLL into s, converting to dense if either side
// already has or the union outgrows the sparse form.
func (s *SparseHLL) Merge(other *SparseHLL) error {
	if other == nil || s.precision != other.precision || s.seed != other.seed {
		return core.ErrIncompatible
	}
	if s.dense == nil && other.dense == nil {
		s.sparse = mergeWords(s.sparse, other.sparse)
		s.items += other.items
		if len(s.sparse) > s.sparseLimit() {
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
	for _, w := range other.sparse {
		if r := uint8(w); r > s.dense.registers[w>>8] {
			s.dense.registers[w>>8] = r
		}
	}
	s.dense.items += other.items
	return nil
}

// mergeWords unions two sorted word lists into dst, keeping the larger
// rank where both occupy a register. It merges from the back into dst's
// grown tail, so dst is reused whenever its capacity allows.
func mergeWords(dst, src []uint32) []uint32 {
	if len(src) == 0 {
		return dst
	}
	n := len(dst)
	dst = slices.Grow(dst, len(src))[:n+len(src)]
	i, j, k := n-1, len(src)-1, len(dst)
	for j >= 0 {
		k--
		switch {
		case i >= 0 && dst[i]>>8 > src[j]>>8:
			dst[k] = dst[i]
			i--
		case i >= 0 && dst[i]>>8 == src[j]>>8:
			dst[k] = max(dst[i], src[j])
			i--
			j--
		default:
			dst[k] = src[j]
			j--
		}
	}
	// Registers only dst occupied are already in place below i+1; the
	// merged tail starts at k. Close the gap duplicates left between them.
	return append(dst[:i+1], dst[k:]...)
}

// MarshalBinary encodes the sketch in HyperLogLog's layout —
// [precision][seed][items][registers...] — whichever form it is in, so
// the bytes equal a dense sketch's fed the same stream.
func (s *SparseHLL) MarshalBinary() ([]byte, error) {
	if s.dense != nil {
		return s.dense.MarshalBinary()
	}
	out := make([]byte, 17+(1<<s.precision))
	out[0] = s.precision
	binary.LittleEndian.PutUint64(out[1:], s.seed)
	binary.LittleEndian.PutUint64(out[9:], s.items)
	for _, w := range s.sparse {
		out[17+w>>8] = uint8(w)
	}
	return out, nil
}

// UnmarshalBinary decodes HyperLogLog bytes into the receiver, which keeps
// its precision and seed: bytes written under other parameters are
// ErrIncompatible. Registers sparse enough for the sparse form decode
// into it.
func (s *SparseHLL) UnmarshalBinary(data []byte) error {
	if len(data) >= 9 && (data[0] != s.precision || binary.LittleEndian.Uint64(data[1:]) != s.seed) {
		return core.ErrIncompatible
	}
	if len(data) != 17+(1<<s.precision) {
		return core.ErrCorrupt
	}
	items := binary.LittleEndian.Uint64(data[9:])
	regs := data[17:]
	occupied := 0
	for _, r := range regs {
		if r != 0 {
			occupied++
		}
	}
	if occupied > s.sparseLimit() {
		if s.dense == nil {
			s.dense, _ = NewHyperLogLog(s.precision, s.seed)
		}
		copy(s.dense.registers, regs)
		s.dense.items = items
		s.sparse = nil
		return nil
	}
	s.dense = nil
	s.sparse = slices.Grow(s.sparse[:0], occupied)
	for i, r := range regs {
		if r != 0 {
			s.sparse = append(s.sparse, uint32(i)<<8|uint32(r))
		}
	}
	s.items = items
	return nil
}

// SortedEntries returns the sparse entries sorted by register index, for
// deterministic serialization and tests. Returns nil once dense.
func (s *SparseHLL) SortedEntries() []SparseEntry {
	if s.dense != nil {
		return nil
	}
	out := make([]SparseEntry, len(s.sparse))
	for i, w := range s.sparse {
		out[i] = SparseEntry{Index: w >> 8, Rank: uint8(w)}
	}
	return out
}

// SparseEntry is one occupied register in sparse mode.
type SparseEntry struct {
	Index uint32
	Rank  uint8
}
