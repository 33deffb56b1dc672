package sketch

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// CountMin is the Count-Min sketch of Cormode and Muthukrishnan [3]: depth
// rows of width counters, each row with its own pairwise-independent hash.
// On strict-turnstile streams (no item frequency ever negative — exactly
// the appendix-H model, where only present items can be deleted) the
// row-minimum estimate never underestimates, and with width w a single row
// overestimates by more than (e/w)·F1... the paper's concrete instantiation
// is one row of 27/ε counters giving P(error ≤ εF1/3) ≥ 8/9.
type CountMin struct {
	width  uint64
	depth  int
	rows   [][]int64
	hashes []PairwiseHash
}

// NewCountMin builds a depth×width sketch with hashes drawn from seed.
func NewCountMin(width uint64, depth int, seed uint64) *CountMin {
	if width == 0 || depth <= 0 {
		panic("sketch: NewCountMin needs width > 0 and depth > 0")
	}
	src := rng.New(seed)
	cm := &CountMin{width: width, depth: depth}
	cm.rows = make([][]int64, depth)
	cm.hashes = make([]PairwiseHash, depth)
	for i := 0; i < depth; i++ {
		cm.rows[i] = make([]int64, width)
		cm.hashes[i] = NewPairwiseHash(src.Uint64(), src.Uint64(), width)
	}
	return cm
}

// NewCountMinForError sizes the sketch per the paper's appendix H: width
// 27/ε with a pairwise-independent hash gives per-query error ≤ εF1/3 with
// probability ≥ 8/9 (depth 1); extra depth drives the failure probability
// down geometrically.
func NewCountMinForError(eps float64, depth int, seed uint64) *CountMin {
	if !(eps > 0 && eps < 1) {
		panic("sketch: NewCountMinForError needs 0 < eps < 1")
	}
	return NewCountMin(uint64(math.Ceil(27/eps)), depth, seed)
}

// Width returns the row width.
func (cm *CountMin) Width() uint64 { return cm.width }

// Depth returns the number of rows.
func (cm *CountMin) Depth() int { return cm.depth }

// Cells returns the total number of counters.
func (cm *CountMin) Cells() int { return cm.depth * int(cm.width) }

// Add applies an update (item, delta) to every row.
//
//varlint:zeroalloc
func (cm *CountMin) Add(item uint64, delta int64) {
	for i, h := range cm.hashes {
		cm.rows[i][h.Hash(item)] += delta
	}
}

// Estimate returns the row-minimum frequency estimate for item.
//
//varlint:zeroalloc
func (cm *CountMin) Estimate(item uint64) int64 {
	est := cm.rows[0][cm.hashes[0].Hash(item)]
	for i := 1; i < cm.depth; i++ {
		if v := cm.rows[i][cm.hashes[i].Hash(item)]; v < est {
			est = v
		}
	}
	return est
}

// CellIndex returns the flat counter index the item maps to in each row
// (row-major). The distributed tracker treats each cell as a tracked
// counter, so it needs stable global indices.
func (cm *CountMin) CellIndex(item uint64) []uint64 {
	return cm.CellIndexInto(make([]uint64, 0, cm.depth), item)
}

// CellIndexInto is the allocation-free CellIndex: it writes the flat
// indices into buf (reusing its capacity, content overwritten) and returns
// the slice. Per-update callers hold one buffer per site and reuse it, so
// the appendix-H hot path performs no per-update allocation.
func (cm *CountMin) CellIndexInto(buf []uint64, item uint64) []uint64 {
	buf = buf[:0]
	for i, h := range cm.hashes {
		buf = append(buf, uint64(i)*cm.width+h.Hash(item))
	}
	return buf
}

// EstimateFromCells computes the row-minimum estimate reading counter
// values through get, keyed by the flat indices of CellIndex. This is how
// the coordinator queries its merged, remotely-tracked copy of the sketch.
func (cm *CountMin) EstimateFromCells(get func(cell uint64) int64, item uint64) int64 {
	est := int64(math.MaxInt64)
	for i, h := range cm.hashes {
		if v := get(uint64(i)*cm.width + h.Hash(item)); v < est {
			est = v
		}
	}
	return est
}

// Merge adds other into cm. Both sketches must have identical dimensions
// and hash coefficients (i.e. be built with the same width, depth, seed).
func (cm *CountMin) Merge(other *CountMin) error {
	if cm.width != other.width || cm.depth != other.depth {
		return fmt.Errorf("sketch: merge dimension mismatch: %dx%d vs %dx%d",
			cm.depth, cm.width, other.depth, other.width)
	}
	for i := range cm.hashes {
		if cm.hashes[i] != other.hashes[i] {
			return fmt.Errorf("sketch: merge hash mismatch in row %d", i)
		}
	}
	for i := range cm.rows {
		for j := range cm.rows[i] {
			cm.rows[i][j] += other.rows[i][j]
		}
	}
	return nil
}
