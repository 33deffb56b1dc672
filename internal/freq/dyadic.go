package freq

import (
	"math"

	"repro/internal/dist"
)

// This file extends the appendix-H frequency tracker to distributed rank
// and quantile tracking, the way Yi and Zhang [16][17] extend Cormode et
// al.'s counters (the extension §5.1 of the paper alludes to): interpret
// items as values in [0, 2^bits) and track one counter per dyadic interval.
// A rank query rank(x) = |{ v ∈ D : v ≤ x }| decomposes into at most `bits`
// disjoint dyadic intervals, so tracking each interval's count to
// (ε/bits)·F1 yields rank error ≤ ε·F1 — and therefore ε-approximate
// quantiles of the live dataset at the coordinator, under insertions and
// deletions, with communication O((k·bits²/ε)·v).

// DyadicMapper maps a value to its dyadic ancestor cells using heap
// numbering: level ℓ ∈ [1, bits] has 2^ℓ cells and cell ids (1<<ℓ)+prefix,
// which are unique across levels.
type DyadicMapper struct {
	bits int
}

// NewDyadicMapper builds a mapper over values in [0, 2^bits).
func NewDyadicMapper(bits int) DyadicMapper {
	if bits <= 0 || bits > 30 {
		panic("freq: NewDyadicMapper needs 1 <= bits <= 30")
	}
	return DyadicMapper{bits: bits}
}

// CellsInto implements Mapper: one cell per dyadic level.
func (m DyadicMapper) CellsInto(buf []uint64, item uint64) []uint64 {
	item &= (1 << uint(m.bits)) - 1
	buf = buf[:0]
	for l := 1; l <= m.bits; l++ {
		prefix := item >> uint(m.bits-l)
		buf = append(buf, 1<<uint(l)+prefix)
	}
	return buf
}

// Estimate implements Mapper: the leaf cell is the per-value counter.
func (m DyadicMapper) Estimate(get func(cell uint64) int64, item uint64) int64 {
	item &= (1 << uint(m.bits)) - 1
	return get(1<<uint(m.bits) + item)
}

// NumCells implements Mapper: 2^{bits+1} − 2 potential cells (live cells
// are far fewer; sites hold only touched ones).
func (m DyadicMapper) NumCells() int { return 1<<uint(m.bits+1) - 2 }

// RankTracker tracks distributed value ranks: Rank(x) and Quantile(q) over
// the live dataset, each within ε·F1.
type RankTracker struct {
	*Tracker
	mapper DyadicMapper
}

// NewDyadicRank builds a distributed rank/quantile tracker for values in
// [0, 2^bits) with rank error ε·F1. Internally it runs the appendix-H
// tracker with per-cell error ε/bits, so message costs carry an extra
// bits factor on top of the frequency tracker's.
func NewDyadicRank(k int, eps float64, bits int) (*RankTracker, []dist.SiteAlgo) {
	if !(eps > 0 && eps < 1) {
		panic("freq: NewDyadicRank needs 0 < eps < 1")
	}
	mapper := NewDyadicMapper(bits)
	epsCell := eps / float64(bits)
	if epsCell <= 0 {
		epsCell = eps
	}
	tr, sites := New(k, epsCell, mapper)
	return &RankTracker{Tracker: tr, mapper: mapper}, sites
}

// Rank returns the estimated number of live values ≤ x.
func (rt *RankTracker) Rank(x int64) int64 {
	if x < 0 {
		return 0
	}
	bits := rt.mapper.bits
	max := int64(1)<<uint(bits) - 1
	if x >= max {
		// rank(max) is the whole dataset; the F1 estimate covers it
		// without needing a level-0 cell.
		return rt.F1()
	}
	// Decompose [0, x] into dyadic intervals: walk the bits of x+1.
	var rank int64
	hi := uint64(x + 1) // count values in [0, x+1)
	for l := 1; l <= bits; l++ {
		// At level l, the cell covering prefixes strictly below hi's
		// prefix contributes if the corresponding bit of hi is 1.
		bit := hi >> uint(bits-l) & 1
		if bit == 1 {
			prefix := hi>>uint(bits-l) - 1
			rank += rt.get(1<<uint(l) + prefix)
		}
	}
	if rank < 0 {
		return 0
	}
	return rank
}

// Quantile returns a value whose rank is approximately q·F1, by binary
// search over Rank. The combined error is ≤ ε·F1 in rank space.
func (rt *RankTracker) Quantile(q float64) int64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(rt.F1())))
	lo, hi := int64(0), int64(1)<<uint(rt.mapper.bits)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if rt.Rank(mid) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
