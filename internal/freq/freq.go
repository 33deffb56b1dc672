// Package freq implements the item-frequency tracking of appendix H: over a
// distributed insert/delete item stream, the coordinator maintains, for
// every item ℓ, an estimate f̂_ℓ(n) with |f_ℓ(n) − f̂_ℓ(n)| ≤ ε·F1(n),
// where F1(n) = |D(n)| is the current dataset size.
//
// The construction is the paper's: time is partitioned into blocks with the
// §3.1 protocol run on f = F1 (the F1-variability governs the cost); inside
// a block each site pushes per-counter deltas whenever they drift by
// ε·2^r/3, and at each block boundary sites report their heavy counters
// (|f_ic| ≥ ε·2^r/3) exactly while the coordinator zeroes the rest.
//
// Three backends share the protocol, differing only in what a "counter" is:
//
//   - Exact: one counter per item (H.0.1) — Θ(|U|) site state, deterministic.
//   - Count-Min (H.0.2): items hash into O(1/ε) counters; deterministic
//     protocol error plus the sketch's probabilistic εF1/3 collision error.
//   - CR-precis (H.0.2): prime-modulus rows; fully deterministic εF1 bound.
package freq

import (
	"repro/internal/sketch"
)

// Mapper translates items to tracked counter cells and recovers frequency
// estimates from the coordinator's merged counter table. Implementations
// must be deterministic and identical at every site and the coordinator.
type Mapper interface {
	// CellsInto writes the counter cells item contributes to into buf
	// (reusing its capacity, content overwritten) and returns the slice.
	// The per-update site loops hold one buffer each and reuse it, keeping
	// the appendix-H hot path free of per-update allocations.
	CellsInto(buf []uint64, item uint64) []uint64
	// Estimate reads merged counter values through get and returns the
	// frequency estimate for item.
	Estimate(get func(cell uint64) int64, item uint64) int64
	// NumCells returns the number of counter cells (for space accounting),
	// or a negative value when the cell space is unbounded (exact mapper).
	NumCells() int
}

// ExactMapper maps every item to its own counter: the H.0.1 algorithm.
type ExactMapper struct{}

// CellsInto implements Mapper.
func (ExactMapper) CellsInto(buf []uint64, item uint64) []uint64 {
	return append(buf[:0], item)
}

// Estimate implements Mapper.
func (ExactMapper) Estimate(get func(cell uint64) int64, item uint64) int64 {
	return get(item)
}

// NumCells implements Mapper: the exact mapper's cell space is the universe.
func (ExactMapper) NumCells() int { return -1 }

// CMMapper maps items through a Count-Min sketch's cell structure. All
// parties must construct it with the same width, depth, and seed.
type CMMapper struct{ CM *sketch.CountMin }

// NewCMMapper builds the mapper from the paper's sizing (width 27/ε).
func NewCMMapper(eps float64, depth int, seed uint64) CMMapper {
	return CMMapper{CM: sketch.NewCountMinForError(eps, depth, seed)}
}

// CellsInto implements Mapper.
func (m CMMapper) CellsInto(buf []uint64, item uint64) []uint64 {
	return m.CM.CellIndexInto(buf, item)
}

// Estimate implements Mapper.
func (m CMMapper) Estimate(get func(cell uint64) int64, item uint64) int64 {
	return m.CM.EstimateFromCells(get, item)
}

// NumCells implements Mapper.
func (m CMMapper) NumCells() int { return m.CM.Cells() }

// CRMapper maps items through CR-precis prime rows.
type CRMapper struct{ CR *sketch.CRPrecis }

// NewCRMapper builds the mapper from the paper's sizing for error εF1/3.
func NewCRMapper(eps float64, universeBits int) CRMapper {
	return CRMapper{CR: sketch.NewCRPrecisForError(eps, universeBits)}
}

// CellsInto implements Mapper.
func (m CRMapper) CellsInto(buf []uint64, item uint64) []uint64 {
	return m.CR.CellIndexInto(buf, item)
}

// Estimate implements Mapper.
func (m CRMapper) Estimate(get func(cell uint64) int64, item uint64) int64 {
	return m.CR.EstimateFromCells(get, item)
}

// NumCells implements Mapper.
func (m CRMapper) NumCells() int { return m.CR.Cells() }
