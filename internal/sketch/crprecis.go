package sketch

import (
	"fmt"
	"math"
)

// CRPrecis is the deterministic counter sketch of Ganguly and Majumder
// [6][7]: t rows, row j holding p_j counters where p_j is the j-th prime at
// or above the chosen width; item ℓ maps to counter ℓ mod p_j in row j.
//
// Two distinct items ℓ ≠ ℓ' collide in row j only if p_j divides ℓ − ℓ'.
// Since |ℓ − ℓ'| < 2^universeBits has fewer than universeBits/log2(width)
// prime factors that large, any pair collides in at most that many rows.
// With the row-minimum estimator on strict-turnstile streams, the estimate
// for ℓ overestimates by at most (maxCollisions/t)·(F1 − fℓ) — a
// deterministic guarantee, unlike Count-Min's probabilistic one. (Ganguly
// and Majumder take the minimum; the paper notes the average works too and
// yields a linear estimator. We implement both.)
type CRPrecis struct {
	universeBits int
	primes       []int64
	offsets      []uint64 // flat index of the start of each row
	cells        []int64
}

// NewCRPrecis builds a sketch with rows rows of primes ≥ width, for items
// drawn from [0, 2^universeBits).
func NewCRPrecis(rows int, width int64, universeBits int) *CRPrecis {
	if rows <= 0 || width < 2 {
		panic("sketch: NewCRPrecis needs rows > 0 and width >= 2")
	}
	if universeBits <= 0 || universeBits > 63 {
		panic("sketch: NewCRPrecis needs 1 <= universeBits <= 63")
	}
	primes := Primes(width, rows)
	offsets := make([]uint64, rows)
	var total uint64
	for i, p := range primes {
		offsets[i] = total
		total += uint64(p)
	}
	return &CRPrecis{
		universeBits: universeBits,
		primes:       primes,
		offsets:      offsets,
		cells:        make([]int64, total),
	}
}

// NewCRPrecisForError sizes the sketch so the deterministic estimate error
// is at most (eps/3)·F1, following appendix H: width ~ (6·log|U|)/(ε·log(1/ε))
// and enough rows that maxCollisions/rows ≤ ε/3.
func NewCRPrecisForError(eps float64, universeBits int) *CRPrecis {
	if !(eps > 0 && eps < 1) {
		panic("sketch: NewCRPrecisForError needs 0 < eps < 1")
	}
	b := float64(universeBits)
	width := int64(math.Ceil(6 * b / (eps * math.Log2(1/eps))))
	if width < 2 {
		width = 2
	}
	// maxCollisions = ceil(b / log2(width)); rows ≥ 3·maxCollisions/ε.
	maxColl := math.Ceil(b / math.Log2(float64(width)))
	rows := int(math.Ceil(3 * maxColl / eps))
	if rows < 1 {
		rows = 1
	}
	return NewCRPrecis(rows, width, universeBits)
}

// Rows returns the number of rows.
func (cr *CRPrecis) Rows() int { return len(cr.primes) }

// Cells returns the total number of counters.
func (cr *CRPrecis) Cells() int { return len(cr.cells) }

// MaxCollisions returns the largest number of rows in which two distinct
// universe items can collide: ⌊universeBits / log2(smallest prime)⌋.
func (cr *CRPrecis) MaxCollisions() int {
	return int(float64(cr.universeBits) / math.Log2(float64(cr.primes[0])))
}

// ErrorBound returns the deterministic bound on overestimation for the
// row-minimum estimator given the current total mass F1:
// (MaxCollisions / Rows) · F1, clamped below by 0.
func (cr *CRPrecis) ErrorBound(f1 int64) float64 {
	return float64(cr.MaxCollisions()) / float64(cr.Rows()) * float64(f1)
}

// Add applies an update (item, delta) to every row.
func (cr *CRPrecis) Add(item uint64, delta int64) {
	for j, p := range cr.primes {
		cr.cells[cr.offsets[j]+item%uint64(p)] += delta
	}
}

// Estimate returns the row-minimum frequency estimate for item. On strict-
// turnstile streams it never underestimates.
func (cr *CRPrecis) Estimate(item uint64) int64 {
	est := int64(math.MaxInt64)
	for j, p := range cr.primes {
		if v := cr.cells[cr.offsets[j]+item%uint64(p)]; v < est {
			est = v
		}
	}
	return est
}

// EstimateAvg returns the row-average estimate, the linear variant the
// paper mentions. It can both over- and under-estimate but is unbiased
// against adversarial row placement.
func (cr *CRPrecis) EstimateAvg(item uint64) int64 {
	var sum int64
	for j, p := range cr.primes {
		sum += cr.cells[cr.offsets[j]+item%uint64(p)]
	}
	return int64(math.RoundToEven(float64(sum) / float64(len(cr.primes))))
}

// CellIndex returns the flat counter index for item in each row.
func (cr *CRPrecis) CellIndex(item uint64) []uint64 {
	return cr.CellIndexInto(make([]uint64, 0, len(cr.primes)), item)
}

// CellIndexInto is the allocation-free CellIndex: it writes the flat
// indices into buf (reusing its capacity, content overwritten) and returns
// the slice.
func (cr *CRPrecis) CellIndexInto(buf []uint64, item uint64) []uint64 {
	buf = buf[:0]
	for j, p := range cr.primes {
		buf = append(buf, cr.offsets[j]+item%uint64(p))
	}
	return buf
}

// EstimateFromCells computes the row-minimum estimate reading counters
// through get, keyed by flat indices.
func (cr *CRPrecis) EstimateFromCells(get func(cell uint64) int64, item uint64) int64 {
	est := int64(math.MaxInt64)
	for j, p := range cr.primes {
		if v := get(cr.offsets[j] + item%uint64(p)); v < est {
			est = v
		}
	}
	return est
}

// Merge adds other into cr; dimensions must match.
func (cr *CRPrecis) Merge(other *CRPrecis) error {
	if len(cr.cells) != len(other.cells) || len(cr.primes) != len(other.primes) {
		return fmt.Errorf("sketch: CR-precis merge dimension mismatch")
	}
	for j := range cr.primes {
		if cr.primes[j] != other.primes[j] {
			return fmt.Errorf("sketch: CR-precis merge prime mismatch in row %d", j)
		}
	}
	for i := range cr.cells {
		cr.cells[i] += other.cells[i]
	}
	return nil
}
