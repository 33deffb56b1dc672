package rng

import "math"

// Normal returns a sample from the standard normal distribution using the
// Box-Muller transform. It consumes two uniform variates per pair of calls.
func (x *Xoshiro256) Normal() float64 {
	// Box-Muller; u must be in (0,1] to avoid log(0).
	u := 1 - x.Float64()
	v := x.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// Geometric returns a sample from the geometric distribution on {1, 2, ...}
// with success probability p: the number of Bernoulli(p) trials up to and
// including the first success. It panics unless 0 < p <= 1.
func (x *Xoshiro256) Geometric(p float64) int64 {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 1
	}
	u := 1 - x.Float64() // in (0,1]
	return int64(math.Ceil(math.Log(u) / math.Log(1-p)))
}

// Zipf samples from a Zipf (zeta) distribution over {0, 1, ..., n−1} with
// exponent s > 0: P(i) ∝ 1/(i+1)^s. The sampler precomputes the CDF and a
// guide table once, so construction is O(n) and each Sample is O(1)
// expected (Chen-Asau cut-point method): the guide maps u to a narrow CDF
// range, and a short search finishes inside it. The draw is still CDF
// inversion of a single uniform — the returned index for a given generator
// state is bit-identical to the historical binary-search sampler, so every
// seeded workload in the repository replays unchanged.
//
// Zipf item popularity is the standard model for skewed item-frequency
// workloads (experiment E12-E14, appendix H of the paper).
type Zipf struct {
	cdf []float64
	// guide[j] is the smallest index i with cdf[i] >= j/len(guide-1): the
	// inversion of u lies in [guide[⌊u·m⌋], guide[⌊u·m⌋+1]].
	guide []int32
	src   *Xoshiro256
}

// NewZipf builds a Zipf sampler over n items with exponent s using src.
// It panics if n <= 0 or s < 0.
func NewZipf(src *Xoshiro256, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf needs n > 0")
	}
	if s < 0 {
		panic("rng: NewZipf needs s >= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	// One guide bucket per item bounds the expected search range at O(1).
	m := n
	guide := make([]int32, m+1)
	idx := 0
	for j := 0; j <= m; j++ {
		target := float64(j) / float64(m)
		for idx < n-1 && cdf[idx] < target {
			idx++
		}
		guide[j] = int32(idx)
	}
	guide[m] = int32(n - 1)
	return &Zipf{cdf: cdf, guide: guide, src: src}
}

// N returns the support size.
func (z *Zipf) N() int { return len(z.cdf) }

// Sample draws one item index in [0, n).
func (z *Zipf) Sample() int {
	u := z.src.Float64()
	m := len(z.guide) - 1
	j := int(u * float64(m))
	if j >= m { // u ∈ [0,1), but guard the float edge
		j = m - 1
	}
	// Rounding in u·m can land one bucket off either way; restore the
	// invariant j/m ≤ u < (j+1)/m (same j/m expression the guide was
	// built with) so the narrowed search provably contains the answer —
	// the draw must stay bit-identical to a full-range inversion.
	for j > 0 && float64(j)/float64(m) > u {
		j--
	}
	for j < m-1 && float64(j+1)/float64(m) <= u {
		j++
	}
	// The first index with cdf >= u lies in [guide[j], guide[j+1]]:
	// u >= j/m rules out indices below guide[j], u < (j+1)/m rules out
	// indices above guide[j+1]. Binary-search the narrow range.
	lo, hi := int(z.guide[j]), int(z.guide[j+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
