// Package lowerbound implements the hard-instance machinery of section 4 of
// the paper: the deterministic sequence family of theorem 4.1, the
// randomized switching family of lemmas 4.3/4.4, the overlap/match
// predicates, the tracing-problem summary of appendix D (a recorded
// communication transcript replayed to answer historical queries), and the
// Index_N one-way communication reduction used in both lower bounds.
package lowerbound

import "math"

// DetFamily describes the theorem 4.1 construction: sequences of length n
// that start at f(0) = m and flip between the levels m and m+3 at the r
// timesteps of a chosen index set S. With ε = 1/m, every sequence has
// variability exactly (6m+9)/(2m+6)·ε·r, and there are C(n, r) ≥ (n/r)^r of
// them, so any ε-accurate tracing summary needs Ω(r·log n) bits.
type DetFamily struct {
	M int64 // the low level; ε = 1/m
	N int64 // sequence length
	R int   // number of flips (even in the paper; we allow any r ≤ n)
}

// Eps returns the error parameter ε = 1/m of the construction.
func (d DetFamily) Eps() float64 { return 1 / float64(d.M) }

// Sequence materializes the values f(1..n) for the index set S, whose
// entries must be strictly increasing timesteps in [1, n].
func (d DetFamily) Sequence(s []int64) []int64 {
	vals := make([]int64, d.N)
	f := d.M
	next := 0
	for t := int64(1); t <= d.N; t++ {
		if next < len(s) && s[next] == t {
			f = (2*d.M + 3) - f
			next++
		}
		vals[t-1] = f
	}
	return vals
}

// Variability returns the variability of any sequence in the family with
// |S| = r flips: r/2 flips up contribute 3/(m+3) each and r/2 flips down
// contribute 3/m each, totalling (6m+9)/(2m+6)·ε·r for even r. For odd r
// the extra flip is an up-flip.
func (d DetFamily) Variability(r int) float64 {
	m := float64(d.M)
	up := float64((r + 1) / 2) // flips m → m+3 (first flip is up)
	down := float64(r / 2)     // flips m+3 → m
	return up*3/(m+3) + down*3/m
}

// TheoremVariability returns the paper's closed form (6m+9)/(2m+6)·ε·r,
// exact for even r and m ≥ 3. (Theorem 4.1 uses the unclipped sum
// Σ|f'/f|; for m ≤ 2 the clipped variability definition caps the 3/m
// down-flip terms at 1.)
func (d DetFamily) TheoremVariability(r int) float64 {
	m := float64(d.M)
	return (6*m + 9) / (2*m + 6) * d.Eps() * float64(r)
}

// Distinguishable reports whether an ε-accurate estimate separates the two
// levels: no value may be within ε·m of m and within ε·(m+3) of m+3
// simultaneously. With ε = 1/m this requires εm + ε(m+3) < 3, i.e. m > 3
// for real-valued estimates (integer estimates separate for all m ≥ 2, the
// paper's regime).
func (d DetFamily) Distinguishable() bool {
	eps := d.Eps()
	return eps*float64(d.M)+eps*float64(d.M+3) < 3
}

// IndexSetFromBits builds the index set S ⊂ [1, n] whose characteristic
// choice is determined by x: bit i of x chooses between two candidate
// positions for flip i. It gives a 2^bits-sized, deterministically
// enumerable subfamily used by the Index_N reduction demo (appendix F uses
// the same idea with a maximal family). Flip i is placed at timestep
// 2i·gap + 1 if bit i is 0, and 2i·gap + gap + 1 if bit i is 1, where
// gap = n/(2·bits); all positions are distinct and increasing.
func (d DetFamily) IndexSetFromBits(x uint64, bits int) []int64 {
	gap := d.N / int64(2*bits)
	if gap < 1 {
		panic("lowerbound: n too small for requested bits")
	}
	s := make([]int64, bits)
	for i := 0; i < bits; i++ {
		pos := int64(2*i)*gap + 1
		if x>>uint(i)&1 == 1 {
			pos += gap
		}
		s[i] = pos
	}
	return s
}

// DecodeBits inverts IndexSetFromBits given ε-accurate estimates of the
// sequence at the candidate positions: for each bit, querying the first
// candidate position tells whether the flip happened at or before it.
// Estimates are classified to the nearest level.
func (d DetFamily) DecodeBits(query func(t int64) float64, bits int) uint64 {
	gap := d.N / int64(2*bits)
	var x uint64
	level := d.M // level before flip i (flips alternate, starting at m)
	for i := 0; i < bits; i++ {
		pos := int64(2*i)*gap + 1
		est := query(pos)
		got := classify(est, d.M)
		// If the value at the first candidate already flipped, bit = 0.
		if got == level {
			x |= 1 << uint(i) // still at pre-flip level → flip is later → bit 1
		}
		level = (2*d.M + 3) - level
	}
	return x
}

// classify rounds an estimate to the nearer of the two levels m and m+3.
func classify(est float64, m int64) int64 {
	if math.Abs(est-float64(m)) <= math.Abs(est-float64(m+3)) {
		return m
	}
	return m + 3
}

// InfoBound returns the information-theoretic space bound of theorem 4.1 in
// bits: log2 C(n, r) ≥ r·log2(n/r).
func (d DetFamily) InfoBound() float64 {
	return LogChoose2(d.N, int64(d.R))
}

// LogChoose2 returns log2 of the binomial coefficient C(n, r) computed via
// lgamma, the family-size measure in theorem 4.1.
func LogChoose2(n, r int64) float64 {
	if r < 0 || r > n {
		return math.Inf(-1)
	}
	ln, _ := math.Lgamma(float64(n + 1))
	lr, _ := math.Lgamma(float64(r + 1))
	lnr, _ := math.Lgamma(float64(n - r + 1))
	return (ln - lr - lnr) / math.Ln2
}
