package core

import "math"

// This file contains the closed-form variability bounds proved in section 2
// and appendices A-C of the paper. The experiment harness prints these next
// to measured values; tests check that measured variability respects them.

// MonotoneBound is the theorem 2.1 bound with β = 1, specialized as in the
// abstract: for a strictly monotone stream reaching f(n),
// v(n) = O(log f(n)). The proof's constant is 4(1+β)(1+log(2(1+β)f));
// with β = 1 this is 8·(1 + log2(4·f)).
func MonotoneBound(fn int64) float64 {
	if fn <= 0 {
		return 1
	}
	return 8 * (1 + math.Log2(4*float64(fn)))
}

// NearlyMonotoneBound is the theorem 2.1 bound: if f−(n) ≤ β·f(n) for all
// n ≥ t0, then v(n) ≤ 4(1+β)(1+log(2(1+β)·f(n))) + O(1). Logarithms are
// base 2 as in the doubling argument of appendix A.
func NearlyMonotoneBound(beta float64, fn int64) float64 {
	if beta < 1 {
		beta = 1
	}
	if fn <= 0 {
		return 1
	}
	return 4 * (1 + beta) * (1 + math.Log2(2*(1+beta)*float64(fn)))
}

// RandomWalkBoundExact is the theorem 2.2 bound for a symmetric ±1 random
// walk, E[v(n)] = O(√n·log n), in the proof's intermediate form: it
// evaluates Σ_{t=1..n} c1·(1 + 2·H_t)/√t with the local-CLT constant
// c1 = 1 (P(f(t)=s) ≤ c1/√t; for the lazy-free ±1 walk c1 ≈ 0.8 suffices,
// so 1 is safe). This is the sharpest form the paper's proof yields.
func RandomWalkBoundExact(n int64) float64 {
	sum := 0.0
	h := 0.0
	for t := int64(1); t <= n; t++ {
		h += 1 / float64(t)
		sum += (1 + 2*h) / math.Sqrt(float64(t))
	}
	return sum
}

// BiasedWalkBound is the theorem 2.4 bound: for i.i.d. ±1 updates with
// P(+1) = (1+mu)/2, mu > 0, E[v(n)] = O(log(n)/mu). The proof's constant is
// t0 = (16/mu)·ln(17n/mu) plus lower-order terms; we expose that dominant
// term plus the harmonic tail 2/mu·(H_n − H_t0) ≤ (2/mu)·ln n.
func BiasedWalkBound(n int64, mu float64) float64 {
	if mu <= 0 || n <= 1 {
		return math.Inf(1)
	}
	nf := float64(n)
	t0 := (16 / mu) * math.Log(17*nf/mu)
	return t0 + 1 + (2/mu)*math.Log(nf)
}

// SplitCostPositive is the appendix C overhead bound for simulating a bulk
// update f'(n) = d > 1 at value f(n) = f by d unit increments:
// Σ_{t=1..d} 1/(f−d+t) ≤ (d/f)(1 + H(d)). It returns that bound.
func SplitCostPositive(d, f int64) float64 {
	if d <= 0 || f <= 0 {
		return math.Inf(1)
	}
	return float64(d) / float64(f) * (1 + Harmonic(d))
}

// SplitCostNegative is the appendix C bound for a bulk decrement
// f'(n) = −d < −1 landing at f(n) = f ≥ 1: the simulated variability is at
// most 3d/f (and one extra unit if the walk touches zero).
func SplitCostNegative(d, f int64) float64 {
	if d <= 0 {
		return math.Inf(1)
	}
	if f <= 0 {
		return 3*float64(d) + 1
	}
	return 3 * float64(d) / float64(f)
}

// Harmonic returns the x-th harmonic number H(x) = Σ_{i=1..x} 1/i.
// For x > 10^6 it switches to the asymptotic expansion
// ln x + γ + 1/(2x), which is accurate to ~1e-13 there.
func Harmonic(x int64) float64 {
	if x <= 0 {
		return 0
	}
	if x <= 1_000_000 {
		sum := 0.0
		for i := int64(1); i <= x; i++ {
			sum += 1 / float64(i)
		}
		return sum
	}
	const gamma = 0.5772156649015329
	xf := float64(x)
	return math.Log(xf) + gamma + 1/(2*xf)
}
