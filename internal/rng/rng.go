// Package rng provides small, fast, deterministic pseudo-random number
// generators and the distributions the experiment harness needs.
//
// Everything in this repository that is random is seeded explicitly through
// this package so that every experiment, test, and benchmark is exactly
// reproducible. We deliberately do not use math/rand's global state.
//
// Hot paths that flip the same probability many times precompute it as a
// Coin: an integer threshold on the generator's top 53 bits that decides,
// and consumes the generator, exactly as Bernoulli does (see Threshold).
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 is the 64-bit SplitMix generator of Steele, Lea, and Flood.
// It is used both directly (for seeding) and as the state mixer of Xoshiro.
// The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro256 is the xoshiro256** generator of Blackman and Vigna.
// It has a period of 2^256−1 and passes all standard statistical batteries;
// it is the workhorse generator for simulations in this repository.
type Xoshiro256 struct {
	s [4]uint64
}

// New returns a Xoshiro256 generator deterministically seeded from seed via
// SplitMix64, per the authors' recommendation.
func New(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	// Guard against the all-zero state, which is a fixed point.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
	return &x
}

// Uint64 returns the next 64-bit value in the sequence. The state is
// loaded into locals and rotated with bits.RotateLeft64 so the whole step
// fits the compiler's inlining budget: callers on the per-update path pay
// no call.
func (x *Xoshiro256) Uint64() uint64 {
	s0, s1 := x.s[0], x.s[1]
	s2, s3 := x.s[2]^s0, x.s[3]^s1
	x.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(x.Uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (x *Xoshiro256) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with non-positive n")
	}
	return int64(x.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0. A power
// of two masks one output; any other n rejects outputs at or above the
// largest multiple of n that fits in 64 bits and reduces the first one
// below it modulo n, which costs two 64-bit divisions per call.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return x.Uint64() & (n - 1)
	}
	// Rejection sampling over the largest multiple of n that fits in 64 bits.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := x.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Bool returns a fair coin flip.
func (x *Xoshiro256) Bool() bool { return x.Uint64()&1 == 1 }

// Bernoulli returns true with probability p. Values of p outside [0,1] are
// clamped: p <= 0 always returns false and p >= 1 always returns true.
func (x *Xoshiro256) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return x.Float64() < p
}

// Threshold returns the integer form of a probability: t = ⌈p·2^53⌉,
// clamped to 0 for p ≤ 0 or NaN and to 2^53 for p ≥ 1. Float64() is
// y·2^−53 with y = Uint64()>>11, and y·2^−53 < p holds exactly when
// y < ⌈p·2^53⌉ (p·2^53 is exact for p < 1), so the draw
// Uint64()>>11 < Threshold(p) decides as Float64() < p on the same state.
func Threshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(math.Ldexp(p, 53)))
}

// Coin is a Bernoulli(p) decision precomputed for repeated flips: a flip
// decides, and consumes the generator, exactly as Bernoulli(p) does, but
// in integer arithmetic. Its zero value never succeeds and never draws.
type Coin struct {
	t    uint64 // a drawing flip succeeds when Uint64()>>11 < t
	draw bool   // false for p ≤ 0 and p ≥ 1, where Bernoulli draws nothing
}

// NewCoin precomputes Bernoulli(p). As in Bernoulli, p ≤ 0 never succeeds
// and p ≥ 1 always does without a draw, and a NaN p draws and fails.
func NewCoin(p float64) Coin {
	return Coin{t: Threshold(p), draw: !(p <= 0 || p >= 1)}
}

// Flip returns the coin's decision, drawing from x when Bernoulli(p) would.
func (x *Xoshiro256) Flip(c Coin) bool {
	if c.draw {
		return x.Uint64()>>11 < c.t
	}
	return c.t != 0
}

// PlusMinusOne returns +1 with probability p and −1 otherwise. It is the
// update distribution of the paper's biased-walk input class (Thm 2.4 uses
// p = (1+μ)/2).
func (x *Xoshiro256) PlusMinusOne(p float64) int64 {
	if x.Bernoulli(p) {
		return 1
	}
	return -1
}

// Perm returns a uniform random permutation of [0, n) as a slice.
func (x *Xoshiro256) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// State returns the generator's internal state, for checkpointing. A
// generator restored with SetState produces exactly the sequence the
// original would have produced from this point on.
func (x *Xoshiro256) State() [4]uint64 { return x.s }

// SetState overwrites the generator's internal state with a value obtained
// from State. The all-zero state (a fixed point of the recurrence) is
// replaced with the same guard constant New uses.
func (x *Xoshiro256) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9e3779b97f4a7c15
	}
	x.s = s
}

// Fork returns a new generator whose stream is statistically independent of
// the receiver's, derived from the receiver's state and the given label.
// Use it to give each site or trial its own generator without correlation.
func (x *Xoshiro256) Fork(label uint64) *Xoshiro256 {
	return New(x.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}
