package rng

import (
	"math"
	"testing"
)

// coinRows are the probabilities the coin must agree with Bernoulli on:
// both clamps and their signed zero, the smallest subnormal, a tiny
// normal, fractions with and without an exact 53-bit form, the largest
// float below 1, values past 1 and NaN.
var coinRows = []float64{
	math.Copysign(0, -1), 0, 5e-324, 1e-300, 0.25, math.Nextafter(0.25, 1), 1.0 / 3,
	1 - 0x1p-53, 1, 1.5, math.Inf(1), math.Inf(-1), -0.5, math.NaN(),
}

// checkCoin flips NewCoin(p) and Bernoulli(p) n times on twin generators
// seeded with seed: every decision and every generator state must match,
// and the threshold must split the 53-bit draws exactly where Float64()
// crosses p.
func checkCoin(t *testing.T, p float64, seed uint64, n int) {
	t.Helper()
	a, b := New(seed), New(seed)
	c := NewCoin(p)
	for i := 0; i < n; i++ {
		want := a.Bernoulli(p)
		if got := b.Flip(c); got != want {
			t.Fatalf("p=%v (bits %#x) seed %d flip %d: coin %v, Bernoulli %v", p, math.Float64bits(p), seed, i, got, want)
		}
		if a.State() != b.State() {
			t.Fatalf("p=%v (bits %#x) seed %d flip %d: coin and Bernoulli left different generator states", p, math.Float64bits(p), seed, i)
		}
	}
	// Draws at the threshold's edge: y = t−1 is the largest 53-bit draw
	// that succeeds, y = t the smallest that fails.
	const scale = 1.0 / (1 << 53)
	th := Threshold(p)
	if th > 1<<53 {
		t.Fatalf("Threshold(%v) = %d exceeds 2^53", p, th)
	}
	if th > 0 && !(float64(th-1)*scale < p) {
		t.Fatalf("Threshold(%v) = %d: draw %d fails Float64() < p", p, th, th-1)
	}
	if th < 1<<53 && float64(th)*scale < p {
		t.Fatalf("Threshold(%v) = %d: draw %d passes Float64() < p", p, th, th)
	}
}

func TestCoinMatchesBernoulli(t *testing.T) {
	for i, p := range coinRows {
		checkCoin(t, p, uint64(i), 10000)
	}
	src := New(12)
	for i := 0; i < 32; i++ {
		checkCoin(t, src.Float64(), uint64(100+i), 10000)
		checkCoin(t, math.Float64frombits(src.Uint64()), uint64(200+i), 10000)
	}
}

func FuzzCoin(f *testing.F) {
	for i, p := range coinRows {
		f.Add(math.Float64bits(p), uint64(i))
	}
	f.Fuzz(func(t *testing.T, pBits, seed uint64) {
		checkCoin(t, math.Float64frombits(pBits), seed, 256)
	})
}
