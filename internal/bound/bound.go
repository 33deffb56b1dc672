// Package bound collects the paper's upper and lower bounds as executable
// formulas, with the constants the proofs actually yield. The experiment
// harness prints these next to measured values, and tests assert that
// measured communication never exceeds the worst-case forms.
package bound

import "math"

// PartitionMessages is the §3.1 accounting: each completed block costs at
// most 5k messages (2k update batches + k requests + k replies + k
// broadcast), and the variability rises by at least 1/5 per block, giving
// ≤ 25·k·v + 3k messages overall (the 3k covers the final partial block).
func PartitionMessages(k int, v float64) float64 {
	return 25*float64(k)*v + 3*float64(k)
}

// BlocksUpperSafe bounds the number of completed blocks by 10·v + 1. §3.1
// states Δv ≥ 1/5 per block, which would give 5·v + 1; the provable
// per-block constant is 1/10 for r ≥ 1 blocks, so this is the fully safe
// form.
func BlocksUpperSafe(v float64) float64 { return 10*v + 1 }

// DetInBlockMessages is the §3.3 per-run in-block message bound: each block
// costs at most max(k, 2k/ε) drift reports, and there are at most 5v+1
// blocks, giving ≤ (5v+1)·2k/ε.
func DetInBlockMessages(k int, eps float64, v float64) float64 {
	return (5*v + 1) * 2 * float64(k) / eps
}

// DetMessages is the total deterministic bound of §3.3:
// partition + in-block = O((k/ε)·v).
func DetMessages(k int, eps float64, v float64) float64 {
	return PartitionMessages(k, v) + DetInBlockMessages(k, eps, v)
}

// RandInBlockMessagesExpected is the §3.4 expected in-block cost: each
// block Bj costs at most p·|Bj| ≤ 30·√k·v_j/ε in expectation, summing to
// 30·√k·v/ε (plus the r = 0 blocks our implementation reports exactly,
// charged at k per block — already inside the partition term's O(k·v)).
func RandInBlockMessagesExpected(k int, eps float64, v float64) float64 {
	return 30 * math.Sqrt(float64(k)) * v / eps
}

// RandMessagesExpected is the total randomized bound of §3.4:
// O((k + √k/ε)·v) in expectation.
func RandMessagesExpected(k int, eps float64, v float64) float64 {
	return PartitionMessages(k, v) + float64(k)*(5*v+1) + RandInBlockMessagesExpected(k, eps, v)
}

// CMYMessages is the monotone deterministic baseline bound: each site
// reports when its count grows by (1+ε), so ≤ k·(1 + log_{1+ε} n)
// messages — the O((k/ε)·log n) of Cormode et al.
func CMYMessages(k int, eps float64, n int64) float64 {
	if n <= 0 {
		return float64(k)
	}
	return float64(k) * (1 + math.Log(float64(n))/math.Log(1+eps))
}

// HYZMessagesExpected is the monotone randomized baseline's expected cost
// O((k + √k/ε)·log n): one round per doubling of the count, each round
// costing O(k) for the broadcast plus O(√k/ε) expected samples.
func HYZMessagesExpected(k int, eps float64, n int64) float64 {
	if n <= 1 {
		return float64(k)
	}
	rounds := math.Log2(float64(n)) + 1
	return rounds * (float64(k) + 3*math.Sqrt(float64(k))/eps)
}

// LRVFairCoinMessagesExpected restates Liu et al.'s fair-coin bound in
// variability form: O((√k/ε)·E[v(n)]) with E[v(n)] = O(√n·log n).
func LRVFairCoinMessagesExpected(k int, eps float64, n int64) float64 {
	nf := float64(n)
	return math.Sqrt(float64(k)) / eps * math.Sqrt(nf) * math.Log(nf+1)
}

// SingleSiteMessages is the appendix-I bound for k = 1 general aggregates:
// (1+ε)/ε·v plus one message per zero/sign-crossing step (z).
func SingleSiteMessages(eps float64, v float64, zeroCrossings int64) float64 {
	return (1+eps)/eps*v + float64(zeroCrossings) + 1
}

// FreqMessages is the appendix-H communication bound O((k/ε)·v): per block,
// ≤ 3k/ε in-block delta messages and ≤ 12k/ε end-of-block heavy reports,
// plus the partition's 5k; ≤ 5v+1 blocks. cellsPerItem multiplies the
// in-block term for sketched backends (an item update touches one counter
// per sketch row).
func FreqMessages(k int, eps float64, v float64, cellsPerItem int) float64 {
	perBlock := 5*float64(k) + float64(cellsPerItem)*15*float64(k)/eps
	return (5*v + 1) * perBlock
}

// DetSpaceLowerBoundBits is the theorem 4.1 space bound for the tracing
// problem: any deterministic ε-accurate summary over the hard family with
// r flips needs at least log2 C(n, r) ≥ r·log2(n/r) bits. Stated in terms
// of v = (6m+9)/(2m+6)·εr it is Ω((log n/ε)·v).
func DetSpaceLowerBoundBits(n int64, r int64) float64 {
	if r <= 0 || r >= n {
		return 0
	}
	return float64(r) * math.Log2(float64(n)/float64(r))
}

// RandSpaceLowerBoundBits is the theorem 4.2 bound: Ω(v/ε) bits, with the
// proof's constant log2(0.1·e^{v/(2·32400·ε)}).
func RandSpaceLowerBoundBits(eps float64, v float64) float64 {
	b := v/(2*32400*eps)*math.Log2E + math.Log2(0.1)
	if b < 0 {
		return 0
	}
	return b
}

// SplitOverheadFactor is the appendix C multiplicative overhead for
// simulating bulk updates of magnitude up to maxStep with unit updates:
// O(log maxStep), concretely 1 + H(maxStep) for increments and 3 for
// decrements; the returned factor is the max of the two.
func SplitOverheadFactor(maxStep int64) float64 {
	h := 0.0
	for i := int64(1); i <= maxStep; i++ {
		h += 1 / float64(i)
	}
	inc := 1 + h
	if inc < 3 {
		return 3
	}
	return inc
}
