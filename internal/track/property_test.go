package track

import (
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/stream"
)

// Property tests: the deterministic guarantee is independent of how the
// adversary spreads updates over sites and of the stream's shape. These
// complement the fixed-scenario tests in track_test.go with randomized
// coverage via testing/quick.

// assigners enumerates the assignment policies under test.
func assigners(k int, seed uint64) []stream.Assigner {
	return []stream.Assigner{
		stream.NewRoundRobin(k),
		stream.NewUniformRandom(k, seed),
		stream.NewSkewed(k, 1.2, seed+1),
		stream.NewSingle(k),
	}
}

func TestDeterministicInvariantUnderAnyAssignment(t *testing.T) {
	f := func(seed uint64, kRaw uint8, epsRaw uint8) bool {
		k := int(kRaw%12) + 1
		eps := 0.02 + float64(epsRaw%25)/100 // in [0.02, 0.26]
		for _, a := range assigners(k, seed) {
			coord, sites := NewDeterministic(k, eps)
			res := Run("prop", stream.NewAssign(stream.RandomWalk(4000, seed), a), coord, sites, eps)
			if res.Violations != 0 {
				t.Logf("violation: k=%d eps=%v assigner=%T seed=%d maxerr=%v",
					k, eps, a, seed, res.MaxRelErr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicInvariantUnderBiasedStreams(t *testing.T) {
	f := func(seed uint64, muRaw int8) bool {
		mu := float64(muRaw) / 128 // in (−1, 1)
		k, eps := 5, 0.1
		coord, sites := NewDeterministic(k, eps)
		res := Run("prop", assign(stream.BiasedWalk(4000, mu, seed), k), coord, sites, eps)
		return res.Violations == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleSiteInvariantProperty(t *testing.T) {
	f := func(seed uint64, epsRaw uint8) bool {
		eps := 0.05 + float64(epsRaw%40)/100
		coord, sites := NewSingleSite(eps)
		res := Run("prop", assign(stream.RandomWalk(3000, seed), 1), coord, sites, eps)
		return res.Violations == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockBoundariesAlwaysExact(t *testing.T) {
	// At every completed block boundary the coordinator knows f(n_j)
	// exactly; verify across random streams against the boundary value
	// each block broadcast carries.
	f := func(seed uint64) bool {
		k, eps := 4, 0.2
		coord, sites := NewDeterministic(k, eps)
		sim := dist.NewSim(coord, sites)
		broadcasts := recordNewBlocks(sim)
		var fexact int64
		for _, u := range stream.Collect(assign(stream.BiasedWalk(6000, 0.25, seed), k)) {
			seen := len(*broadcasts)
			sim.Step(u)
			fexact += u.Delta
			if len(*broadcasts) > seen && (*broadcasts)[len(*broadcasts)-1].B != fexact {
				return false
			}
		}
		return len(*broadcasts) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedEstimateUnbiasedAcrossSeeds(t *testing.T) {
	// Average the randomized tracker's final-estimate error over many
	// seeds: the A± estimators are unbiased, so the mean signed error
	// should be near zero relative to the final value.
	k, eps := 16, 0.1
	const trials = 40
	var sum float64
	var fv int64
	for s := uint64(0); s < trials; s++ {
		coord, sites := NewRandomized(k, eps, s+1000)
		res := Run("bias", assign(stream.BiasedWalk(20000, 0.4, 77), k), coord, sites, eps)
		sum += float64(res.FinalEst - res.FinalF)
		fv = res.FinalF
	}
	mean := sum / trials
	if mean > 0.02*float64(fv) || mean < -0.02*float64(fv) {
		t.Fatalf("mean signed error %v suggests bias (final f %d)", mean, fv)
	}
}
