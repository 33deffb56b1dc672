package track

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
)

// assign wraps a generator with round-robin site assignment.
func assign(st stream.Stream, k int) stream.Stream {
	return stream.NewAssign(st, stream.NewRoundRobin(k))
}

func TestBlockExponent(t *testing.T) {
	k := 10
	cases := []struct {
		f    int64
		want int64
	}{
		{0, 0}, {1, 0}, {39, 0}, {-39, 0}, // |f| < 4k → r = 0
		{40, 1}, {79, 1}, // 2^1·2k = 40 ≤ |f| < 2^1·4k = 80
		{80, 2}, {159, 2}, // 2^2·2k = 80 ≤ |f| < 160
		{160, 3}, {-160, 3},
		{1 << 20, 15}, // 2^r·2k ≤ 2^20 < 2^r·4k → r = floor(log2(2^20/20)) = 15
	}
	for _, c := range cases {
		if got := blockExponent(c.f, k); got != c.want {
			t.Errorf("blockExponent(%d, %d) = %d, want %d", c.f, k, got, c.want)
		}
	}
	// The paper's invariant: for r ≥ 1, 2^r·2k ≤ |f| < 2^r·4k.
	for f := int64(1); f < 100000; f += 7 {
		r := blockExponent(f, k)
		if r == 0 {
			if f >= int64(4*k) {
				t.Fatalf("f=%d got r=0 but |f| ≥ 4k", f)
			}
			continue
		}
		lo := (int64(1) << uint(r)) * 2 * int64(k)
		hi := (int64(1) << uint(r)) * 4 * int64(k)
		if f < lo || f >= hi {
			t.Fatalf("f=%d r=%d violates 2^r·2k ≤ f < 2^r·4k [%d,%d)", f, r, lo, hi)
		}
	}
	// Near 2^63 the bounds overflow int64; check them in uint64.
	for _, f := range []int64{math.MaxInt64, math.MinInt64 + 1, 1 << 62} {
		r := blockExponent(f, k)
		af := uint64(f)
		if f < 0 {
			af = uint64(-f)
		}
		lo := (uint64(1) << uint(r)) * 2 * uint64(k)
		hi := (uint64(1) << uint(r)) * 4 * uint64(k)
		if r < 1 || af < lo || af >= hi {
			t.Fatalf("f=%d r=%d violates 2^r·2k ≤ |f| < 2^r·4k [%d,%d)", f, r, lo, hi)
		}
	}
}

func TestCeilPow2Half(t *testing.T) {
	cases := map[int64]int64{0: 1, 1: 1, 2: 2, 3: 4, 10: 512}
	for r, want := range cases {
		if got := ceilPow2Half(r); got != want {
			t.Errorf("ceilPow2Half(%d) = %d, want %d", r, got, want)
		}
	}
}

func TestEpsThresholdFloor(t *testing.T) {
	if got := epsThreshold(0.1, 0); got != 1 {
		t.Fatalf("epsThreshold(0.1, 0) = %v, want 1 (floor)", got)
	}
	if got := epsThreshold(0.1, 10); math.Abs(got-102.4) > 1e-9 {
		t.Fatalf("epsThreshold(0.1, 10) = %v, want 102.4", got)
	}
}

// scaleExponents are the block exponents the power-of-two scale tests
// sweep: every r in [−1100, 1100], past both ends of the float64 exponent
// range, plus shift-hostile values.
func scaleExponents() []int64 {
	rs := []int64{63, 64, 1 << 62, -1 << 62}
	for r := int64(-1100); r <= 1100; r++ {
		rs = append(rs, r)
	}
	return rs
}

// TestScalesMatchPow pins the Ldexp forms of the in-block scales to the
// math.Pow(2, r) forms they replace, bit for bit: the sampling
// probability of the randomized tracker and the deterministic threshold.
func TestScalesMatchPow(t *testing.T) {
	powSampleProb := func(eps float64, r int64, k int) float64 {
		if r == 0 {
			return 1
		}
		p := 3 / (eps * math.Pow(2, float64(r)) * math.Sqrt(float64(k)))
		if p > 1 {
			return 1
		}
		return p
	}
	powEpsThreshold := func(eps float64, r int64) float64 {
		t := eps * math.Pow(2, float64(r))
		if t < 1 {
			return 1
		}
		return t
	}
	for _, r := range scaleExponents() {
		for _, eps := range []float64{1e-9, 0.001, 0.05, 0.1, 1.0 / 3, 0.999999} {
			if got, want := epsThreshold(eps, r), powEpsThreshold(eps, r); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("epsThreshold(%g, %d) = %v, math.Pow form %v", eps, r, got, want)
			}
			for _, k := range []int{1, 2, 3, 8, 64, 1000, 1 << 20} {
				got, want := SampleProb(eps, r, math.Sqrt(float64(k))), powSampleProb(eps, r, k)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("SampleProb(%g, %d, √%d) = %v, math.Pow form %v", eps, r, k, got, want)
				}
			}
		}
	}
}

// TestDeterministicInvariantEverywhere is the central §3.3 correctness test:
// the deterministic tracker must satisfy |f−f̂| ≤ ε·|f| at every timestep on
// every stream class.
func TestDeterministicInvariantEverywhere(t *testing.T) {
	for _, k := range []int{1, 3, 10} {
		for _, eps := range []float64{0.3, 0.1, 0.05} {
			for _, c := range stream.Classes() {
				coord, sites := NewDeterministic(k, eps)
				res := Run(c.Name, assign(c.Make(20000, 42), k), coord, sites, eps)
				if res.Violations != 0 {
					t.Errorf("k=%d eps=%g %s: %d violations (maxerr %v)",
						k, eps, c.Name, res.Violations, res.MaxRelErr)
				}
			}
		}
	}
}

func TestDeterministicMessageBound(t *testing.T) {
	// Total messages ≤ partition (25kv+3k) + in-block (5kv/ε) with the
	// paper's constants; we verify against a 1× bound since all constants
	// in the analysis are worst-case.
	for _, k := range []int{2, 8} {
		for _, eps := range []float64{0.2, 0.05} {
			for _, c := range stream.Classes() {
				coord, sites := NewDeterministic(k, eps)
				res := Run(c.Name, assign(c.Make(30000, 7), k), coord, sites, eps)
				bound := 25*float64(k)*res.V + 3*float64(k) + 5*float64(k)*res.V/eps + float64(3*k)
				if float64(res.Stats.Total()) > bound {
					t.Errorf("k=%d eps=%g %s: msgs %d exceed bound %v (v=%v)",
						k, eps, c.Name, res.Stats.Total(), bound, res.V)
				}
			}
		}
	}
}

func TestDeterministicMonotoneExactAtBoundaries(t *testing.T) {
	// On any stream the estimate must be exact at block boundaries
	// (f(n_j) is known exactly there).
	k, eps := 4, 0.1
	coord, sites := NewDeterministic(k, eps)
	bc := coord.(*BlockCoord)
	res := Run("walk", assign(stream.RandomWalk(10000, 3), k), coord, sites, eps)
	if res.Blocks < 5 {
		t.Fatalf("too few blocks to test: %d", res.Blocks)
	}
	_ = bc
}

// TestPartitionBlockVariability checks the §3.1 fact that the variability
// gain per completed block is at least a constant. The paper states ≥ 1/5;
// the proven constant from |B_j| ≥ ⌈2^{r−1}⌉·k and |f| ≤ 2^r·5k is ≥ 1/10
// for r ≥ 1 blocks (and 1/5 for r = 0), so we assert 1/10 on all interior
// blocks.
func TestPartitionBlockVariability(t *testing.T) {
	k, eps := 5, 0.1
	for _, c := range stream.Classes() {
		coord, sites := NewDeterministic(k, eps)
		res := Run(c.Name, assign(c.Make(50000, 11), k), coord, sites, eps)
		prev := 0.0
		for j, v := range res.BlockV {
			dv := v - prev
			prev = v
			if dv < 1.0/10-1e-9 {
				t.Errorf("%s: block %d has Δv = %v < 1/10", c.Name, j, dv)
			}
		}
	}
}

// TestPartitionBlockMessages checks the §3.1 fact that each block costs at
// most 5k partition messages plus the in-block estimator's messages; for
// the deterministic estimator the per-block total is ≤ 5k + 2k/ε.
func TestPartitionBlockMessages(t *testing.T) {
	k, eps := 5, 0.1
	for _, c := range stream.Classes() {
		coord, sites := NewDeterministic(k, eps)
		res := Run(c.Name, assign(c.Make(50000, 13), k), coord, sites, eps)
		perBlock := 5*float64(k) + 2*float64(k)/eps
		prev := int64(0)
		for j, m := range res.BlockMsgs {
			dm := m - prev
			prev = m
			if float64(dm) > perBlock {
				t.Errorf("%s: block %d used %d messages > bound %v", c.Name, j, dm, perBlock)
			}
		}
	}
}

// recordNewBlocks makes sim's Recorder keep one copy (site 0's) of every
// block broadcast: A is the new block's exponent r, B is f(n_j).
func recordNewBlocks(sim *dist.AsyncSim) *[]dist.Msg {
	var blocks []dist.Msg
	sim.Recorder = func(e dist.TranscriptEntry) {
		if e.Msg.Kind == dist.KindNewBlock && e.To == 0 {
			blocks = append(blocks, e.Msg)
		}
	}
	return &blocks
}

// TestBlockLengthFacts verifies the paper's algebra: with exponent r, block
// length is between ⌈2^{r−1}⌉·k and 2^r·k updates. Boundaries and their
// exponents are read from the block broadcasts.
func TestBlockLengthFacts(t *testing.T) {
	k, eps := 4, 0.1
	coord, sites := NewDeterministic(k, eps)
	sim := dist.NewSim(coord, sites)
	broadcasts := recordNewBlocks(sim)
	type block struct{ length, r int64 }
	var blocks []block
	r, start := int64(0), int64(0) // block 0 runs at r = 0
	for i, u := range stream.Collect(assign(stream.BiasedWalk(40000, 0.3, 17), k)) {
		seen := len(*broadcasts)
		sim.Step(u)
		if len(*broadcasts) > seen {
			end := int64(i + 1)
			blocks = append(blocks, block{end - start, r})
			start, r = end, (*broadcasts)[len(*broadcasts)-1].A
		}
	}
	if len(blocks) < 3 {
		t.Fatalf("too few blocks: %d", len(blocks))
	}
	for j, b := range blocks {
		lo := ceilPow2Half(b.r) * int64(k)
		hi := (int64(1) << uint(b.r)) * int64(k)
		if b.length < lo || b.length > hi {
			t.Errorf("block %d (r=%d): length %d outside [%d, %d]", j, b.r, b.length, lo, hi)
		}
	}
}

func TestRandomizedGuarantee(t *testing.T) {
	// P(|f−f̂| ≤ ε|f|) ≥ 2/3 per step; empirically the violation fraction
	// should be well under 1/3.
	for _, k := range []int{4, 16} {
		for _, eps := range []float64{0.2, 0.1} {
			for _, c := range stream.Classes() {
				coord, sites := NewRandomized(k, eps, 99)
				res := Run(c.Name, assign(c.Make(20000, 5), k), coord, sites, eps)
				if frac := res.ViolationFrac(); frac > 1.0/3 {
					t.Errorf("k=%d eps=%g %s: violation fraction %v > 1/3", k, eps, c.Name, frac)
				}
			}
		}
	}
}

func TestRandomizedCheaperThanDeterministicForSmallEps(t *testing.T) {
	// The randomized tracker's advantage is the √k/ε versus k/ε in-block
	// factor. It shows up when blocks run at high exponent r (large |f|
	// relative to k), so drive f high with a drifted walk.
	k, eps := 64, 0.02
	st1 := assign(stream.BiasedWalk(200000, 0.5, 21), k)
	coordD, sitesD := NewDeterministic(k, eps)
	det := Run("det", st1, coordD, sitesD, eps)

	st2 := assign(stream.BiasedWalk(200000, 0.5, 21), k)
	coordR, sitesR := NewRandomized(k, eps, 22)
	rnd := Run("rand", st2, coordR, sitesR, eps)

	if rnd.Stats.Total() >= det.Stats.Total() {
		t.Errorf("randomized (%d msgs) not cheaper than deterministic (%d msgs)",
			rnd.Stats.Total(), det.Stats.Total())
	}
}

func TestNaiveIsExact(t *testing.T) {
	k := 3
	coord, sites := NewNaive(k)
	res := Run("naive", assign(stream.RandomWalk(5000, 2), k), coord, sites, 0.001)
	if res.MaxRelErr != 0 || res.Violations != 0 {
		t.Fatalf("naive tracker not exact: %+v", res)
	}
	if res.Stats.SiteToCoord != 5000 {
		t.Fatalf("naive messages = %d", res.Stats.SiteToCoord)
	}
}

func TestCMYMonotoneGuarantee(t *testing.T) {
	for _, k := range []int{1, 5, 20} {
		for _, eps := range []float64{0.3, 0.1, 0.02} {
			coord, sites := NewCMY(k, eps)
			res := Run("cmy", assign(stream.Monotone(30000), k), coord, sites, eps)
			if res.Violations != 0 {
				t.Errorf("k=%d eps=%g: CMY violations %d (maxerr %v)", k, eps, res.Violations, res.MaxRelErr)
			}
			// O((k/ε)·log n) with the (1+ε)-doubling constant:
			// each site sends ≤ 1 + log_{1+ε}(n) messages.
			perSite := 1 + math.Log(float64(res.Steps))/math.Log(1+eps)
			if float64(res.Stats.Total()) > float64(k)*perSite+float64(k) {
				t.Errorf("k=%d eps=%g: CMY msgs %d exceed bound %v", k, eps, res.Stats.Total(), float64(k)*perSite)
			}
		}
	}
}

func TestCMYPanicsOnDeletion(t *testing.T) {
	coord, sites := NewCMY(2, 0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("CMY accepted a deletion")
		}
	}()
	Run("cmy", assign(stream.Flip(10), 2), coord, sites, 0.1)
}

func TestHYZMonotoneGuarantee(t *testing.T) {
	k, n := 16, 40000
	for _, eps := range []float64{0.2, 0.1} {
		coord, sites := NewHYZ(k, eps, 7)
		res := Run("hyz", assign(stream.Monotone(int64(n)), k), coord, sites, eps)
		if frac := res.ViolationFrac(); frac > 1.0/3 {
			t.Errorf("eps=%g: HYZ violation fraction %v", eps, frac)
		}
	}
}

func TestLRVTracksRandomWalkCheaply(t *testing.T) {
	k, eps, n := 16, 0.1, 50000
	coord, sites := NewLRV(k, eps, 3)
	res := Run("lrv", assign(stream.RandomWalk(int64(n), 9), k), coord, sites, eps)
	if res.Stats.Total() >= int64(n) {
		t.Errorf("LRV used %d messages on n=%d stream", res.Stats.Total(), n)
	}
	// LRV has no worst-case guarantee; just sanity-check it is not wildly
	// wrong away from zero: final estimate within 2ε of final value when
	// |f| is large.
	if absI64(res.FinalF) > 500 {
		diff := absI64(res.FinalF - res.FinalEst)
		if float64(diff) > 2*eps*float64(absI64(res.FinalF)) {
			t.Errorf("LRV final estimate %d far from %d", res.FinalEst, res.FinalF)
		}
	}
}

func TestSingleSiteInvariantAndCost(t *testing.T) {
	for _, eps := range []float64{0.3, 0.1, 0.02} {
		coord, sites := NewSingleSite(eps)
		res := Run("single", assign(stream.RandomWalk(30000, 4), 1), coord, sites, eps)
		if res.Violations != 0 {
			t.Errorf("eps=%g: single-site violations %d", eps, res.Violations)
		}
		// Appendix I: messages ≤ (1+ε)/ε·v + zero/sign-crossing steps.
		// Count those steps exactly.
		st := stream.RandomWalk(30000, 4)
		var f int64
		var crossings int64
		prevSign := int64(0)
		for {
			u, ok := st.Next()
			if !ok {
				break
			}
			f += u.Delta
			s := sign(f)
			if f == 0 || (prevSign != 0 && s != 0 && s != prevSign) {
				crossings++
			}
			if s != 0 {
				prevSign = s
			}
		}
		bound := (1+eps)/eps*res.V + float64(crossings) + 1
		if float64(res.Stats.Total()) > bound {
			t.Errorf("eps=%g: single-site msgs %d exceed bound %v (v=%v, crossings=%d)",
				eps, res.Stats.Total(), bound, res.V, crossings)
		}
	}
}

func TestSingleSiteZeroCrossingStream(t *testing.T) {
	eps := 0.1
	coord, sites := NewSingleSite(eps)
	res := Run("single-zc", assign(stream.ZeroCrossing(4000, 25), 1), coord, sites, eps)
	if res.Violations != 0 {
		t.Fatalf("violations on zero-crossing stream: %d (maxerr %v)", res.Violations, res.MaxRelErr)
	}
}

func TestSplitBulkFeedsTrackers(t *testing.T) {
	// Appendix C: a bulk-update stream split into ±1 updates is tracked
	// with the usual guarantee.
	k, eps := 4, 0.1
	st := stream.NewAssign(stream.NewSplitBulk(stream.BulkWalk(3000, 15, 6)), stream.NewRoundRobin(k))
	coord, sites := NewDeterministic(k, eps)
	res := Run("split", st, coord, sites, eps)
	if res.Violations != 0 {
		t.Fatalf("violations on split bulk stream: %d", res.Violations)
	}
	if res.Steps <= 3000 {
		t.Fatalf("split stream should have more steps than bulk stream: %d", res.Steps)
	}
}

func TestBuildersConstructAll(t *testing.T) {
	for name, b := range Builders() {
		coord, sites := b(4, 0.1, 1)
		if coord == nil || len(sites) != 4 {
			t.Fatalf("builder %s returned coord=%v sites=%d", name, coord, len(sites))
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"det-k":      func() { NewDeterministic(0, 0.1) },
		"det-eps":    func() { NewDeterministic(1, 0) },
		"det-eps2":   func() { NewDeterministic(1, 1) },
		"rand-k":     func() { NewRandomized(0, 0.1, 1) },
		"rand-eps":   func() { NewRandomized(1, -1, 1) },
		"naive-k":    func() { NewNaive(0) },
		"cmy-k":      func() { NewCMY(0, 0.1) },
		"cmy-eps":    func() { NewCMY(1, 2) },
		"hyz-k":      func() { NewHYZ(0, 0.1, 1) },
		"lrv-k":      func() { NewLRV(0, 0.1, 1) },
		"single-eps": func() { NewSingleSite(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func sign(x int64) int64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}
