package track

import (
	"math"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/stream"
)

// This file implements the randomized in-block tracker of §3.4. Each site
// runs two copies A+ and A− of the Huang-Yi-Zhang estimator (their lemma
// 2.1, restated as fact 3.1): a +1 update feeds A+, a −1 update feeds A−, so
// both copies see monotone +1 streams. For each copy:
//
//	Condition: true with probability p = min{1, 3/(ε·2^r·√k)}.
//	Message:   the new value of d_i^±.
//	Update:    d̂_i^± = d_i^± − 1 + 1/p.
//
// The coordinator estimates d̂ = d̂+ − d̂− and f̂(n) = f(n_j) + d̂(n), giving
// P(|f − f̂| > ε|f|) < 1/3 at every timestep and O((k + √k/ε)·v) expected
// messages.
//
// One deliberate choice: in r = 0 blocks we force p = 1, making those blocks
// exact. The guarantee ε·|f| is unattainable probabilistically near f = 0
// (any error violates it), and the cost — at most one message per update for
// the ≤ k updates of an r = 0 block — is already charged by the paper's
// O(k·v) partition term.

// randSite is the site half of the randomized tracker.
type randSite struct {
	id    int32   //varlint:volatile construction-time identity; the restore target is built with the same id
	eps   float64 //varlint:volatile construction-time config; only the derived p is live state
	sqrtK float64 //varlint:volatile construction-time config; only the derived p is live state
	src   *rng.Xoshiro256

	p    float64
	coin rng.Coin //varlint:volatile derived from p in Reset and when Snap decodes
	// d holds d_i^+ and d_i^−, the counts of +1 and −1 updates this
	// block: copy 0 is A+, copy 1 is A−.
	d [2]int64
}

// SampleProb returns p = min{1, 3/(ε·2^r·√k)}, with the r = 0 exactness
// override described above; sqrtK is √k. The frequency trackers' sampled
// variants (internal/freq) draw with the same probability.
func SampleProb(eps float64, r int64, sqrtK float64) float64 {
	if r == 0 {
		return 1
	}
	p := 3 / (eps * math.Ldexp(1, int(r)) * sqrtK)
	if p > 1 {
		return 1
	}
	return p
}

// Reset implements InBlockSite.
func (s *randSite) Reset(r int64, out dist.Outbox) {
	s.p = SampleProb(s.eps, r, s.sqrtK)
	s.coin = rng.NewCoin(s.p)
	s.d = [2]int64{}
}

// OnUpdate implements InBlockSite.
func (s *randSite) OnUpdate(u stream.Update, out dist.Outbox) {
	// c picks the copy, 0 (A+) for Δ > 0 and 1 (A−) otherwise, which the
	// compiler sets with a flag, not a branch; the report's B = 1 − 2c is
	// +1 for A+ and −1 for A−.
	var c int64
	if u.Delta <= 0 {
		c = 1
	}
	s.d[c]++
	if s.src.Flip(s.coin) {
		out.Send(dist.Msg{Kind: dist.KindDriftReport, Site: s.id, A: s.d[c], B: 1 - 2*c})
	}
}

// OnRejoin implements InBlockRejoiner: re-send both estimator copies'
// exact counts. B = ±2 marks the reports as exact resyncs — unlike sampled
// reports they carry no 1/p debias (see randCoord.OnMessage) — so a healed
// link restores the coordinator's copies to the truth rather than to a
// debiased sample.
func (s *randSite) OnRejoin(out dist.Outbox) {
	out.Send(dist.Msg{Kind: dist.KindDriftReport, Site: s.id, A: s.d[0], B: 2})
	out.Send(dist.Msg{Kind: dist.KindDriftReport, Site: s.id, A: s.d[1], B: -2})
}

// randCoord is the coordinator half of the randomized tracker. As in
// detCoord, the per-site estimates are dense slices indexed by site id.
type randCoord struct {
	sqrtK float64 //varlint:volatile construction-time config; only the derived p is live state
	eps   float64 //varlint:volatile construction-time config; only the derived p is live state

	p     float64
	invP  float64   //varlint:volatile 1/p, derived in Reset and when Snap decodes
	dplus []float64 // d̂_i^+ indexed by site id
	dmin  []float64 // d̂_i^− indexed by site id
	sum   float64   // Σ_i (d̂_i^+ − d̂_i^−), maintained incrementally
}

// Reset implements InBlockCoord.
func (c *randCoord) Reset(r int64) {
	c.p = SampleProb(c.eps, r, c.sqrtK)
	c.invP = 1 / c.p
	clear(c.dplus)
	clear(c.dmin)
	c.sum = 0
}

// OnMessage implements InBlockCoord.
func (c *randCoord) OnMessage(m dist.Msg) {
	if m.Kind != dist.KindDriftReport {
		return
	}
	est := float64(m.A) - 1 + c.invP
	if m.B == 2 || m.B == -2 {
		// Exact resync report (randSite.OnRejoin): the count itself, no
		// sampling debias.
		est = float64(m.A)
	}
	if m.B > 0 {
		c.sum += est - c.dplus[m.Site]
		c.dplus[m.Site] = est
	} else {
		c.sum -= est - c.dmin[m.Site]
		c.dmin[m.Site] = est
	}
}

// Drift implements InBlockCoord.
func (c *randCoord) Drift() int64 { return int64(math.RoundToEven(c.sum)) }

// NewRandomized builds the randomized variability tracker of §3.4 for k
// sites and error parameter eps, seeded deterministically from seed. The
// returned algorithms guarantee P(|f(n) − f̂(n)| ≤ ε·|f(n)|) ≥ 2/3 at every
// timestep.
func NewRandomized(k int, eps float64, seed uint64) (dist.CoordAlgo, []dist.SiteAlgo) {
	if k <= 0 {
		panic("track: NewRandomized needs k > 0")
	}
	if !(eps > 0 && eps < 1) {
		panic("track: NewRandomized needs 0 < eps < 1")
	}
	root := rng.New(seed)
	sqrtK := math.Sqrt(float64(k))
	coord := NewBlockCoord(k, &randCoord{
		sqrtK: sqrtK, eps: eps,
		dplus: make([]float64, k),
		dmin:  make([]float64, k),
	})
	sites := make([]dist.SiteAlgo, k)
	for i := 0; i < k; i++ {
		sites[i] = NewBlockSite(i, &randSite{
			id:    int32(i),
			eps:   eps,
			sqrtK: sqrtK,
			src:   root.Fork(uint64(i)),
		})
	}
	return coord, sites
}
