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
	id  int32   //varlint:volatile construction-time identity; the restore target is built with the same id
	eps float64 //varlint:volatile construction-time config; only the derived p is live state
	k   int     //varlint:volatile construction-time config; only the derived p is live state
	src *rng.Xoshiro256

	p      float64
	dplus  int64 // d_i^+: count of +1 updates this block
	dminus int64 // d_i^−: count of −1 updates this block
}

// sampleProb returns p = min{1, 3/(ε·2^r·√k)}, with the r = 0 exactness
// override described above.
func sampleProb(eps float64, r int64, k int) float64 {
	if r == 0 {
		return 1
	}
	p := 3 / (eps * math.Pow(2, float64(r)) * math.Sqrt(float64(k)))
	if p > 1 {
		return 1
	}
	return p
}

// Reset implements InBlockSite.
func (s *randSite) Reset(r int64, out dist.Outbox) {
	s.p = sampleProb(s.eps, r, s.k)
	s.dplus = 0
	s.dminus = 0
}

// OnUpdate implements InBlockSite.
func (s *randSite) OnUpdate(u stream.Update, out dist.Outbox) {
	// B encodes which copy the report belongs to: +1 for A+, −1 for A−.
	if u.Delta > 0 {
		s.dplus++
		if s.src.Bernoulli(s.p) {
			out.Send(dist.Msg{Kind: dist.KindDriftReport, Site: s.id, A: s.dplus, B: 1})
		}
	} else {
		s.dminus++
		if s.src.Bernoulli(s.p) {
			out.Send(dist.Msg{Kind: dist.KindDriftReport, Site: s.id, A: s.dminus, B: -1})
		}
	}
}

// OnRejoin implements InBlockRejoiner: re-send both estimator copies'
// exact counts. B = ±2 marks the reports as exact resyncs — unlike sampled
// reports they carry no 1/p debias (see randCoord.OnMessage) — so a healed
// link restores the coordinator's copies to the truth rather than to a
// debiased sample.
func (s *randSite) OnRejoin(out dist.Outbox) {
	out.Send(dist.Msg{Kind: dist.KindDriftReport, Site: s.id, A: s.dplus, B: 2})
	out.Send(dist.Msg{Kind: dist.KindDriftReport, Site: s.id, A: s.dminus, B: -2})
}

// randCoord is the coordinator half of the randomized tracker. As in
// detCoord, the per-site estimates are dense slices indexed by site id.
type randCoord struct {
	k   int     //varlint:volatile construction-time config; only the derived p is live state
	eps float64 //varlint:volatile construction-time config; only the derived p is live state

	p     float64
	dplus []float64 // d̂_i^+ indexed by site id
	dmin  []float64 // d̂_i^− indexed by site id
	sum   float64   // Σ_i (d̂_i^+ − d̂_i^−), maintained incrementally
}

// Reset implements InBlockCoord.
func (c *randCoord) Reset(r int64) {
	c.p = sampleProb(c.eps, r, c.k)
	clear(c.dplus)
	clear(c.dmin)
	c.sum = 0
}

// OnMessage implements InBlockCoord.
func (c *randCoord) OnMessage(m dist.Msg) {
	if m.Kind != dist.KindDriftReport {
		return
	}
	est := float64(m.A) - 1 + 1/c.p
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
	coord := NewBlockCoord(k, &randCoord{
		k: k, eps: eps,
		dplus: make([]float64, k),
		dmin:  make([]float64, k),
	})
	sites := make([]dist.SiteAlgo, k)
	for i := 0; i < k; i++ {
		sites[i] = NewBlockSite(i, &randSite{
			id:  int32(i),
			eps: eps,
			k:   k,
			src: root.Fork(uint64(i)),
		})
	}
	return coord, sites
}
