package track

import (
	"repro/internal/dist"
	"repro/internal/stream"
)

// This file implements the deterministic in-block tracker of §3.3:
//
//	Condition: |δ_i| = 1 and r = 0, or |δ_i| ≥ ε·2^r.
//	Message:   the new value of d_i.
//	Update:    d̂_i = d_i.
//
// Combined with the partitioner it guarantees |f(n) − f̂(n)| ≤ ε·|f(n)| at
// every timestep and uses O((k/ε)·v(n)) messages in total.

// detSite is the site half of the deterministic tracker.
type detSite struct {
	id        int32   //varlint:volatile construction-time identity; the restore target is built with the same id
	eps       float64 //varlint:volatile construction-time config; only the derived threshold is live state
	threshold float64 // ε·2^r floored at 1
	di        int64   // drift this block
	delta     int64   // δ_i: change in d_i since last report
}

// Reset implements InBlockSite.
func (s *detSite) Reset(r int64, out dist.Outbox) {
	s.threshold = epsThreshold(s.eps, r)
	s.di = 0
	s.delta = 0
}

// OnUpdate implements InBlockSite.
func (s *detSite) OnUpdate(u stream.Update, out dist.Outbox) {
	s.di += u.Delta
	s.delta += u.Delta
	if abs := absI64(s.delta); float64(abs) >= s.threshold {
		out.Send(dist.Msg{Kind: dist.KindDriftReport, Site: s.id, A: s.di})
		s.delta = 0
	}
}

// Quiet implements InBlockQuietSite.
func (s *detSite) Quiet() int64 { return DriftBudget(s.threshold, s.delta) }

// DriftBudget is the quiet budget of a §3.3 drift condition that reports
// once |δ| reaches threshold: δ stays below it while |δ| is at most the
// largest integer below the threshold, and a run of updates moves |δ| by at
// most the sum of their |Δ|. A report resets δ, so |δ| is below the
// threshold between updates and the budget is never negative. A threshold
// past 2^62 (only a malformed exponent makes one) counts as 2^62, so the
// conversion cannot overflow.
func DriftBudget(threshold float64, delta int64) int64 {
	below := int64(1) << 62
	if threshold < float64(below) {
		below = int64(threshold)
		if float64(below) == threshold {
			below--
		}
	}
	return below - absI64(delta)
}

// Absorb implements InBlockQuietSite.
func (s *detSite) Absorb(n, sum int64) {
	s.di += sum
	s.delta += sum
}

// OnRejoin implements InBlockRejoiner: drift reports carry the absolute
// in-block drift d_i, so re-sending the current value heals whatever the
// outage swallowed — the coordinator overwrites d̂_i idempotently.
func (s *detSite) OnRejoin(out dist.Outbox) {
	out.Send(dist.Msg{Kind: dist.KindDriftReport, Site: s.id, A: s.di})
	s.delta = 0
}

// detCoord is the coordinator half of the deterministic tracker. The
// per-site d̂_i live in a dense slice — k is fixed at construction and site
// ids are the indices, so a message costs an array write, not a map probe.
type detCoord struct {
	dhat []int64 // d̂_i per site, indexed by site id
	sum  int64   // Σ d̂_i, maintained incrementally
}

// Reset implements InBlockCoord.
func (c *detCoord) Reset(r int64) {
	clear(c.dhat)
	c.sum = 0
}

// OnMessage implements InBlockCoord.
func (c *detCoord) OnMessage(m dist.Msg) {
	if m.Kind != dist.KindDriftReport {
		return
	}
	c.sum += m.A - c.dhat[m.Site]
	c.dhat[m.Site] = m.A
}

// Drift implements InBlockCoord.
func (c *detCoord) Drift() int64 { return c.sum }

// NewDeterministic builds the deterministic variability tracker of §3.3 for
// k sites and error parameter eps: the §3.1 partitioner around the
// threshold-δ estimator. The returned algorithms guarantee
// |f(n) − f̂(n)| ≤ ε·|f(n)| at every timestep.
func NewDeterministic(k int, eps float64) (dist.CoordAlgo, []dist.SiteAlgo) {
	return newDeterministic(k, eps)
}

func newDeterministic(k int, eps float64) (*BlockCoord, []dist.SiteAlgo) {
	if k <= 0 {
		panic("track: NewDeterministic needs k > 0")
	}
	if !(eps > 0 && eps < 1) {
		panic("track: NewDeterministic needs 0 < eps < 1")
	}
	coord := NewBlockCoord(k, &detCoord{dhat: make([]int64, k)})
	sites := make([]dist.SiteAlgo, k)
	for i := 0; i < k; i++ {
		sites[i] = NewBlockSite(i, &detSite{id: int32(i), eps: eps})
	}
	return coord, sites
}

func absI64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
