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

// Drift is the site side of the §3.3 drift condition, held by every
// estimator that runs it: the deterministic tracker on f, and the
// frequency trackers on F1 (appendix H). It sends the absolute drift d_i
// once δ_i, its change since the last report, reaches ε·2^r.
type Drift struct {
	threshold float64 //varlint:volatile ε·2^r floored at 1, derived from (ε, r) in Reset
	d         int64   // d_i: drift this block
	delta     int64   // δ_i: change in d_i since the last report
}

// Reset starts a block with exponent r.
func (d *Drift) Reset(eps float64, r int64) { *d = Drift{threshold: epsThreshold(eps, r)} }

// Add applies one update of change x and reports whether δ_i reached the
// threshold, in which case the caller sends Report. (Adding and sending in
// one method would not inline into the estimators' update paths.)
//
//varlint:zeroalloc
func (d *Drift) Add(x int64) bool {
	d.d += x
	d.delta += x
	return float64(absI64(d.delta)) >= d.threshold
}

// Report sends site id's drift d_i absolutely and restarts δ_i. The
// coordinator overwrites d̂_i, so a re-sent report is idempotent: a rejoin
// re-sends the current value to heal whatever the outage swallowed.
//
//varlint:zeroalloc
func (d *Drift) Report(id int32, out dist.Outbox) {
	out.Send(dist.Msg{Kind: dist.KindDriftReport, Site: id, A: d.d})
	d.delta = 0
}

// Budget is the quiet budget of the condition: δ_i stays below the
// threshold while |δ_i| is at most the largest integer below it, and a run
// of updates moves |δ_i| by at most the sum of their |Δ|. A report resets
// δ_i, so |δ_i| is below the threshold between updates and the budget is
// never negative. A threshold past 2^62 (only a malformed exponent makes
// one) counts as 2^62, so the conversion cannot overflow.
func (d *Drift) Budget() int64 {
	below := int64(1) << 62
	if d.threshold < float64(below) {
		below = int64(d.threshold)
		if float64(below) == d.threshold {
			below--
		}
	}
	return below - absI64(d.delta)
}

// Absorb applies a run of updates of net change sum that Budget covers.
func (d *Drift) Absorb(sum int64) {
	d.d += sum
	d.delta += sum
}

// Bootstrap adopts a net count as block-0 drift and reports it, unless it
// is zero (a fresh coordinator holds d̂_i = 0 already).
func (d *Drift) Bootstrap(id int32, net int64, out dist.Outbox) {
	d.d, d.delta = net, 0
	if net != 0 {
		d.Report(id, out)
	}
}

// Reports is the coordinator's books of a per-site stream of absolute
// reports: the last report of each site, dense by site id (a message costs
// an array write, not a map probe), and their running sum.
type Reports struct {
	last []int64 // latest value per site, indexed by site id
	sum  int64   //varlint:volatile Σ last, maintained incrementally; Snap sums the entries when decoding
}

// NewReports returns the books of k sites, all at zero.
func NewReports(k int) Reports { return Reports{last: make([]int64, k)} }

// Reset zeroes every site's value.
func (b *Reports) Reset() {
	clear(b.last)
	b.sum = 0
}

// Put records v as site's latest value.
func (b *Reports) Put(site int32, v int64) {
	b.sum += v - b.last[site]
	b.last[site] = v
}

// Sum returns the sum of the sites' latest values.
func (b *Reports) Sum() int64 { return b.sum }

// detSite is the site half of the deterministic tracker.
type detSite struct {
	id    int32   //varlint:volatile construction-time identity; the restore target is built with the same id
	eps   float64 //varlint:volatile construction-time config; Reset derives the threshold from it
	drift Drift
}

// Reset implements InBlockSite.
func (s *detSite) Reset(r int64, out dist.Outbox) { s.drift.Reset(s.eps, r) }

// OnUpdate implements InBlockSite.
func (s *detSite) OnUpdate(u stream.Update, out dist.Outbox) {
	if s.drift.Add(u.Delta) {
		s.drift.Report(s.id, out)
	}
}

// Quiet implements InBlockQuietSite.
func (s *detSite) Quiet() int64 { return s.drift.Budget() }

// Absorb implements InBlockQuietSite.
func (s *detSite) Absorb(n, sum int64) { s.drift.Absorb(sum) }

// OnRejoin implements InBlockRejoiner: a drift report is absolute, so
// re-sending it is safe.
func (s *detSite) OnRejoin(out dist.Outbox) { s.drift.Report(s.id, out) }

// detCoord is the coordinator half of the deterministic tracker: d̂_i per
// site and Σ d̂_i.
type detCoord struct{ dhat Reports }

// Reset implements InBlockCoord.
func (c *detCoord) Reset(r int64) { c.dhat.Reset() }

// OnMessage implements InBlockCoord.
func (c *detCoord) OnMessage(m dist.Msg) {
	if m.Kind == dist.KindDriftReport {
		c.dhat.Put(m.Site, m.A)
	}
}

// Drift implements InBlockCoord.
func (c *detCoord) Drift() int64 { return c.dhat.Sum() }

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
	coord := NewBlockCoord(k, &detCoord{dhat: NewReports(k)})
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
