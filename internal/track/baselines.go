package track

import (
	"math"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/stream"
)

// This file implements the comparison algorithms:
//
//   - Naive: forward every update; exact but Θ(n) messages. The Ω(n) general
//     lower bound (§1) says nothing asymptotically better is possible for
//     arbitrary non-monotone streams, making this the honest worst-case peer.
//   - CMY: the Cormode-Muthukrishnan-Yi-style deterministic monotone counter
//     (O((k/ε)·log n) messages, insert-only streams).
//   - HYZ: the Huang-Yi-Zhang-style randomized monotone counter
//     (O((k+√k/ε)·log n) messages, insert-only streams).
//   - LRV: a Liu-Radunović-Vojnović-style sampling tracker for random
//     streams (no worst-case guarantee; small expected cost on random
//     walks). Reconstructed from the description in their papers since no
//     reference implementation is public; see DESIGN.md "Substitutions".

// naiveSite forwards every update.
type naiveSite struct{ id int32 }

// OnUpdate implements dist.SiteAlgo.
func (s *naiveSite) OnUpdate(u stream.Update, out dist.Outbox) {
	out.Send(dist.Msg{Kind: dist.KindDriftReport, Site: s.id, A: u.Delta})
}

// OnMessage implements dist.SiteAlgo.
func (s *naiveSite) OnMessage(m dist.Msg, out dist.Outbox) {}

// naiveCoord sums every forwarded delta; its estimate is exact.
type naiveCoord struct{ f int64 }

// OnMessage implements dist.CoordAlgo.
func (c *naiveCoord) OnMessage(m dist.Msg, out dist.Outbox) { c.f += m.A }

// Estimate implements dist.CoordAlgo.
func (c *naiveCoord) Estimate() int64 { return c.f }

// NewNaive builds the exact forward-everything tracker for k sites.
func NewNaive(k int) (dist.CoordAlgo, []dist.SiteAlgo) {
	if k <= 0 {
		panic("track: NewNaive needs k > 0")
	}
	sites := make([]dist.SiteAlgo, k)
	for i := 0; i < k; i++ {
		sites[i] = &naiveSite{id: int32(i)}
	}
	return &naiveCoord{}, sites
}

// cmySite reports its local count whenever it grows by a (1+ε) factor.
type cmySite struct {
	id       int32
	eps      float64
	ci       int64
	reported int64
}

// OnUpdate implements dist.SiteAlgo.
func (s *cmySite) OnUpdate(u stream.Update, out dist.Outbox) {
	if u.Delta < 0 {
		panic("track: CMY tracker received a deletion; it requires monotone streams")
	}
	s.ci += u.Delta
	// First update always reports; afterwards report when c_i ≥ (1+ε)·last.
	if s.reported == 0 || float64(s.ci) >= (1+s.eps)*float64(s.reported) {
		out.Send(dist.Msg{Kind: dist.KindCountReport, Site: s.id, A: s.ci})
		s.reported = s.ci
	}
}

// OnMessage implements dist.SiteAlgo.
func (s *cmySite) OnMessage(m dist.Msg, out dist.Outbox) {}

// cmyCoord sums the last-reported counts.
type cmyCoord struct{ counts Reports }

// OnMessage implements dist.CoordAlgo.
func (c *cmyCoord) OnMessage(m dist.Msg, out dist.Outbox) { c.counts.Put(m.Site, m.A) }

// Estimate implements dist.CoordAlgo.
func (c *cmyCoord) Estimate() int64 { return c.counts.Sum() }

// NewCMY builds the deterministic monotone counter: each site reports its
// local count when it grows by a (1+ε) factor, so each site's unreported
// mass is at most ε·c_i and the total error at most ε·f(n). Messages:
// O(k·log_{1+ε} n) = O((k/ε)·log n).
func NewCMY(k int, eps float64) (dist.CoordAlgo, []dist.SiteAlgo) {
	if k <= 0 {
		panic("track: NewCMY needs k > 0")
	}
	if !(eps > 0 && eps < 1) {
		panic("track: NewCMY needs 0 < eps < 1")
	}
	sites := make([]dist.SiteAlgo, k)
	for i := 0; i < k; i++ {
		sites[i] = &cmySite{id: int32(i), eps: eps}
	}
	return &cmyCoord{counts: NewReports(k)}, sites
}

// hyzSite samples reports with round-dependent probability.
type hyzSite struct {
	id   int32
	src  *rng.Xoshiro256
	coin rng.Coin // the round's Bernoulli(p), derived when the round opens
	di   int64
}

// OnUpdate implements dist.SiteAlgo.
func (s *hyzSite) OnUpdate(u stream.Update, out dist.Outbox) {
	if u.Delta < 0 {
		panic("track: HYZ tracker received a deletion; it requires monotone streams")
	}
	s.di += u.Delta
	if s.src.Flip(s.coin) {
		out.Send(dist.Msg{Kind: dist.KindDriftReport, Site: s.id, A: s.di})
	}
}

// OnMessage implements dist.SiteAlgo.
func (s *hyzSite) OnMessage(m dist.Msg, out dist.Outbox) {
	if m.Kind == dist.KindNewBlock {
		// New round: reset the local drift and adopt the new p
		// (encoded in A as p = A/2^32 fixed point).
		s.coin = rng.NewCoin(float64(m.A) / (1 << 32))
		s.di = 0
	}
}

// hyzCoord runs doubling rounds: when its estimate doubles, it broadcasts a
// new sampling probability p = min{1, 3·√k/(ε·f̂)} and resets drifts.
type hyzCoord struct {
	k    int
	eps  float64
	invP float64 // 1/p for the current round's p
	base int64   // estimate frozen at the last round start
	dhat []float64
	sum  float64
}

// OnMessage implements dist.CoordAlgo.
func (c *hyzCoord) OnMessage(m dist.Msg, out dist.Outbox) {
	if m.Kind != dist.KindDriftReport {
		return
	}
	est := float64(m.A) - 1 + c.invP
	c.sum += est - c.dhat[m.Site]
	c.dhat[m.Site] = est
	if float64(c.Estimate()) >= 2*math.Max(float64(c.base), float64(c.k)) {
		c.newRound(out)
	}
}

func (c *hyzCoord) newRound(out dist.Outbox) {
	c.base = c.Estimate()
	p := hyzProb(c.eps, c.k, c.base)
	c.invP = 1 / p
	clear(c.dhat)
	c.sum = 0
	// Fixed-point encode p so the message stays integer-valued.
	out.Broadcast(dist.Msg{Kind: dist.KindNewBlock, Site: dist.CoordID, A: int64(p * (1 << 32))})
}

// Estimate implements dist.CoordAlgo.
func (c *hyzCoord) Estimate() int64 { return c.base + int64(math.RoundToEven(c.sum)) }

// hyzProb is the HYZ sampling probability for the round with frozen
// estimate base: p = min{1, 3·√k/(ε·base)}.
func hyzProb(eps float64, k int, base int64) float64 {
	if base <= 0 {
		return 1
	}
	p := 3 * math.Sqrt(float64(k)) / (eps * float64(base))
	if p > 1 {
		return 1
	}
	return p
}

// NewHYZ builds the randomized monotone counter in the style of Huang, Yi,
// and Zhang: sample-based drift reports with probability refreshed as the
// count doubles. Expected messages O((k + √k/ε)·log n) on insert-only
// streams; per-step error ≤ ε·f(n) with probability ≥ 2/3.
func NewHYZ(k int, eps float64, seed uint64) (dist.CoordAlgo, []dist.SiteAlgo) {
	if k <= 0 {
		panic("track: NewHYZ needs k > 0")
	}
	if !(eps > 0 && eps < 1) {
		panic("track: NewHYZ needs 0 < eps < 1")
	}
	root := rng.New(seed)
	sites := make([]dist.SiteAlgo, k)
	for i := 0; i < k; i++ {
		sites[i] = &hyzSite{id: int32(i), src: root.Fork(uint64(i)), coin: rng.NewCoin(1)}
	}
	return &hyzCoord{k: k, eps: eps, invP: 1, dhat: make([]float64, k)}, sites
}

// lrvSite forwards each update with an adaptive probability and carries an
// unbiased correction, LRV-style.
type lrvSite struct {
	id     int32
	src    *rng.Xoshiro256
	coin   rng.Coin // the round's Bernoulli(p), derived when the round opens
	dplus  int64
	dminus int64
}

// OnUpdate implements dist.SiteAlgo.
func (s *lrvSite) OnUpdate(u stream.Update, out dist.Outbox) {
	if u.Delta > 0 {
		s.dplus++
		if s.src.Flip(s.coin) {
			out.Send(dist.Msg{Kind: dist.KindDriftReport, Site: s.id, A: s.dplus, B: 1})
		}
	} else {
		s.dminus++
		if s.src.Flip(s.coin) {
			out.Send(dist.Msg{Kind: dist.KindDriftReport, Site: s.id, A: s.dminus, B: -1})
		}
	}
}

// OnMessage implements dist.SiteAlgo.
func (s *lrvSite) OnMessage(m dist.Msg, out dist.Outbox) {
	if m.Kind == dist.KindNewBlock {
		// New round: adopt the new p and restart the drift counters so the
		// unbiased correction −1 + 1/p never mixes reports taken at
		// different probabilities.
		s.coin = rng.NewCoin(float64(m.A) / (1 << 32))
		s.dplus = 0
		s.dminus = 0
	}
}

// lrvCoord adapts the sampling probability to the current magnitude |f̂|,
// broadcasting a new round whenever |f̂| doubles or halves. The estimate at
// the retune point is frozen into base, mirroring the round structure of the
// HYZ counter.
type lrvCoord struct {
	k     int
	eps   float64
	invP  float64 // 1/p for the current round's p
	scale int64   // |f̂| magnitude the current p was chosen for
	base  int64   // estimate frozen at the last retune
	dplus []float64
	dmin  []float64
	sum   float64
}

// OnMessage implements dist.CoordAlgo.
func (c *lrvCoord) OnMessage(m dist.Msg, out dist.Outbox) {
	if m.Kind != dist.KindDriftReport {
		return
	}
	est := float64(m.A) - 1 + c.invP
	if m.B > 0 {
		c.sum += est - c.dplus[m.Site]
		c.dplus[m.Site] = est
	} else {
		c.sum -= est - c.dmin[m.Site]
		c.dmin[m.Site] = est
	}
	mag := absI64(c.Estimate())
	if mag >= 2*c.scale || (c.scale > 1 && mag < c.scale/2) {
		c.retune(out, mag)
	}
}

func (c *lrvCoord) retune(out dist.Outbox, mag int64) {
	if mag < 1 {
		mag = 1
	}
	c.base = c.Estimate()
	c.scale = mag
	p := 2 * math.Sqrt(float64(c.k)) / (c.eps * float64(mag))
	if p > 1 {
		p = 1
	}
	c.invP = 1 / p
	clear(c.dplus)
	clear(c.dmin)
	c.sum = 0
	out.Broadcast(dist.Msg{Kind: dist.KindNewBlock, Site: dist.CoordID, A: int64(p * (1 << 32))})
}

// Estimate implements dist.CoordAlgo.
func (c *lrvCoord) Estimate() int64 { return c.base + int64(math.RoundToEven(c.sum)) }

// NewLRV builds the LRV-style sampling tracker. Unlike the variability
// trackers it has no worst-case guarantee — its error can exceed ε·|f| with
// constant probability near f = 0 — but on random-walk inputs its expected
// message count matches the O((√k/ε)·√n·log n) shape reported by Liu et al.
//
// The initial probability is 1 (exact while |f̂| ≤ 1); the coordinator
// retunes whenever |f̂| doubles or halves.
func NewLRV(k int, eps float64, seed uint64) (dist.CoordAlgo, []dist.SiteAlgo) {
	if k <= 0 {
		panic("track: NewLRV needs k > 0")
	}
	if !(eps > 0 && eps < 1) {
		panic("track: NewLRV needs 0 < eps < 1")
	}
	root := rng.New(seed)
	sites := make([]dist.SiteAlgo, k)
	for i := 0; i < k; i++ {
		sites[i] = &lrvSite{id: int32(i), src: root.Fork(uint64(i)), coin: rng.NewCoin(1)}
	}
	return &lrvCoord{
		k: k, eps: eps, invP: 1, scale: 1,
		dplus: make([]float64, k),
		dmin:  make([]float64, k),
	}, sites
}
