package track

import (
	"repro/internal/dist"
	"repro/internal/stream"
)

// This file implements the single-site aggregate tracker of §5.2 and
// appendix I: with k = 1 the site always knows f(n) exactly, and the
// algorithm is simply
//
//	whenever |f − f̂| > ε·|f|, send f to the coordinator.
//
// The potential argument of appendix I shows the number of messages is at
// most the total increase of Φ(n) = |f(n) − f̂(n)| / |f(n)|, which is
// bounded by (1+ε)/ε · v(n) plus one message per zero/sign-crossing step —
// an O(v/ε) upper bound for tracking *any* integer-valued aggregate.

// singleSite tracks f exactly and pushes a fresh value whenever the
// coordinator's copy drifts beyond ε relative error.
type singleSite struct {
	eps  float64
	f    int64 // exact current value
	fhat int64 // the coordinator's current copy (mirrored locally)
	sent int64 // messages, for the site's own accounting
}

// OnUpdate implements dist.SiteAlgo.
func (s *singleSite) OnUpdate(u stream.Update, out dist.Outbox) {
	s.f += u.Delta
	if violates(s.f, s.fhat, s.eps) {
		out.Send(dist.Msg{Kind: dist.KindValueReport, Site: 0, A: s.f})
		s.fhat = s.f
		s.sent++
	}
}

// OnMessage implements dist.SiteAlgo.
func (s *singleSite) OnMessage(m dist.Msg, out dist.Outbox) {}

// violates reports whether |f − fhat| > ε·|f|. At f = 0 this reduces to
// fhat ≠ 0, matching the paper's convention that the estimate must be exact
// there (v'(t) = 1 when f(t) = 0).
func violates(f, fhat int64, eps float64) bool {
	diff := absI64(f - fhat)
	return float64(diff) > eps*float64(absI64(f))
}

// singleCoord adopts each reported value.
type singleCoord struct{ fhat int64 }

// OnMessage implements dist.CoordAlgo.
func (c *singleCoord) OnMessage(m dist.Msg, out dist.Outbox) {
	if m.Kind == dist.KindValueReport {
		c.fhat = m.A
	}
}

// Estimate implements dist.CoordAlgo.
func (c *singleCoord) Estimate() int64 { return c.fhat }

// NewSingleSite builds the k = 1 aggregate tracker of appendix I. It panics
// unless 0 < eps < 1. The guarantee |f(n) − f̂(n)| ≤ ε·|f(n)| is
// deterministic, and the message count is at most (1+ε)/ε·v(n) + z(n) where
// z(n) counts the timesteps with f(t) = 0 or a sign change.
func NewSingleSite(eps float64) (dist.CoordAlgo, []dist.SiteAlgo) {
	if !(eps > 0 && eps < 1) {
		panic("track: NewSingleSite needs 0 < eps < 1")
	}
	return &singleCoord{}, []dist.SiteAlgo{&singleSite{eps: eps}}
}
