package track

import (
	"iter"

	"repro/internal/dist"
)

// This file is the mid-stream attach machinery used by the multi-query
// engine (internal/query): a tracking query registered at update t must
// adopt the history it never saw, so the site half of a freshly built
// tracker is seeded with a snapshot of the site's pre-attach state and then
// pushes that state to its (equally fresh) coordinator half through the
// same absolute-state messages the PR-4 rejoin resync uses. The partition
// layer folds the history into its own protocol: the seeded update count
// goes out as a count report, which immediately drives the coordinator's t̂
// over the block-0 threshold and triggers a full state collection — so one
// collection round-trip after attach, the query sits at an exact block
// boundary f(n_j) = f(t) with a properly chosen exponent, exactly as if it
// had been running all along.

// AttachState is one site's snapshot of its pre-attach history, taken by
// the engine at the moment the attach announcement arrives.
type AttachState struct {
	// Updates is the number of local updates the site has ingested (for a
	// filtered query: that matched the filter, or the engine's best
	// reconstruction of it — see internal/query).
	Updates int64
	// Plus and Minus are the accumulated positive delta mass and absolute
	// negative delta mass, so Plus − Minus is the site's net contribution
	// to f. For ±1 streams they are the update counts the randomized
	// tracker's A+/A− estimator copies would have seen.
	Plus, Minus int64
	// Items yields the site's nonzero net per-item counts (for a filtered
	// query, those of the items the filter accepts), straight from the
	// engine's live table: it is valid only during the bootstrap call, and
	// the table must not change while it runs. Only frequency estimators
	// consume it.
	Items iter.Seq2[uint64, int64]
}

// Net returns the site's net contribution Plus − Minus.
func (st AttachState) Net() int64 { return st.Plus - st.Minus }

// InBlockBootstrapper is implemented by in-block estimators that can adopt
// pre-attach history: the partition layer's BootstrapAttach forwards the
// snapshot so the estimator can take the history as block-0 drift and
// report it.
type InBlockBootstrapper interface {
	BootstrapAttach(st AttachState, out dist.Outbox)
}

// BootstrapAttach seeds a freshly constructed site with pre-attach history
// and emits the absolute-state messages that re-establish it at a freshly
// constructed coordinator. Like the rejoin hooks, the messages are safe to
// deliver on top of whatever the coordinator already holds. It consumes st
// during the call and does not retain st.Items, which walks the engine's
// live per-item table.
//
// The inner estimator adopts and reports the historical drift first, so the
// estimate is approximately right immediately; then the seeded update count
// goes out as a count report, whose arrival triggers the state collection
// that turns the approximation into an exact block boundary. The snapshot's
// net mass is held in fi until that collection claims it.
func (s *BlockSite) BootstrapAttach(st AttachState, out dist.Outbox) {
	if b, ok := s.inner.(InBlockBootstrapper); ok {
		b.BootstrapAttach(st, out)
	}
	s.ci = st.Updates
	s.fi = st.Net()
	if s.ci >= s.batch {
		out.Send(dist.Msg{Kind: dist.KindCountReport, Site: s.id, A: s.ci})
		s.ci = 0
	}
}

// BootstrapAttach implements InBlockBootstrapper for the deterministic
// tracker: the history becomes block-0 drift, reported absolutely (the
// coordinator overwrites d̂_i idempotently, as on rejoin).
func (s *detSite) BootstrapAttach(st AttachState, out dist.Outbox) {
	s.drift.Bootstrap(s.id, st.Net(), out)
}

// BootstrapAttach implements InBlockBootstrapper for the randomized
// tracker: the ± mass seeds the A+/A− copies and is pushed as the same
// B = ±2 exact-resync reports OnRejoin uses, so the coordinator's copies
// start at the truth with no 1/p debias. (For a filtered query the engine
// can only reconstruct the net split, not the historical coin order; the
// first block collection makes the boundary exact regardless.)
func (s *randSite) BootstrapAttach(st AttachState, out dist.Outbox) {
	s.d = [2]int64{st.Plus, st.Minus}
	if s.d[0] != 0 {
		out.Send(dist.Msg{Kind: dist.KindDriftReport, Site: s.id, A: s.d[0], B: 2})
	}
	if s.d[1] != 0 {
		out.Send(dist.Msg{Kind: dist.KindDriftReport, Site: s.id, A: s.d[1], B: -2})
	}
}
