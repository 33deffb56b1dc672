package freq

import (
	"math"
	"slices"

	"repro/internal/dist"
	"repro/internal/itemtab"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/track"
)

// This file implements the randomized frequency trackers discussed in
// appendix H.0.3. The paper obtains O((k/ε)·v) messages deterministically
// and asks whether O((√k/ε)·v) is possible; the obstacle it identifies is
// that the HYZ sampling estimator needs the estimate variance at any time
// t < n to be within a constant of the variance at time n, which deletions
// break.
//
// Two variants make the discussion concrete:
//
//   - Sampled (sync): per-cell HYZ A±-copy sampling inside blocks, with the
//     paper's deterministic end-of-block resynchronization (heavy counters
//     reported exactly, the rest zeroed). This is correct — the per-block
//     variance argument of §3.4 applies cell-wise — but the block-end sync
//     itself costs O(k/ε) messages, which is exactly why it does not beat
//     the deterministic bound (the paper's closing remark).
//
//   - SampledNoSync: the naive extension that drops the block-end sync and
//     lets sampled estimates carry across blocks. Sampling probabilities
//     change between blocks, so the unbiased correction −1+1/p mixes
//     epochs; under churn (deletions), F1 shrinks while stale variance
//     remains, and the εF1 guarantee degrades — the failure mode H.0.3
//     predicts. Provided for the E21 ablation; do not use it for real work.

// sampledCell is a site's per-cell state for the sampled trackers.
type sampledCell struct {
	net    int64 // true cumulative net count at this site
	dplus  int64 // in-epoch +1 updates (A+ copy)
	dminus int64 // in-epoch −1 updates (A− copy)
}

// sampledSite is the site half of both sampled variants.
type sampledSite struct {
	id     int32
	eps    float64
	sqrtK  float64
	mapper Mapper
	src    *rng.Xoshiro256
	sync   bool

	coin       rng.Coin // the block's Bernoulli(p), derived in Reset
	cellThresh float64
	// cells holds per-cell state inline: one probe per touch and no
	// per-cell heap object to chase (or allocate on first touch).
	cells itemtab.Table[sampledCell]
	// cellBuf is the reusable CellsInto buffer for the per-update loop.
	cellBuf []uint64

	f1 track.Drift // the §3.3 drift condition on F1

	// heavyKeys is the reusable sort buffer keeping block-end heavy
	// reports in deterministic cell order; only reporting cells are
	// collected and sorted.
	heavyKeys []uint64
}

func newSampledSite(id int, eps float64, k int, mapper Mapper, src *rng.Xoshiro256, sync bool) *sampledSite {
	return &sampledSite{
		id:     int32(id),
		eps:    eps,
		sqrtK:  math.Sqrt(float64(k)),
		mapper: mapper,
		src:    src,
		sync:   sync,
	}
}

// Reset implements track.InBlockSite.
func (s *sampledSite) Reset(r int64, out dist.Outbox) {
	s.coin = rng.NewCoin(track.SampleProb(s.eps, r, s.sqrtK))
	s.cellThresh = cellThreshold(s.eps, r)
	s.f1.Reset(s.eps, r)
	if !s.sync {
		// The naive variant carries sampled state across blocks.
		return
	}
	s.heavyKeys = s.heavyKeys[:0]
	s.cells.Sweep(func(c uint64, st *sampledCell) bool {
		if st.net == 0 {
			return false
		}
		if float64(absI64(st.net)) >= s.cellThresh && out != nil {
			s.heavyKeys = append(s.heavyKeys, c)
		}
		st.dplus = 0
		st.dminus = 0
		return true
	})
	slices.Sort(s.heavyKeys)
	for _, c := range s.heavyKeys {
		st, _ := s.cells.Get(c)
		out.Send(dist.Msg{Kind: dist.KindFreqEnd, Site: s.id, Item: c, A: st.net})
	}
}

// OnUpdate implements track.InBlockSite.
func (s *sampledSite) OnUpdate(u stream.Update, out dist.Outbox) {
	if s.f1.Add(u.Delta) {
		s.f1.Report(s.id, out)
	}
	s.cellBuf = s.mapper.CellsInto(s.cellBuf, u.Item)
	for _, c := range s.cellBuf {
		st := s.cells.Upsert(c)
		st.net += u.Delta
		if u.Delta > 0 {
			st.dplus++
			if s.src.Flip(s.coin) {
				out.Send(dist.Msg{Kind: dist.KindFreqReport, Site: s.id, Item: c, A: st.dplus, B: 1})
			}
		} else {
			st.dminus++
			if s.src.Flip(s.coin) {
				out.Send(dist.Msg{Kind: dist.KindFreqReport, Site: s.id, Item: c, A: st.dminus, B: -1})
			}
		}
	}
}

// LiveCells returns the number of counters at the site.
func (s *sampledSite) LiveCells() int { return s.cells.Len() }

// siteCell keys the coordinator's per-site per-cell estimates.
type siteCell struct {
	site int32
	cell uint64
}

// sampledCoord is the coordinator half of the sampled variants.
type sampledCoord struct {
	sqrtK float64
	eps   float64
	sync  bool

	invP    float64          // 1/p for the block's p
	base    map[uint64]int64 // exact values from end-of-block reports
	plusHat map[siteCell]float64
	minHat  map[siteCell]float64
	drift   map[uint64]float64 // Σ over sites of (d̂+ − d̂−) per cell

	f1 track.Reports // §3.3 d̂_i per site for F1
}

func newSampledCoord(k int, eps float64, sync bool) *sampledCoord {
	return &sampledCoord{
		sqrtK: math.Sqrt(float64(k)), eps: eps, sync: sync,
		base:    make(map[uint64]int64),
		plusHat: make(map[siteCell]float64),
		minHat:  make(map[siteCell]float64),
		drift:   make(map[uint64]float64),
		f1:      track.NewReports(k),
	}
}

// Reset implements track.InBlockCoord.
func (c *sampledCoord) Reset(r int64) {
	c.invP = 1 / track.SampleProb(c.eps, r, c.sqrtK)
	c.f1.Reset()
	if !c.sync {
		return
	}
	// Fold nothing: zero everything; the heavy reports that follow the
	// block broadcast re-establish the exact bases.
	clear(c.base)
	clear(c.plusHat)
	clear(c.minHat)
	clear(c.drift)
}

// OnMessage implements track.InBlockCoord: the in-block layer sees only
// the estimator report kinds BlockCoord's default clause forwards down —
// the partition spine and the control plane never reach it.
func (c *sampledCoord) OnMessage(m dist.Msg) {
	//varlint:kinds KindAttach,KindCoordTakeover,KindCountReport,KindDetach,KindNewBlock,KindStateReply,KindStateRequest,KindTakeover,KindValueReport
	switch m.Kind {
	case dist.KindDriftReport:
		c.f1.Put(m.Site, m.A)
	case dist.KindFreqEnd:
		c.base[m.Item] += m.A
	case dist.KindFreqReport:
		key := siteCell{m.Site, m.Item}
		est := float64(m.A) - 1 + c.invP
		if m.B > 0 {
			c.drift[m.Item] += est - c.plusHat[key]
			c.plusHat[key] = est
		} else {
			c.drift[m.Item] -= est - c.minHat[key]
			c.minHat[key] = est
		}
	}
}

// Drift implements track.InBlockCoord (F1).
func (c *sampledCoord) Drift() int64 { return c.f1.Sum() }

// get reads the merged estimate for a cell.
func (c *sampledCoord) get(cell uint64) int64 {
	return c.base[cell] + int64(math.RoundToEven(c.drift[cell]))
}

// NewSampled builds the appendix-H.0.3 sampled frequency tracker with the
// deterministic end-of-block resynchronization. Per-query guarantee:
// P(|f_ℓ − f̂_ℓ| ≤ ε·F1) ≥ 2/3 (per-cell §3.4 analysis), deterministic
// resync each block.
func NewSampled(k int, eps float64, mapper Mapper, seed uint64) (*Tracker, []dist.SiteAlgo) {
	return newSampledTracker(k, eps, mapper, seed, true)
}

// NewSampledNoSync builds the deliberately broken variant without block-end
// resynchronization, for the E21 ablation demonstrating the H.0.3 obstacle.
func NewSampledNoSync(k int, eps float64, mapper Mapper, seed uint64) (*Tracker, []dist.SiteAlgo) {
	return newSampledTracker(k, eps, mapper, seed, false)
}

func newSampledTracker(k int, eps float64, mapper Mapper, seed uint64, sync bool) (*Tracker, []dist.SiteAlgo) {
	if k <= 0 {
		panic("freq: sampled tracker needs k > 0")
	}
	if !(eps > 0 && eps < 1) {
		panic("freq: sampled tracker needs 0 < eps < 1")
	}
	root := rng.New(seed)
	inner := newSampledCoord(k, eps, sync)
	t := &Tracker{
		BlockCoord: track.NewBlockCoord(k, inner),
		mapper:     mapper,
		eps:        eps,
		get:        inner.get,
		cellsFn: func() map[uint64]int64 {
			out := make(map[uint64]int64, len(inner.base)+len(inner.drift))
			for cell := range inner.base {
				out[cell] = inner.get(cell)
			}
			for cell := range inner.drift {
				out[cell] = inner.get(cell)
			}
			return out
		},
	}
	sites := make([]dist.SiteAlgo, k)
	t.sampledSites = make([]*sampledSite, k)
	for i := 0; i < k; i++ {
		fs := newSampledSite(i, eps, k, mapper, root.Fork(uint64(i)), sync)
		t.sampledSites[i] = fs
		sites[i] = track.NewBlockSite(i, fs)
	}
	return t, sites
}
