package freq

import (
	"math"
	"slices"

	"repro/internal/dist"
	"repro/internal/itemtab"
	"repro/internal/stream"
	"repro/internal/track"
)

// freqSite is the in-block site estimator of appendix H. It simultaneously
// runs the §3.3 deterministic drift condition for F1 (so the coordinator
// can estimate F1(n) mid-block) and the per-counter δ conditions for item
// frequencies.
//
// Its counters are the cells of column col of rows: standalone, a table
// of its own whose row counts are the counter values; on a query engine
// site, the site's spine (shared), which applies each update to the row
// before the site sees it.
type freqSite struct {
	id     int32   //varlint:volatile construction-time identity; the restore target is built with the same id
	eps    float64 //varlint:volatile construction-time config; Reset derives the thresholds from it
	mapper Mapper  //varlint:volatile construction-time config; the restore target is built with the same mapper

	rows   *Rows //varlint:volatile wiring; Snap codes the site's column of it, and Reset sets the column's limit
	col    int   //varlint:volatile wiring; the column is allocated at construction
	shared bool  //varlint:volatile construction-time config
	// cellBuf is the reusable CellsInto buffer; per-update cell lookups
	// must not allocate.
	cellBuf []uint64 //varlint:volatile reusable scratch buffer

	f1 track.Drift // the §3.3 drift condition on F1

	// heavyKeys is the reusable sort buffer for block-end sweeps: heavy
	// reports go out in cell order, so transcripts are deterministic
	// rather than following table slot order. Only reporting cells are
	// collected and sorted — the silent zero/delete sweep stays a single
	// pass over the table.
	heavyKeys []uint64 //varlint:volatile reusable scratch buffer
}

func newFreqSite(id int, eps float64, mapper Mapper) *freqSite {
	s := &freqSite{id: int32(id), eps: eps, mapper: mapper, rows: new(Rows)}
	s.col = s.rows.AddColumn()
	return s
}

// cellThreshold returns the per-counter send threshold of a block with
// exponent r, ε·2^r/3 (flush and heavy report).
func cellThreshold(eps float64, r int64) float64 {
	return eps * math.Ldexp(1, int(r)) / 3
}

// Reset implements track.InBlockSite: end the old block and start one with
// exponent r. Heavy counters are reported exactly; everything else is
// implicitly zero at the coordinator.
func (s *freqSite) Reset(r int64, out dist.Outbox) {
	s.rows.cols[s.col].limit = cellThreshold(s.eps, r)
	s.f1.Reset(s.eps, r)
	// Zero counters go, which bounds site memory to live counters; the
	// coordinator zeroes every counter not reported here.
	s.heavyKeys = s.rows.sweep(s.col, false, s.heavyKeys[:0])
	if out != nil {
		s.sendHeavy(out)
	}
}

// sendHeavy reports the counters in heavyKeys absolutely, in cell order.
func (s *freqSite) sendHeavy(out dist.Outbox) {
	slices.Sort(s.heavyKeys)
	for _, c := range s.heavyKeys {
		row, _ := s.rows.tab.Get(c)
		out.Send(dist.Msg{Kind: dist.KindFreqEnd, Site: s.id, Item: c, A: row.Net})
	}
}

// OnUpdate implements track.InBlockSite.
func (s *freqSite) OnUpdate(u stream.Update, out dist.Outbox) {
	if s.f1.Add(u.Delta) {
		s.f1.Report(s.id, out)
	}
	// Per-counter deltas. A shared site's one cell is the item, whose row
	// the engine has just updated.
	if s.shared {
		s.report(u.Item, s.rows.cur, out)
		return
	}
	s.cellBuf = s.mapper.CellsInto(s.cellBuf, u.Item)
	for _, c := range s.cellBuf {
		row := s.rows.Upsert(c)
		row.Net += u.Delta
		s.report(c, row, out)
	}
}

// report sends counter c's change since its last report, held in row,
// once that reaches the counter threshold.
//
//varlint:zeroalloc
func (s *freqSite) report(c uint64, row *Row, out dist.Outbox) {
	if !s.rows.Touch(row, s.col) {
		mirror, _ := s.rows.cell(row, s.col)
		out.Send(dist.Msg{Kind: dist.KindFreqReport, Site: s.id, Item: c, A: row.Net - *mirror})
		*mirror = row.Net
	}
}

// LiveCells returns the number of counters currently held at a standalone
// site, whose table holds only its own cells: the space quantity appendix
// H.0.2 is about.
func (s *freqSite) LiveCells() int { return s.rows.tab.Len() }

// columnSite is one site's half of a query engine's frequency query: a
// shared freqSite over exact items, in its own column of the engine site's
// rows. It joins the engine's quiet fan-out, so it is a
// track.InBlockQuietSite with a caveat: Quiet bounds the F1 drift reports,
// the same way the deterministic tracker's does, while the per-item
// reports are bounded by the engine's per-row check (Rows.Touch). A
// standalone freqSite has no such check and is not quiet.
type columnSite struct{ *freqSite }

// NewColumn builds site id's half of an engine frequency query with error
// parameter eps over exact items, with its cells in a new column of rows,
// the engine site's spine. It returns the site and its column, which the
// engine frees when the query detaches.
func NewColumn(id int, eps float64, rows *Rows) (*track.BlockSite, int) {
	s := &freqSite{id: int32(id), eps: eps, rows: rows, col: rows.AddColumn(), shared: true}
	return track.NewBlockSite(id, columnSite{s}), s.col
}

// Quiet implements track.InBlockQuietSite for the F1 drift.
func (s columnSite) Quiet() int64 { return s.f1.Budget() }

// Absorb implements track.InBlockQuietSite: the counters are the engine's
// rows, which it has already updated.
func (s columnSite) Absorb(n, sum int64) { s.f1.Absorb(sum) }

// BootstrapAttach implements track.InBlockBootstrapper for mid-stream
// attach: each of the history's items is a row of the engine site already,
// and becomes a cell, established at the freshly built coordinator with
// the same absolute KindFreqEnd reports a block boundary uses; the F1 drift
// estimator adopts the net mass as block-0 drift. Reports go out in sorted
// item order so transcripts are deterministic.
func (s columnSite) BootstrapAttach(st track.AttachState, out dist.Outbox) {
	s.f1.Bootstrap(s.id, st.Net(), out)
	s.heavyKeys = s.heavyKeys[:0]
	for item := range st.Items {
		s.heavyKeys = append(s.heavyKeys, item)
	}
	for _, item := range s.heavyKeys {
		row := s.rows.Upsert(item)
		mirror, live := s.rows.cell(row, s.col)
		*mirror, *live = row.Net, true
	}
	s.sendHeavy(out)
}

// freqCoord is the in-block coordinator estimator: a merged counter table
// (Σ over sites) plus the deterministic F1 drift estimator.
type freqCoord struct {
	est itemtab.Table[int64] // merged Σ_i f̂_ic
	f1  track.Reports        // §3.3 d̂_i per site for F1
}

func newFreqCoord(k int) *freqCoord { return &freqCoord{f1: track.NewReports(k)} }

// Reset implements track.InBlockCoord: zero every counter (unreported ones
// stay zero; heavy ones are re-established by the KindFreqEnd reports that
// follow the block broadcast) and restart the F1 drift estimator.
func (c *freqCoord) Reset(r int64) {
	c.est.Clear()
	c.f1.Reset()
}

// OnMessage implements track.InBlockCoord: the in-block layer sees only
// the estimator report kinds BlockCoord's default clause forwards down —
// the partition spine and the control plane never reach it.
func (c *freqCoord) OnMessage(m dist.Msg) {
	//varlint:kinds KindAttach,KindCoordTakeover,KindCountReport,KindDetach,KindNewBlock,KindStateReply,KindStateRequest,KindTakeover,KindValueReport
	switch m.Kind {
	case dist.KindDriftReport:
		c.f1.Put(m.Site, m.A)
	case dist.KindFreqReport, dist.KindFreqEnd:
		*c.est.Upsert(m.Item) += m.A
	}
}

// Drift implements track.InBlockCoord (the F1 drift).
func (c *freqCoord) Drift() int64 { return c.f1.Sum() }

// get reads a merged counter.
func (c *freqCoord) get(cell uint64) int64 {
	v, _ := c.est.Get(cell)
	return v
}

// Tracker is the coordinator handle for distributed item-frequency
// tracking. It implements dist.CoordAlgo (Estimate returns the F1 estimate)
// and adds per-item queries. It fronts either the deterministic backend
// (New) or the sampled ones (NewSampled / NewSampledNoSync).
type Tracker struct {
	*track.BlockCoord
	mapper Mapper
	eps    float64

	get          func(cell uint64) int64 // merged counter read
	cellsFn      func() map[uint64]int64 // snapshot of all live merged counters
	sites        []*freqSite
	sampledSites []*sampledSite
}

// Frequency returns the coordinator's estimate f̂_ℓ for an item. The
// guarantee is |f_ℓ − f̂_ℓ| ≤ ε·F1(n) (deterministic for the Exact and
// CR-precis backends; with probability ≥ 8/9 per query for Count-Min;
// ≥ 2/3 for the sampled backend).
func (t *Tracker) Frequency(item uint64) int64 {
	est := t.mapper.Estimate(t.get, item)
	if est < 0 {
		// Counter noise can drive sketched estimates slightly negative;
		// frequencies are nonnegative by the problem definition.
		return 0
	}
	return est
}

// F1 returns the coordinator's estimate of |D(n)|.
func (t *Tracker) F1() int64 { return t.Estimate() }

// HeavyHitters returns the counters whose merged estimate is at least
// phi·F̂1, as (cell, estimate) pairs. For the Exact backend cells are item
// ids, so this is the φ-heavy-hitters set (up to ε·F1 frequency error). For
// sketched backends the cells are sketch counters and callers should verify
// candidates with Frequency.
func (t *Tracker) HeavyHitters(phi float64) map[uint64]int64 {
	thresh := phi * float64(t.F1())
	out := make(map[uint64]int64)
	for cell, v := range t.cellsFn() {
		if float64(v) >= thresh && v > 0 {
			out[cell] = v
		}
	}
	return out
}

// SiteLiveCells returns the number of live counters at each site, the space
// measure of appendix H.0.2.
func (t *Tracker) SiteLiveCells() []int {
	if t.sampledSites != nil {
		out := make([]int, len(t.sampledSites))
		for i, s := range t.sampledSites {
			out[i] = s.LiveCells()
		}
		return out
	}
	out := make([]int, len(t.sites))
	for i, s := range t.sites {
		out[i] = s.LiveCells()
	}
	return out
}

// New builds the appendix-H frequency tracker over k sites with error
// parameter eps and the given counter backend. It returns the coordinator
// handle and the site algorithms.
func New(k int, eps float64, mapper Mapper) (*Tracker, []dist.SiteAlgo) {
	t := NewCoord(k, eps, mapper)
	sites := make([]dist.SiteAlgo, k)
	t.sites = make([]*freqSite, k)
	for i := 0; i < k; i++ {
		fs := newFreqSite(i, eps, mapper)
		t.sites[i] = fs
		sites[i] = track.NewBlockSite(i, fs)
	}
	return t, sites
}

// NewCoord builds New's coordinator handle alone, for a deployment whose
// sites are built elsewhere: a query engine's, with NewColumn.
func NewCoord(k int, eps float64, mapper Mapper) *Tracker {
	if k <= 0 {
		panic("freq: New needs k > 0")
	}
	if !(eps > 0 && eps < 1) {
		panic("freq: New needs 0 < eps < 1")
	}
	inner := newFreqCoord(k)
	return &Tracker{
		BlockCoord: track.NewBlockCoord(k, inner),
		mapper:     mapper,
		eps:        eps,
		get:        inner.get,
		cellsFn: func() map[uint64]int64 {
			out := make(map[uint64]int64, inner.est.Len())
			for cell, v := range inner.est.Range {
				out[cell] = *v
			}
			return out
		},
	}
}

func absI64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
