package query

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/freq"
	"repro/internal/itemtab"
	"repro/internal/stream"
	"repro/internal/track"
)

// Tag rewrites m's routing field to carry query id qid in an engine over k
// sites: site i becomes virtual node qid·k+i, the coordinator becomes
// −(1+qid). Query 0 is tagged identically to a standalone deployment,
// which is what makes the Q = 1 anchor property hold byte for byte.
//
//varlint:zeroalloc
func Tag(m dist.Msg, qid, k int) dist.Msg {
	if m.Site == dist.CoordID {
		m.Site = int32(-(1 + qid))
	} else {
		m.Site = int32(qid*k + int(m.Site))
	}
	return m
}

// Demux inverts Tag: it returns the query id and the message with its
// original routing field restored.
//
//varlint:zeroalloc
func Demux(m dist.Msg, k int) (qid int, inner dist.Msg) {
	if m.Site < 0 {
		qid = int(-m.Site) - 1
		m.Site = dist.CoordID
		return qid, m
	}
	qid = int(m.Site) / k
	m.Site = int32(int(m.Site) % k)
	return qid, m
}

// attachMsg is the (already tagged) announcement broadcast for query qid.
func attachMsg(qid int) dist.Msg {
	return dist.Msg{Kind: dist.KindAttach, Site: int32(-(1 + qid))}
}

// tagOutbox wraps a runtime outbox, tagging every emitted message with one
// query id. The wrapper lives as long as its child (so dispatch never
// allocates one); the inner outbox is re-pointed per dispatch, since the
// runtime owns it and hands it to every call.
type tagOutbox struct {
	inner dist.Outbox
	qid   int
	k     int
}

func (o *tagOutbox) reset(inner dist.Outbox) { o.inner = inner }

// Send implements dist.Outbox.
func (o *tagOutbox) Send(m dist.Msg) { o.inner.Send(Tag(m, o.qid, o.k)) }

// SendTo implements dist.Outbox.
func (o *tagOutbox) SendTo(site int, m dist.Msg) { o.inner.SendTo(site, Tag(m, o.qid, o.k)) }

// Broadcast implements dist.Outbox.
func (o *tagOutbox) Broadcast(m dist.Msg) { o.inner.Broadcast(Tag(m, o.qid, o.k)) }

// queryState is one registered query in the shared Engine registry: its
// spec and the child pair, built once by the ordinary tracker constructors
// and handed out to the coordinator and site halves. Every family is the
// §3.1 partitioner, so the children are concrete: coord is the query's
// *track.BlockCoord and each site a *track.BlockSite.
type queryState struct {
	spec  Spec
	coord *track.BlockCoord
	sites []*track.BlockSite

	// freqT/thresh are non-nil for the respective families, exposing the
	// per-item and threshold query surfaces through Coord; snap is the
	// coordinator snapshot pair (the threshold monitor adds its layer tag).
	freqT  *freq.Tracker
	thresh *track.ThresholdMonitor
	snap   track.Snapshotter

	// coordOut is the coordinator-side tag outbox (site-side children each
	// own their own); detached freezes the query at the coordinator.
	coordOut tagOutbox
	detached bool
}

// buildQuery constructs the child pair for a spec.
func buildQuery(k int, spec Spec) (*queryState, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	q := &queryState{spec: spec}
	var coord dist.CoordAlgo
	var sites []dist.SiteAlgo
	switch spec.Algo {
	case "det":
		coord, sites = track.NewDeterministic(k, spec.Eps)
	case "rand":
		coord, sites = track.NewRandomized(k, spec.Eps, spec.Seed)
	case "freq":
		q.freqT, sites = freq.New(k, spec.Eps, freq.ExactMapper{})
		coord = q.freqT.BlockCoord
	case "threshold":
		q.thresh, sites = track.NewThresholdMonitor(k, spec.Eps, spec.Tau)
		coord = q.thresh.BlockCoord
	}
	q.coord = coord.(*track.BlockCoord)
	q.snap = q.coord
	if q.thresh != nil {
		q.snap = q.thresh
	}
	q.sites = make([]*track.BlockSite, k)
	for i, s := range sites {
		q.sites[i] = s.(*track.BlockSite)
	}
	return q, nil
}

// Engine is the registry shared by the coordinator and site halves: the
// query table and the topology size. Registration happens on the
// coordinator side (control plane); sites look the specs up when the
// KindAttach announcement reaches them (data plane carries only the qid).
type Engine struct {
	k int

	// mu serializes registration (rare, control plane); the delivery path
	// reads the table through an atomically published snapshot, so the
	// per-message qid lookup is one atomic load plus a dense slice index —
	// no lock, no allocation. The profile had the old mutex-guarded get at
	// ~6% of engine-heavy runs.
	mu    sync.Mutex
	table atomic.Pointer[[]*queryState]

	// q0 caches the query-0 entry, set once at registration: the Q = 1 hot
	// path (every Estimate poll and every message at Q = 1) skips the table
	// snapshot and the bounds checks.
	q0 atomic.Pointer[queryState]

	// dead marks slots the failure detector has declared dead and no
	// takeover has reclaimed. Coordinator-side only, touched on the
	// runtime's delivery path (OnSiteDead / OnSiteTakeover) and read when a
	// new query attaches — a query born while a slot is dead must excuse
	// that slot from its collections from the start.
	dead []bool
}

// get returns the query with id qid, or nil.
func (e *Engine) get(qid int) *queryState {
	qs := e.snapshot()
	if qid < 0 || qid >= len(qs) {
		return nil
	}
	return qs[qid]
}

// register copies the dense table, appends q, and publishes the new
// snapshot. Readers holding the old slice stay valid — entries are never
// mutated in place.
func (e *Engine) register(q *queryState) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.snapshot()
	qid := len(old)
	q.coordOut = tagOutbox{qid: qid, k: e.k}
	qs := make([]*queryState, qid+1)
	copy(qs, old)
	qs[qid] = q
	e.table.Store(&qs)
	if qid == 0 {
		e.q0.Store(q)
	}
	return qid
}

// snapshot returns the current query table.
func (e *Engine) snapshot() []*queryState {
	if p := e.table.Load(); p != nil {
		return *p
	}
	return nil
}

// New builds a multi-query engine over k sites with the given initial
// queries attached from update 0 (silently — a query present from the
// start has no history to bootstrap, so with one initial query the wire
// traffic is byte-identical to a standalone deployment). It returns the
// coordinator half and the k site halves; more queries can attach later
// through Coord.Attach.
func New(k int, specs []Spec) (*Coord, []dist.SiteAlgo, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("query: New needs k > 0")
	}
	eng := &Engine{k: k, dead: make([]bool, k)}
	coord := &Coord{eng: eng}
	sites := make([]*Site, k)
	for i := range sites {
		sites[i] = &Site{eng: eng, id: i}
	}
	for _, spec := range specs {
		q, err := buildQuery(k, spec)
		if err != nil {
			return nil, nil, err
		}
		qid := eng.register(q)
		for _, s := range sites {
			s.preattach(qid, q)
		}
	}
	out := make([]dist.SiteAlgo, k)
	for i, s := range sites {
		out[i] = s
	}
	return coord, out, nil
}

// Coord is the coordinator half of the engine. It implements
// dist.CoordAlgo (Estimate returns query 0's estimate, preserving the
// standalone contract at Q = 1), dist.CoordRejoiner (re-announcing queries
// and forwarding resync to the children), and dist.Classifier (per-query
// Stats attribution — install it on the runtime with SetClassifier).
type Coord struct {
	eng *Engine
}

// OnMessage implements dist.CoordAlgo: demultiplex and dispatch to the
// owning child. Messages for unknown or detached queries (in flight across
// a detach, or corrupted) are discarded.
func (c *Coord) OnMessage(m dist.Msg, out dist.Outbox) {
	// Query 0 is tagged identically to a standalone deployment (Tag is the
	// identity at qid 0), so its traffic — all of it, at Q = 1 — skips the
	// demux copy and the tag wrapper. The wrappers were ~half the engine's
	// per-message overhead in the E06/E07 profile.
	if m.Site == dist.CoordID || (m.Site >= 0 && int(m.Site) < c.eng.k) {
		if q := c.eng.q0.Load(); q != nil && !q.detached {
			q.coord.OnMessage(m, out)
		}
		return
	}
	qid, inner := Demux(m, c.eng.k)
	q := c.eng.get(qid)
	if q == nil || q.detached {
		return
	}
	q.coordOut.reset(out)
	q.coord.OnMessage(inner, &q.coordOut)
}

// Estimate implements dist.CoordAlgo: the estimate of query 0. The
// harness polls it at every quiescent chunk, so it goes through the cached
// query-0 entry.
func (c *Coord) Estimate() int64 {
	if q := c.eng.q0.Load(); q != nil {
		return q.coord.Estimate()
	}
	return 0
}

// OnSiteRejoin implements dist.CoordRejoiner: re-announce every live query
// (idempotent — the site ignores announcements for queries it already
// runs, and a site that missed the original attach builds and bootstraps
// the child now) and forward the resync to each child coordinator.
func (c *Coord) OnSiteRejoin(site int, out dist.Outbox) {
	for qid, q := range c.eng.snapshot() {
		if q.detached {
			continue
		}
		out.SendTo(site, attachMsg(qid))
		q.coordOut.reset(out)
		q.coord.OnSiteRejoin(site, &q.coordOut)
	}
}

// Class implements dist.Classifier: the query id a message is tagged with,
// making the runtime's per-class Stats the engine's per-query cost split.
// A message tagged for a query the registry does not hold (a corrupt or
// hostile frame) is class −1, so no frame can grow the per-class table
// past the registry.
func (c *Coord) Class(m *dist.Msg) int {
	qid, _ := Demux(*m, c.eng.k)
	if qid >= len(c.eng.snapshot()) {
		return -1
	}
	return qid
}

// UnderlyingBlockCoord implements track.BlockCoordSource: query 0's block
// partitioner, so harness instrumentation (block counts, per-block
// variability snapshots) sees through the engine. It is nil when query 0
// is a frequency or threshold query, as for those trackers standalone —
// the harness then leaves its block instrumentation off.
func (c *Coord) UnderlyingBlockCoord() *track.BlockCoord {
	q := c.eng.get(0)
	if q == nil || q.freqT != nil || q.thresh != nil {
		return nil
	}
	return q.coord
}

// Attach registers a new query mid-stream and broadcasts its announcement.
// Run it through the runtime's Inject hook so the broadcast enters the
// network at a defined point; sites bootstrap the query's state when the
// announcement reaches them. It returns the new query id.
func (c *Coord) Attach(spec Spec, out dist.Outbox) (int, error) {
	q, err := buildQuery(c.eng.k, spec)
	if err != nil {
		return 0, err
	}
	qid := c.eng.register(q)
	// A query born while a slot is dead must excuse that slot from its
	// collections from the start, or its first collection wedges on a reply
	// that cannot come.
	for site, dead := range c.eng.dead {
		if dead {
			q.coordOut.reset(out)
			q.coord.OnSiteDead(site, &q.coordOut)
		}
	}
	out.Broadcast(attachMsg(qid))
	return qid, nil
}

// Detach retires a query: its estimate freezes at the coordinator, sites
// drop their children when the broadcast reaches them, and messages still
// in flight are discarded on arrival. The query id stays allocated so
// per-query stats remain addressable.
func (c *Coord) Detach(qid int, out dist.Outbox) error {
	q := c.eng.get(qid)
	if q == nil {
		return fmt.Errorf("query: Detach: no query %d", qid)
	}
	if q.detached {
		return nil
	}
	q.detached = true
	out.Broadcast(dist.Msg{Kind: dist.KindDetach, Site: int32(-(1 + qid))})
	return nil
}

// NumQueries returns the number of registered queries (attached or
// detached); query ids are 0..NumQueries()-1.
func (c *Coord) NumQueries() int { return len(c.eng.snapshot()) }

// EstimateQuery returns query qid's current estimate (the F1 estimate for
// a frequency query) and whether the id exists.
func (c *Coord) EstimateQuery(qid int) (int64, bool) {
	q := c.eng.get(qid)
	if q == nil {
		return 0, false
	}
	return q.coord.Estimate(), true
}

// Frequency answers a per-item query against a frequency query's merged
// counters; ok is false when qid does not name a frequency query.
func (c *Coord) Frequency(qid int, item uint64) (int64, bool) {
	q := c.eng.get(qid)
	if q == nil || q.freqT == nil {
		return 0, false
	}
	return q.freqT.Frequency(item), true
}

// ThresholdState answers a threshold query; ok is false when qid does not
// name one.
func (c *Coord) ThresholdState(qid int) (track.ThresholdState, bool) {
	q := c.eng.get(qid)
	if q == nil || q.thresh == nil {
		return 0, false
	}
	return q.thresh.State(), true
}

// Status is one query's row in a live status report.
type Status struct {
	ID       int     `json:"id"`
	Name     string  `json:"name"`
	Algo     string  `json:"algo"`
	Eps      float64 `json:"eps"`
	Filter   string  `json:"filter,omitempty"`
	Detached bool    `json:"detached,omitempty"`
	Estimate int64   `json:"estimate"`
	// State is the threshold verdict ("above"/"below"), empty otherwise.
	State string `json:"state,omitempty"`
	// Degraded reports that this query's coordinator is currently excusing
	// at least one dead slot from its collections: the estimate is still
	// served, but its error bound is widened by that slot's unreported
	// in-block state until a replacement takes over.
	Degraded bool `json:"degraded,omitempty"`
}

// Status reports every registered query. Call it at a quiescent point (or
// through the runtime's Inject hook on the TCP transport) so the estimates
// are consistent.
func (c *Coord) Status() []Status {
	qs := c.eng.snapshot()
	out := make([]Status, len(qs))
	for qid, q := range qs {
		st := Status{
			ID:       qid,
			Name:     q.spec.Label(qid),
			Algo:     q.spec.Algo,
			Eps:      q.spec.Eps,
			Detached: q.detached,
			Estimate: q.coord.Estimate(),
		}
		if q.spec.Filter != nil {
			st.Filter = q.spec.Filter.Name
		}
		if q.thresh != nil {
			st.State = q.thresh.State().String()
		}
		st.Degraded = !q.detached && queryDegraded(c.eng.k, q)
		out[qid] = st
	}
	return out
}

// siteChild is one attached query at one site.
//
// A quiet child is one whose BlockSite has a quiet path (det, threshold
// and their filtered forms). An update that fits its budget is only
// counted into the pending run (n, sum), which the child absorbs before
// any call into it. budget is the cost the child can still take without a
// call, −1 when stale; a child without a quiet path keeps it at −1, so it
// is called for every update its filter accepts.
type siteChild struct {
	block  *track.BlockSite
	filter func(uint64) bool
	out    tagOutbox

	quiet  bool
	budget int64
	n, sum int64
}

// sync applies ch's pending run and marks its budget stale. Every call
// into the child other than the fan-out's OnUpdate goes after it.
//
//varlint:zeroalloc
func (ch *siteChild) sync() {
	if ch.n > 0 {
		ch.block.Absorb(ch.n, ch.sum)
		ch.n, ch.sum = 0, 0
	}
	ch.budget = -1
}

// dst returns the outbox ch sends through. Query 0 sends untagged (Tag is
// the identity at qid 0), so its child writes straight to the runtime's.
//
//varlint:zeroalloc
func (ch *siteChild) dst(out dist.Outbox) dist.Outbox {
	if ch.out.qid == 0 {
		return out
	}
	ch.out.reset(out)
	return &ch.out
}

// Site is the site half of the engine at one site. It implements
// dist.SiteAlgo (fanning updates out to the attached children and
// demultiplexing coordinator messages), dist.BatchSiteAlgo (the same
// fan-out over a run, up to the first update that sends), dist.SiteRejoiner
// and dist.SiteTakeover. Alongside the children it maintains the spine —
// update count, ± delta mass, and net per-item counts — which is what lets
// a query attaching mid-stream bootstrap the history it never saw.
type Site struct {
	eng *Engine //varlint:volatile wiring to the shared registry; the restoring process re-registers the same specs
	id  int     //varlint:volatile construction-time identity; RebuildSite builds the restore target with the same id

	// children is indexed by query id; nil entries are unattached or
	// detached queries.
	children []*siteChild

	// The spine: everything a future attach might need to reconstruct.
	updates     int64
	plus, minus int64
	items       itemtab.Table[int64]

	// One-item pending-delta cache in front of items: cacheN is the net
	// delta of cacheItem not yet folded into the table. A run of one item
	// (scalar streams, walks, heavy zipf heads) only adds to it; switching
	// items folds it in with one Upsert. Readers of items flush it first.
	cacheItem uint64 //varlint:volatile pending-delta cache; Snap flushes it when encoding and empties it when decoding
	cacheN    int64  //varlint:volatile pending-delta cache; Snap flushes it when encoding and empties it when decoding

	// sent passes an OnUpdateBatch fan-out's sends on to the runtime's
	// outbox and counts them, so the batch stops after the first update
	// that sent without allocating.
	sent countOutbox //varlint:volatile per-call transient; OnUpdateBatch re-arms it

	// rebuilt marks a replacement site (Coord.RebuildSite): the registry's
	// prebuilt site halves belong to the dead predecessor, so attach must
	// construct fresh child algorithms instead of reusing them.
	rebuilt bool //varlint:volatile per-incarnation flag; Snap sets it when decoding
}

// countOutbox forwards to a runtime outbox and counts the sends.
type countOutbox struct {
	inner dist.Outbox
	n     int
}

func (o *countOutbox) Send(m dist.Msg)             { o.n++; o.inner.Send(m) }
func (o *countOutbox) SendTo(site int, m dist.Msg) { o.n++; o.inner.SendTo(site, m) }
func (o *countOutbox) Broadcast(m dist.Msg)        { o.n++; o.inner.Broadcast(m) }

// preattach installs a child for an initial query, silently: no history
// exists yet, so no bootstrap traffic — which keeps the Q = 1 engine
// byte-identical to a standalone deployment.
func (s *Site) preattach(qid int, q *queryState) {
	s.installChild(qid, q, q.sites[s.id])
}

// installChild wires block in as the child for qid, a registered query id,
// with a stale budget. Ordinary attaches pass the registry's prebuilt site
// half; a site rebuilt after a crash passes a fresh one instead (the
// registry's object is the dead predecessor's and still holds its state —
// see snapshot.go).
func (s *Site) installChild(qid int, q *queryState, block *track.BlockSite) *siteChild {
	for len(s.children) <= qid {
		s.children = append(s.children, nil)
	}
	ch := &siteChild{block: block, out: tagOutbox{qid: qid, k: s.eng.k}, quiet: block.Quiet() >= 0, budget: -1}
	if q.spec.Filter != nil {
		ch.filter = q.spec.Filter.Match
	}
	s.children[qid] = ch
	return ch
}

// syncAll syncs every child: the calls that reach every child, or the
// state of all of them, go after it.
func (s *Site) syncAll() {
	for _, ch := range s.children {
		if ch != nil {
			ch.sync()
		}
	}
}

// spineMass folds one delta into the ± mass split, branch-free: a
// random-sign delta stream would mispredict a sign branch about half the
// time, once per update.
//
//varlint:zeroalloc
func (s *Site) spineMass(delta int64) {
	mask := delta >> 63
	s.plus += delta &^ mask
	s.minus += (-delta) & mask
}

// spineItem folds one item delta into the spine through the pending-delta
// cache.
//
//varlint:zeroalloc
func (s *Site) spineItem(item uint64, delta int64) {
	if item != s.cacheItem {
		s.flushItemCache()
		s.cacheItem = item
	}
	s.cacheN += delta
}

// flushItemCache folds the pending delta into items, deleting a count that
// reaches zero: items holds exactly the nonzero net counts.
func (s *Site) flushItemCache() {
	if s.cacheN == 0 {
		return
	}
	n := s.items.Upsert(s.cacheItem)
	*n += s.cacheN
	if *n == 0 {
		s.items.Delete(s.cacheItem)
	}
	s.cacheN = 0
}

// OnUpdate implements dist.SiteAlgo: maintain the spine, then fan the
// update out to every attached child whose filter accepts it. An update
// that fits a quiet child's budget joins its pending run. Any other
// reaches the child after that run, and a quiet child's budget is re-read
// after the call, whether or not it sent: until the next call only a
// delivery can change the child, and a delivery makes the budget stale.
//
//varlint:zeroalloc
func (s *Site) OnUpdate(u stream.Update, out dist.Outbox) {
	s.updates++
	s.spineMass(u.Delta)
	s.spineItem(u.Item, u.Delta)
	// max(1, |Δ|), as in dist's quiet pass: a zero delta still counts
	// towards the count reports.
	cost := max(u.Delta, -u.Delta, 1)
	for _, ch := range s.children {
		if ch == nil || (ch.filter != nil && !ch.filter(u.Item)) {
			continue
		}
		if ch.budget >= cost {
			ch.budget -= cost
			ch.n++
			ch.sum += u.Delta
			continue
		}
		ch.sync()
		ch.block.OnUpdate(u, ch.dst(out))
		if ch.quiet {
			ch.budget = ch.block.Quiet()
		}
	}
}

// OnUpdateBatch implements dist.BatchSiteAlgo: OnUpdate over us, stopping
// right after the first update on which some child sent. The engine has
// no batch path of its own: its same-site runs are short, and per-run
// child machinery cost more than the per-update fan-out it replaced
// (DESIGN.md "Batched multi-query ingestion").
//
//varlint:zeroalloc
func (s *Site) OnUpdateBatch(us []stream.Update, out dist.Outbox) int {
	s.sent = countOutbox{inner: out}
	for i, u := range us {
		s.OnUpdate(u, &s.sent)
		if s.sent.n > 0 {
			return i + 1
		}
	}
	return len(us)
}

// OnMessage implements dist.SiteAlgo: demultiplex; handle the attach and
// detach control announcements; dispatch everything else to the owning
// child, which alone syncs. Messages for queries this site does not run
// (an attach lost on a faulty runtime and not yet resent) are discarded.
func (s *Site) OnMessage(m dist.Msg, out dist.Outbox) {
	qid, inner := Demux(m, s.eng.k)
	if m.Kind == dist.KindAttach || m.Kind == dist.KindDetach {
		s.syncAll()
		if m.Kind == dist.KindAttach {
			s.attach(qid, out)
		} else if qid >= 0 && qid < len(s.children) {
			s.children[qid] = nil
		}
		return
	}
	if qid < 0 || qid >= len(s.children) || s.children[qid] == nil {
		return
	}
	ch := s.children[qid]
	ch.sync()
	ch.block.OnMessage(inner, ch.dst(out))
}

// OnRejoin implements dist.SiteRejoiner by fanning out to the children.
func (s *Site) OnRejoin(out dist.Outbox) {
	s.syncAll()
	for _, ch := range s.children {
		if ch != nil {
			ch.block.OnRejoin(ch.dst(out))
		}
	}
}

// attach handles a KindAttach announcement: build the child from the
// shared registry and push the site's pre-attach history through the
// bootstrap resync machinery. Re-announcements (rejoin resync) are no-ops,
// and so are announcements for ids the registry does not know — the child
// table only ever grows to a registered id.
func (s *Site) attach(qid int, out dist.Outbox) {
	q := s.eng.get(qid)
	if q == nil || (qid < len(s.children) && s.children[qid] != nil) {
		return
	}
	if s.rebuilt {
		qf, err := buildQuery(s.eng.k, q.spec)
		if err != nil {
			return
		}
		s.installChild(qid, q, qf.sites[s.id])
	} else {
		s.preattach(qid, q)
	}
	if s.updates == 0 {
		return
	}
	ch := s.children[qid]
	ch.block.BootstrapAttach(s.history(q.spec.Filter), ch.dst(out))
}

// history snapshots the spine as a track.AttachState. An unfiltered query
// gets the exact history — including the live items table, which the
// bootstrapper contract forbids retaining past the call; a filtered one
// gets the best reconstruction the net per-item counts allow (the ± split
// and update count are lower bounds under cancellation — the first block
// collection after bootstrap makes the boundary exact regardless, see
// track/attach.go).
func (s *Site) history(f *Filter) track.AttachState {
	s.flushItemCache()
	if f == nil {
		return track.AttachState{Updates: s.updates, Plus: s.plus, Minus: s.minus, Items: &s.items}
	}
	st := track.AttachState{Items: new(itemtab.Table[int64])}
	for item, n := range s.items.Range {
		if !f.Match(item) {
			continue
		}
		v := *n
		*st.Items.Upsert(item) = v
		if v > 0 {
			st.Plus += v
			st.Updates += v
		} else {
			st.Minus -= v
			st.Updates -= v
		}
	}
	return st
}

// Spine returns the site's spine counters (updates ingested, net mass) for
// diagnostics.
func (s *Site) Spine() (updates, net int64) { return s.updates, s.plus - s.minus }
