package query

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/track"
)

// Crash-fault support for the multi-query engine: a Site composes its
// children's snapshots into one blob (track.SiteSnapshotter), the Coord
// reacts to the runtime's failure-detection and takeover hooks, and
// RebuildSite constructs the replacement half a warm takeover restores
// into. The per-query protocol work — watermarked held state, the
// KindTakeover announce/ack, dead-slot excusal — all lives one layer down
// in track.BlockSite / track.BlockCoord; this file only fans it out per
// child and keeps the spine (the attach-history substrate) in the blob so
// queries can keep attaching after a takeover.

// AppendSnapshot implements track.SiteSnapshotter: the spine, then every
// attached child's own snapshot, length-prefixed and keyed by query id.
// Each child absorbs its pending run first, so the blob holds no state that
// lives only in the fan-out.
func (s *Site) AppendSnapshot(b []byte) ([]byte, error) {
	s.syncAll()
	s.flushItemCache()
	b = append(b, track.SnapTagQuery)
	b = track.AppendSnapInt(b, s.updates)
	b = track.AppendSnapInt(b, s.plus)
	b = track.AppendSnapInt(b, s.minus)
	keys := s.items.SortedKeys(nil)
	b = track.AppendSnapUint(b, uint64(len(keys)))
	for _, item := range keys {
		n, _ := s.items.Get(item)
		b = track.AppendSnapUint(b, item)
		b = track.AppendSnapInt(b, n)
	}
	attached := 0
	for _, ch := range s.children {
		if ch != nil {
			attached++
		}
	}
	b = track.AppendSnapUint(b, uint64(attached))
	for qid, ch := range s.children {
		if ch == nil {
			continue
		}
		blob, err := ch.block.AppendSnapshot(nil)
		if err != nil {
			return nil, fmt.Errorf("query: child %d: %w", qid, err)
		}
		b = track.AppendSnapUint(b, uint64(qid))
		b = track.AppendSnapUint(b, uint64(len(blob)))
		b = append(b, blob...)
	}
	return b, nil
}

// RestoreSnapshot implements track.SiteSnapshotter. Child algorithms are
// built fresh through the query constructors and then overwritten from
// their blobs — never taken from the shared registry, whose site halves
// are the dead predecessor's objects. Blobs for queries detached while the
// snapshot sat on disk are skipped; a blob for a query the registry does
// not know is an error (the restoring process must register the same specs
// first). Only what AppendSnapshot can write is accepted: spine items and
// child query ids strictly increasing, and no zero spine count.
func (s *Site) RestoreSnapshot(r *track.SnapReader) error {
	r.Tag(track.SnapTagQuery)
	s.updates = r.Int()
	s.plus = r.Int()
	s.minus = r.Int()
	s.items.Clear()
	s.cacheN = 0
	nitems := r.Uint()
	for i, prev := uint64(0), uint64(0); i < nitems && r.Err() == nil; i++ {
		item, n := r.Uint(), r.Int()
		switch {
		case i > 0 && item <= prev:
			r.Fail("spine items not strictly increasing")
		case n == 0:
			r.Fail("zero spine count")
		}
		prev = item
		*s.items.Upsert(item) = n
	}
	s.children = s.children[:0]
	s.rebuilt = true
	nchildren := r.Uint()
	for i, prev := uint64(0), 0; i < nchildren && r.Err() == nil; i++ {
		qid := int(r.Uint())
		blob := r.Bytes(r.Uint())
		if i > 0 && qid <= prev {
			r.Fail("child query ids not strictly increasing")
		}
		if r.Err() != nil {
			break
		}
		prev = qid
		q := s.eng.get(qid)
		if q == nil {
			return fmt.Errorf("query: snapshot names unknown query %d (register the same specs before restoring)", qid)
		}
		if q.detached {
			continue
		}
		qf, err := buildQuery(s.eng.k, q.spec)
		if err != nil {
			return fmt.Errorf("query: rebuild query %d: %w", qid, err)
		}
		ch := s.installChild(qid, q, qf.sites[s.id])
		sr := track.NewSnapReader(blob)
		if err := ch.block.RestoreSnapshot(sr); err != nil {
			return fmt.Errorf("query: child %d: %w", qid, err)
		}
		if sr.Err() != nil {
			return fmt.Errorf("query: child %d: %w", qid, sr.Err())
		}
		if sr.Len() != 0 {
			return fmt.Errorf("query: child %d: %d trailing bytes", qid, sr.Len())
		}
	}
	return r.Err()
}

// SetSnapshotHash implements track.SnapshotHashSetter by fan-out: every
// restored child presents the same site-level blob hash in its takeover
// announcement.
func (s *Site) SetSnapshotHash(h uint64) {
	for _, ch := range s.children {
		if ch != nil {
			ch.block.SetSnapshotHash(h)
		}
	}
}

// OnTakeover implements dist.SiteTakeover by fan-out: each restored child
// announces itself to its own coordinator through the tagged outbox. A
// cold-rebuilt site has no children yet and announces nothing — its
// children arrive through the attach re-broadcast and heal through the
// ordinary block machinery.
func (s *Site) OnTakeover(out dist.Outbox) {
	s.syncAll()
	for _, ch := range s.children {
		if ch != nil {
			ch.block.OnTakeover(ch.dst(out))
		}
	}
}

// AppendSnapshot implements track.CoordSnapshotter: the engine's dead-slot
// marks, then every registered query's coordinator snapshot — detached ones
// included, so frozen estimates survive a failover — length-prefixed and
// keyed by query id. The engine coordinator holds no other state: specs are
// re-registered by the restoring process, and the registry's site halves
// belong to the sites, not to this blob.
func (c *Coord) AppendSnapshot(b []byte) ([]byte, error) {
	b = append(b, track.SnapTagQueryCoord)
	b = track.AppendSnapUint(b, uint64(c.eng.k))
	for _, dead := range c.eng.dead {
		var d uint64
		if dead {
			d = 1
		}
		b = track.AppendSnapUint(b, d)
	}
	qs := c.eng.snapshot()
	b = track.AppendSnapUint(b, uint64(len(qs)))
	for qid, q := range qs {
		blob, err := q.snap.AppendSnapshot(nil)
		if err != nil {
			return nil, fmt.Errorf("query: coordinator %d: %w", qid, err)
		}
		var det uint64
		if q.detached {
			det = 1
		}
		b = track.AppendSnapUint(b, uint64(qid))
		b = track.AppendSnapUint(b, det)
		b = track.AppendSnapUint(b, uint64(len(blob)))
		b = append(b, blob...)
	}
	return b, nil
}

// RestoreSnapshot implements track.CoordSnapshotter. The restoring process
// builds the engine with query.New over the same specs first; each blob
// section is then restored in place into the registered query's coordinator
// (so the engine's cached fast-path pointers stay valid). The blob must
// cover exactly the registered queries, in query-id order, as AppendSnapshot
// writes them: a section for a query the registry does not know is an
// error, and so is a registered query the blob leaves out. A section marked
// detached freezes the query exactly as Detach would, minus the broadcast —
// the sites already know.
func (c *Coord) RestoreSnapshot(r *track.SnapReader) error {
	r.Tag(track.SnapTagQueryCoord)
	if k := r.Uint(); r.Err() == nil && k != uint64(c.eng.k) {
		return fmt.Errorf("query: coordinator snapshot is for k=%d, restoring into k=%d", k, c.eng.k)
	}
	for i := range c.eng.dead {
		c.eng.dead[i] = r.Bool()
	}
	qs := c.eng.snapshot()
	nq := r.Uint()
	for i := uint64(0); i < nq && r.Err() == nil; i++ {
		qid := r.Uint()
		detached := r.Bool()
		blob := r.Bytes(r.Uint())
		if r.Err() != nil {
			break
		}
		if qid >= uint64(len(qs)) {
			return fmt.Errorf("query: snapshot names unknown query %d (register the same specs before restoring)", qid)
		}
		if qid != i {
			r.Fail("query ids not dense and increasing")
			break
		}
		q := qs[qid]
		sr := track.NewSnapReader(blob)
		if err := q.snap.RestoreSnapshot(sr); err != nil {
			return fmt.Errorf("query: coordinator %d: %w", qid, err)
		}
		if sr.Err() != nil {
			return fmt.Errorf("query: coordinator %d: %w", qid, sr.Err())
		}
		if sr.Len() != 0 {
			return fmt.Errorf("query: coordinator %d: %d trailing bytes", qid, sr.Len())
		}
		if detached {
			q.detached = true
		}
	}
	if r.Err() == nil && nq != uint64(len(qs)) {
		r.Fail("query count")
	}
	return r.Err()
}

// SetSnapshotHash implements track.SnapshotHashSetter by fan-out: every
// restored child coordinator presents the same engine-level blob hash in
// its KindCoordTakeover announcements.
func (c *Coord) SetSnapshotHash(h uint64) {
	for _, q := range c.eng.snapshot() {
		q.coord.SetSnapshotHash(h)
	}
}

// OnCoordTakeover implements dist.CoordTakeover: the standby engine reached
// site. Re-announce every live query first (idempotent — and a site that
// missed an attach whose broadcast died with the old coordinator builds the
// child now, just in time to answer its handshake), then fan the
// announcement out to each child coordinator through the tagged outbox.
func (c *Coord) OnCoordTakeover(site int, epoch int64, out dist.Outbox) {
	if site < 0 || site >= c.eng.k {
		return
	}
	for qid, q := range c.eng.snapshot() {
		if q.detached {
			continue
		}
		out.SendTo(site, attachMsg(qid))
		q.coordOut.reset(out)
		q.coord.OnCoordTakeover(site, epoch, &q.coordOut)
	}
}

// OnSiteDead implements dist.CoordFailureHandler: record the dead slot at
// the engine (so queries attached later excuse it too) and fan the hook out
// to every live query's coordinator for graceful degradation.
func (c *Coord) OnSiteDead(site int, out dist.Outbox) {
	if site < 0 || site >= c.eng.k {
		return
	}
	c.eng.dead[site] = true
	for _, q := range c.eng.snapshot() {
		if q.detached {
			continue
		}
		q.coordOut.reset(out)
		q.coord.OnSiteDead(site, &q.coordOut)
	}
}

// OnSiteAlive implements dist.CoordRecoverHandler: the detector rescinded
// a death verdict — the site is partitioned-but-beaconing, not crashed.
// Clear the engine's dead mark (so queries attached from now on include
// the slot) and fan the rescind out to every live query's coordinator.
func (c *Coord) OnSiteAlive(site int, out dist.Outbox) {
	if site < 0 || site >= c.eng.k {
		return
	}
	c.eng.dead[site] = false
	for _, q := range c.eng.snapshot() {
		if q.detached {
			continue
		}
		q.coordOut.reset(out)
		q.coord.OnSiteAlive(site, &q.coordOut)
	}
}

// OnSiteTakeover implements dist.CoordTakeoverHandler: the runtime spliced
// a replacement into site's slot. Clear the dead marks and re-announce
// every live query — restored children ignore the announcement (idempotent
// attach), while queries attached after the snapshot was taken get built
// fresh on the replacement and bootstrapped from its restored spine. All
// per-query protocol traffic (acknowledgement, resync) waits for each
// child's own KindTakeover announcement.
func (c *Coord) OnSiteTakeover(site int, out dist.Outbox) {
	if site < 0 || site >= c.eng.k {
		return
	}
	c.eng.dead[site] = false
	for qid, q := range c.eng.snapshot() {
		if q.detached {
			continue
		}
		q.coordOut.reset(out)
		q.coord.OnSiteTakeover(site, &q.coordOut)
		out.SendTo(site, attachMsg(qid))
	}
}

// SiteDead reports whether the engine currently considers site's slot dead.
func (c *Coord) SiteDead(site int) bool {
	return site >= 0 && site < c.eng.k && c.eng.dead[site]
}

// RebuildSite constructs a fresh site half for a slot, the shell a warm
// takeover restores a snapshot into (track.RestoreSite) before the runtime
// splices it in — or, restored into nothing, a cold naive restart. It is
// marked rebuilt: attach announcements build fresh child algorithms instead
// of reusing the registry's, which belong to the dead predecessor.
func (c *Coord) RebuildSite(id int) *Site {
	return &Site{eng: c.eng, id: id, rebuilt: true}
}

// BlockCoordFor returns query qid's block partitioner (nil for unknown
// queries), for liveness introspection and recovery instrumentation.
func (c *Coord) BlockCoordFor(qid int) *track.BlockCoord {
	if q := c.eng.get(qid); q != nil {
		return q.coord
	}
	return nil
}

// queryDegraded reports whether q's coordinator currently excuses at least
// one dead slot (see Status.Degraded).
func queryDegraded(k int, q *queryState) bool {
	for i := 0; i < k; i++ {
		if q.coord.SiteDead(i) {
			return true
		}
	}
	return false
}
