package query

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/freq"
	"repro/internal/track"
)

// Crash-fault support for the multi-query engine: a Site composes its
// children's snapshots into one blob (track.Snapshotter), the Coord
// reacts to the runtime's failure-detection and takeover hooks, and
// RebuildSite constructs the replacement half a warm takeover restores
// into. The per-query protocol work — watermarked held state, the
// KindTakeover announce/ack, dead-slot excusal — all lives one layer down
// in track.BlockSite / track.BlockCoord; this file only fans it out per
// child and keeps the spine (the attach-history substrate) in the blob so
// queries can keep attaching after a takeover.

// Snap implements track.Snapshotter: the spine, then every attached
// child's own snapshot, as a section keyed by query id. Each child absorbs
// its pending run before encoding, so the blob holds no state that lives
// only in the fan-out.
//
// Decoding builds child algorithms fresh through the query constructors
// and overwrites them from their sections — never takes them from the
// shared registry, whose site halves are the dead predecessor's objects.
// Sections for queries detached while the snapshot sat on disk are
// skipped; a section for a query the registry does not know is an error
// (the restoring process must register the same specs first). Only what
// encoding can write is accepted: spine items and child query ids strictly
// increasing, no zero spine count, and frequency sections that the shared
// rows can hold — each cell's count the spine's, and cells for exactly the
// items the query's filter accepts with a nonzero count, plus zero-count
// ones it accepts.
func (s *Site) Snap(c *track.Codec) error {
	if !c.Decoding() {
		s.syncAll()
	} else {
		s.rows = freq.Rows{}
	}
	c.Tag(track.SnapTagQuery)
	c.Int(&s.updates)
	c.Int(&s.plus)
	c.Int(&s.minus)
	s.rows.Snap(c, func(r *freq.Row) bool { return r.Net != 0 }, func(c *track.Codec, r *freq.Row) {
		c.Int(&r.Net)
		if r.Net == 0 {
			c.Fail("zero spine count")
		}
	})
	var attached uint64
	for _, ch := range s.children {
		if ch != nil {
			attached++
		}
	}
	c.Uint(&attached)
	if c.Decoding() {
		s.children = s.children[:0]
		s.rebuilt = true
		err := s.restoreChildren(c, attached)
		s.rebit()
		return err
	}
	for qid, ch := range s.children {
		if ch == nil {
			continue
		}
		id := uint64(qid)
		c.Uint(&id)
		if err := c.Sub(ch.block.Snap); err != nil {
			return fmt.Errorf("query: child %d: %w", qid, err)
		}
	}
	return nil
}

// restoreChildren decodes n child sections into freshly built children.
func (s *Site) restoreChildren(c *track.Codec, n uint64) error {
	for i, prev := uint64(0), uint64(0); i < n && c.Err() == nil; i++ {
		var qid uint64
		c.Uint(&qid)
		if i > 0 && qid <= prev {
			c.Fail("child query ids not strictly increasing")
		}
		prev = qid
		q := s.eng.get(int(qid))
		if q == nil && c.Err() == nil {
			return fmt.Errorf("query: snapshot names unknown query %d (register the same specs before restoring)", qid)
		}
		if q == nil || q.detached {
			c.Sub(nil)
			continue
		}
		ch := s.installChild(int(qid), q)
		if err := c.Sub(ch.block.Snap); err != nil {
			return fmt.Errorf("query: child %d: %w", qid, err)
		}
		if ch.col >= 0 && !s.rows.Matches(ch.col, ch.filter) {
			c.Fail("frequency cells disagree with the spine and the query's filter")
		}
	}
	return c.Err()
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

// Snap implements track.Snapshotter: the engine's dead-slot marks, then
// every registered query's coordinator snapshot — detached ones included,
// so frozen estimates survive a failover — as a section keyed by query id.
// The engine coordinator holds no other state: specs are re-registered by
// the restoring process, and the registry's site halves belong to the
// sites, not to this blob.
//
// The restoring process builds the engine with query.New over the same
// specs first; each section is then decoded in place into the registered
// query's coordinator (so the engine's cached fast-path pointers stay
// valid). The blob must cover exactly the registered queries, in query-id
// order. A section marked detached freezes the query exactly as Detach
// would, minus the broadcast — the sites already know.
func (c *Coord) Snap(cd *track.Codec) error {
	cd.Tag(track.SnapTagQueryCoord)
	cd.Fixed(c.eng.k, "engine site count")
	for i := range c.eng.dead {
		cd.Bool(&c.eng.dead[i])
	}
	qs := c.eng.snapshot()
	cd.Fixed(len(qs), "query count")
	for qid, q := range qs {
		cd.Fixed(qid, "query id")
		detached := q.detached
		cd.Bool(&detached)
		if err := cd.Sub(q.snap.Snap); err != nil {
			return fmt.Errorf("query: coordinator %d: %w", qid, err)
		}
		if detached {
			q.detached = true
		}
	}
	return cd.Err()
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
