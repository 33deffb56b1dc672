package dist

import (
	"math/bits"

	"repro/internal/stream"
)

// Crash faults and warm takeover on AsyncSim.
//
// A crash (ScheduleCrash) kills a site's process at a virtual tick:
// in-flight messages to and from it are lost, its local stream updates
// accumulate in a durable backlog, and — unlike the
// disconnect/rejoin churn of ScheduleDown/ScheduleUp — the same process
// never comes back. The slot stays dead until ScheduleTakeover splices a
// replacement in, at which point the runtime fires the control-plane hooks
// (CoordTakeoverHandler, SiteTakeover), replays the backlog, and
// restarts the slot's beacons in a round of its own. Every delivery is
// stamped with its slot's incarnation (event.epoch); crash and takeover
// each increment it, so the replacement's first inbound message is the
// coordinator's takeover acknowledgement — never a stale delivery meant
// for its predecessor.
//
// Failure detection (NetModel.HeartbeatEvery > 0) drives the liveness core
// TCP shares, on the same virtual clock: each site beacons every
// HeartbeatEvery ticks and the detector sweeps on the same cadence, with
// NetModel.HeartbeatMiss as its miss threshold. Heartbeats are
// transport-internal: they draw no fault-model randomness, hold no
// link-FIFO floor, and touch no message Stats — a crash-free run with
// heartbeats enabled is byte-identical to one without, even under faulty
// models. They fail to arrive only when the slot is partitioned or dead.
//
// Sites whose beacons share a phase beacon as one round: a single
// scheduler event sends for up to 64 of them, in ascending site order,
// and a single event lands their beacons (see processBeacon). A round is
// exact: per-site beacon and arrival events of one phase would be pushed
// back to back, so nothing could fall between them in the (at, seq)
// order. NewAsyncSim starts ⌈k/64⌉ rounds, or k rounds of one when
// Latency == HeartbeatEvery (see NewAsyncSim); a takeover starts a round
// of one at its own phase.
//
// The coordinator slot crash-faults the same way (ScheduleCoordCrash /
// ScheduleCoordTakeover): every delivery is stamped with the coordinator
// incarnation too (event.cepoch), crash and takeover each increment it, and
// anything in flight across the outage — site reports sent before the
// crash, reports sent into the dead slot, broadcasts the old coordinator
// emitted — is dropped, never folded into the standby. The standby arrives
// warm (restored from a track.RestoreCoord snapshot by the caller) and the
// splice fires CoordTakeover.OnCoordTakeover once per site, opening the
// KindCoordTakeover handshake that re-derives whatever reply content the
// snapshot never saw. The sites keep ingesting through the outage; only
// their messages are lost. On TCP the outage severs every connection, so
// NetCluster holds the sites' updates in the same backlog and replays them
// into the standby.

// backlog is the durable per-slot update queue of both fault-tolerant
// deployments: a slot's data source outlives its process (on TCP, its
// connection), so updates it cannot ingest are held here and replayed,
// oldest first, into its next incarnation.
type backlog [][]stream.Update

// hold queues u for its slot.
func (b backlog) hold(u stream.Update) { b[u.Site] = append(b[u.Site], u) }

// take empties slot i's queue and returns it, oldest first.
func (b backlog) take(i int) []stream.Update {
	q := b[i]
	b[i] = nil
	return q
}

// ScheduleCrash crash-faults site at virtual tick at. Crashing an
// already-crashed slot is a no-op.
func (s *AsyncSim) ScheduleCrash(site int, at int64) {
	s.schedule(evCrash, int32(site), at)
}

// ScheduleTakeover splices algo into site's slot at virtual tick at,
// provided the slot is crashed by then (otherwise the event is a no-op).
// At most one takeover per site may be outstanding; scheduling another
// replaces the pending algorithm.
func (s *AsyncSim) ScheduleTakeover(site int, at int64, algo SiteAlgo) {
	if algo == nil {
		panic("dist: ScheduleTakeover needs a site algorithm")
	}
	s.schedule(evTakeover, int32(site), at) // first: it leaves the lane
	s.replacement[site] = algo
}

// WithSite runs fn on site's current algorithm; between events every
// point is consistent, so unlike NetCluster.WithSite it never fails.
func (s *AsyncSim) WithSite(site int, fn func(SiteAlgo)) error {
	fn(s.sites[site])
	return nil
}

// ScheduleCoordCrash crash-faults the coordinator at virtual tick at.
// Crashing an already-crashed coordinator is a no-op.
func (s *AsyncSim) ScheduleCoordCrash(at int64) {
	s.schedule(evCoordCrash, CoordID, at)
}

// ScheduleCoordTakeover splices algo into the coordinator slot at virtual
// tick at, provided the coordinator is crashed by then (otherwise the event
// is a no-op). At most one coordinator takeover may be outstanding;
// scheduling another replaces the pending algorithm. The splice fires
// CoordTakeover.OnCoordTakeover once per site if algo implements it.
func (s *AsyncSim) ScheduleCoordTakeover(at int64, algo CoordAlgo) {
	if algo == nil {
		panic("dist: ScheduleCoordTakeover needs a coordinator algorithm")
	}
	s.schedule(evCoordTakeover, CoordID, at) // first: it leaves the lane
	s.coordStandby = algo
}

// ReplaceCoord swaps the coordinator algorithm in place, with no protocol
// traffic, no epoch change, and no crash required — ReplaceSite's
// coordinator-side twin. It exists for the snapshot property tests: the
// caller guarantees the replacement's state is identical to the old
// algorithm's (track.RestoreCoord), so the swap is unobservable.
func (s *AsyncSim) ReplaceCoord(algo CoordAlgo) { s.coord = algo }

// CoordCrashed reports whether the coordinator slot is currently
// crash-faulted.
func (s *AsyncSim) CoordCrashed() bool { return s.coordCrashed }

// Crashed reports whether site's slot is currently crash-faulted.
func (s *AsyncSim) Crashed(site int) bool { return !s.onLane() && s.live.slots[site].ended }

// Suspected reports the failure detector's current verdict on site.
func (s *AsyncSim) Suspected(site int) bool { return !s.onLane() && s.live.slots[site].dead }

// BacklogLen returns the number of updates queued for a dead slot.
func (s *AsyncSim) BacklogLen(site int) int {
	if s.onLane() {
		return 0
	}
	return len(s.backlog[site])
}

func (s *AsyncSim) processCrash(e *event) {
	site := int(e.to)
	if s.live.slots[site].ended {
		return
	}
	s.live.ended(site)
	s.hold(site)
	s.bumpEpoch(site)
	s.live.emit(EvSiteCrash, e.to, int64(s.epoch[site]), 0)
}

func (s *AsyncSim) processTakeover(e *event) {
	site, at := int(e.to), e.at
	algo := s.replacement[site]
	s.replacement[site] = nil
	if algo == nil || !s.live.slots[site].ended {
		return
	}
	s.bumpEpoch(site)
	s.ReplaceSite(site, algo)
	s.slots[site].held = false
	// Control-plane registration first (on TCP the re-dial handshake
	// precedes all frames), then the replacement's own announcement, then
	// the replay of the durable local queue.
	s.live.splice(site, at, int64(s.epoch[site]), int64(len(s.backlog[site])))
	if t, ok := algo.(SiteTakeover); ok {
		t.OnTakeover(s.siteOut[site])
	}
	for _, u := range s.backlog.take(site) {
		algo.OnUpdate(u, s.siteOut[site])
	}
	if s.model.HeartbeatEvery > 0 && !s.closing {
		s.scheduleBeacon(site, 1, 0, at+s.model.HeartbeatEvery)
	}
}

// bumpEpoch starts a new incarnation of site's slot.
func (s *AsyncSim) bumpEpoch(site int) {
	s.epoch[site]++
	s.incarnation++
	s.epochAt[site] = s.incarnation
}

func (s *AsyncSim) processCoordCrash(e *event) {
	if s.coordCrashed {
		return
	}
	s.coordCrashed = true
	s.coordEpoch++
	s.live.emit(EvCoordCrash, CoordID, int64(s.coordEpoch), 0)
}

func (s *AsyncSim) processCoordTakeover(e *event) {
	algo := s.coordStandby
	s.coordStandby = nil
	if algo == nil || !s.coordCrashed {
		return
	}
	s.coordCrashed = false
	s.coordEpoch++
	s.coord = algo
	s.stats.CoordTakeovers++
	s.live.emit(EvCoordTakeover, CoordID, int64(s.coordEpoch), 0)
	s.live.coordSplice(e.at)
	if t, ok := algo.(CoordTakeover); ok {
		for i := range s.sites {
			t.OnCoordTakeover(i, int64(s.coordEpoch), s.coordOut)
		}
	}
}

// scheduleBeacon schedules a beacon round at tick at over the sites base+b
// for each bit b: send holds the members that beacon then, arrive the
// members whose earlier beacon lands then, sent under the current
// incarnations.
//
//varlint:zeroalloc
func (s *AsyncSim) scheduleBeacon(base int, send, arrive uint64, at int64) {
	idx, e := s.queue.alloc()
	e.at, e.kind, e.from, e.to, e.attempt, e.sent = at, evBeacon, int32(base), 0, 0, 0
	e.epoch, e.cepoch, e.msg = s.incarnation, s.coordEpoch, Msg{Item: send, A: int64(arrive)}
	s.queue.link(idx, s.now)
}

// processBeacon fires one beacon round. It walks the members in ascending
// order: an arriving member's beacon is folded into the detector, and a
// sending member beacons, unless its slot has ended, which drops it from
// the round for good (a takeover restarts it in a round of its own). The
// round's beacons that leave an unpartitioned link land together one
// latency later.
//
//varlint:zeroalloc
func (s *AsyncSim) processBeacon(e *event) {
	base, at, epoch, cepoch := int(e.from), e.at, e.epoch, e.cepoch
	send, arrive := e.msg.Item, uint64(e.msg.A)
	if s.closing {
		send = 0
	}
	var sent, up uint64
	for m := send | arrive; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		bit, site := uint64(1)<<b, base+b
		if arrive&bit != 0 && s.beaconLands(site, epoch, cepoch) {
			s.live.beat(site, at)
		}
		if send&bit == 0 || s.live.slots[site].ended {
			continue
		}
		s.stats.HeartbeatsSent++
		sent |= bit
		if !s.down[site] {
			up |= bit
		}
	}
	if up != 0 {
		s.scheduleBeacon(base, 0, up, at+s.model.Latency)
	}
	if sent != 0 {
		s.scheduleBeacon(base, sent, 0, at+s.model.HeartbeatEvery)
	}
}

// beaconLands reports whether site's beacon, sent under the incarnation
// counter epoch and coordinator epoch cepoch, reaches the detector: it is
// lost if the site's incarnation ended or changed since the send, the
// partition ate it, or the coordinator it was sent to is gone.
func (s *AsyncSim) beaconLands(site int, epoch, cepoch uint32) bool {
	return !s.live.slots[site].ended && s.epochAt[site] <= epoch && !s.down[site] &&
		!s.coordCrashed && cepoch == s.coordEpoch
}

// processHbCheck runs one detector sweep and schedules the next. No
// detector runs while the coordinator is dead; the chain keeps ticking so
// the standby's detector resumes after the takeover.
//
//varlint:zeroalloc
func (s *AsyncSim) processHbCheck(e *event) {
	if s.closing {
		return
	}
	at := e.at
	if !s.coordCrashed {
		s.live.sweep(at)
	}
	s.schedule(evHbCheck, CoordID, at+s.model.HeartbeatEvery)
}
