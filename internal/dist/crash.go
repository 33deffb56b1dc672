package dist

// Crash faults and warm takeover on AsyncSim.
//
// A crash (ScheduleCrash) kills a site's process at a virtual tick:
// in-flight messages to and from it are lost, its local stream updates
// accumulate in a durable queue, and — unlike the
// disconnect/rejoin churn of ScheduleDown/ScheduleUp — the same process
// never comes back. The slot stays dead until ScheduleTakeover splices a
// replacement in, at which point the runtime fires the control-plane hooks
// (CoordTakeoverHandler, SiteTakeover), replays the queued updates, and
// restarts the slot's heartbeat chain. Every delivery is stamped with its
// slot's incarnation (event.epoch); crash and takeover each increment it,
// so the replacement's first inbound message is the coordinator's takeover
// acknowledgement — never a stale delivery meant for its predecessor.
//
// Failure detection (NetModel.HeartbeatEvery > 0) is heartbeat-driven on
// the same virtual clock: each site beacons every HeartbeatEvery ticks and
// a coordinator-side detector checks on the same cadence, declaring a site
// dead after NetModel.HeartbeatMiss consecutive overdue intervals and
// firing the coordinator's CoordFailureHandler.OnSiteDead hook. Heartbeats
// are transport-internal: they draw no fault-model randomness, hold no
// link-FIFO floor, and touch no message Stats — a crash-free run with
// heartbeats enabled is byte-identical to one without, even under faulty
// models. They fail to arrive only when the slot is partitioned or dead.
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
// snapshot never saw. Unlike a dead site's local updates, nothing is queued
// for the dead coordinator: AsyncSim models the announce/ack resync, while
// backlog replay is the TCP transport's job.

// ScheduleCrash crash-faults site at virtual tick at. Crashing an
// already-crashed slot is a no-op.
func (s *AsyncSim) ScheduleCrash(site int, at int64) {
	e := event{at: at, kind: evCrash, to: int32(site)}
	s.pushEvent(&e)
}

// ScheduleTakeover splices algo into site's slot at virtual tick at,
// provided the slot is crashed by then (otherwise the event is a no-op).
// At most one takeover per site may be outstanding; scheduling another
// replaces the pending algorithm.
func (s *AsyncSim) ScheduleTakeover(site int, at int64, algo SiteAlgo) {
	if algo == nil {
		panic("dist: ScheduleTakeover needs a site algorithm")
	}
	s.replacement[site] = algo
	e := event{at: at, kind: evTakeover, to: int32(site)}
	s.pushEvent(&e)
}

// ReplaceSite swaps site's algorithm in place, with no protocol traffic, no
// epoch change, and no crash required. It exists for the snapshot property
// tests: the caller guarantees the replacement's state is identical to the
// old algorithm's (track.RestoreSite), so the swap is unobservable.
func (s *AsyncSim) ReplaceSite(site int, algo SiteAlgo) {
	s.sites[site] = algo
	if b, ok := algo.(BatchSiteAlgo); ok {
		s.batchSites[site] = b
	} else {
		s.batchSites[site] = nil
	}
}

// ScheduleCoordCrash crash-faults the coordinator at virtual tick at.
// Crashing an already-crashed coordinator is a no-op.
func (s *AsyncSim) ScheduleCoordCrash(at int64) {
	e := event{at: at, kind: evCoordCrash}
	s.pushEvent(&e)
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
	s.coordStandby = algo
	e := event{at: at, kind: evCoordTakeover}
	s.pushEvent(&e)
}

// ReplaceCoord swaps the coordinator algorithm in place, with no protocol
// traffic, no epoch change, and no crash required. It exists for the
// snapshot property tests: the caller guarantees the replacement's state is
// identical to the old algorithm's (track.RestoreCoord), so the swap is
// unobservable.
func (s *AsyncSim) ReplaceCoord(algo CoordAlgo) { s.coord = algo }

// CoordCrashed reports whether the coordinator slot is currently
// crash-faulted.
func (s *AsyncSim) CoordCrashed() bool { return s.coordCrashed }

// Crashed reports whether site's slot is currently crash-faulted.
func (s *AsyncSim) Crashed(site int) bool { return s.crashed[site] }

// Suspected reports the failure detector's current verdict on site.
func (s *AsyncSim) Suspected(site int) bool { return s.suspected[site] }

// LastSeen returns the virtual tick of the last heartbeat received from
// site (0 if none yet).
func (s *AsyncSim) LastSeen(site int) int64 { return s.lastSeen[site] }

// BacklogLen returns the number of updates queued for a dead slot.
func (s *AsyncSim) BacklogLen(site int) int { return len(s.backlog[site]) }

func (s *AsyncSim) processCrash(e *event) {
	site := int(e.to)
	if s.crashed[site] {
		return
	}
	s.crashed[site] = true
	s.epoch[site]++
	if s.Events != nil {
		s.Events(Event{Kind: EvSiteCrash, T: s.curT, Now: s.now, Site: e.to,
			A: int64(s.epoch[site])})
	}
}

func (s *AsyncSim) processTakeover(e *event) {
	site := int(e.to)
	algo := s.replacement[site]
	s.replacement[site] = nil
	if algo == nil || !s.crashed[site] {
		return
	}
	s.crashed[site] = false
	s.suspected[site] = false
	s.hbRun[site] = 0
	s.lastSeen[site] = e.at
	s.epoch[site]++
	s.sites[site] = algo
	if b, ok := algo.(BatchSiteAlgo); ok {
		s.batchSites[site] = b
	} else {
		s.batchSites[site] = nil
	}
	s.stats.Takeovers++
	if s.Events != nil {
		s.Events(Event{Kind: EvTakeover, T: s.curT, Now: s.now, Site: e.to,
			A: int64(s.epoch[site]), B: int64(len(s.backlog[site]))})
	}
	// Control-plane registration first (on TCP the re-dial handshake
	// precedes all frames), then the replacement's own announcement, then
	// the replay of the durable local queue.
	if h, ok := s.coord.(CoordTakeoverHandler); ok {
		h.OnSiteTakeover(site, s.coordOut)
	}
	if t, ok := algo.(SiteTakeover); ok {
		t.OnTakeover(s.siteOut[site])
	}
	buf := s.backlog[site]
	s.backlog[site] = nil
	for i := range buf {
		algo.OnUpdate(buf[i], s.siteOut[site])
	}
	if s.model.HeartbeatEvery > 0 && !s.closing {
		hb := event{at: e.at + s.model.HeartbeatEvery, kind: evHeartbeat, to: e.to}
		s.pushEvent(&hb)
	}
}

func (s *AsyncSim) processCoordCrash(e *event) {
	if s.coordCrashed {
		return
	}
	s.coordCrashed = true
	s.coordEpoch++
	if s.Events != nil {
		s.Events(Event{Kind: EvCoordCrash, T: s.curT, Now: s.now,
			Site: CoordID, A: int64(s.coordEpoch)})
	}
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
	if s.Events != nil {
		s.Events(Event{Kind: EvCoordTakeover, T: s.curT, Now: s.now,
			Site: CoordID, A: int64(s.coordEpoch)})
	}
	// The standby's detector starts from a clean slate: every site gets a
	// grace period as if it had just beaconed (its beacons during the
	// outage went nowhere — that is the old coordinator's loss, not the
	// site's), while verdicts already reached before the crash stand.
	for i := range s.sites {
		s.lastSeen[i] = e.at
		s.hbRun[i] = 0
	}
	if t, ok := algo.(CoordTakeover); ok {
		for i := range s.sites {
			t.OnCoordTakeover(i, int64(s.coordEpoch), s.coordOut)
		}
	}
}

// processHeartbeat emits one beacon from a live site and schedules the next.
//
//varlint:zeroalloc
func (s *AsyncSim) processHeartbeat(e *event) {
	site := int(e.to)
	if s.closing || s.crashed[site] {
		return // the chain stops; takeover restarts it
	}
	s.stats.HeartbeatsSent++
	if !s.down[site] {
		a := event{at: e.at + s.model.Latency, kind: evHbArrive, to: e.to,
			epoch: s.epoch[site], cepoch: s.coordEpoch}
		s.pushEvent(&a)
	}
	next := event{at: e.at + s.model.HeartbeatEvery, kind: evHeartbeat, to: e.to}
	s.pushEvent(&next)
}

// processHbArrive folds one beacon arrival into the failure detector.
//
//varlint:zeroalloc
func (s *AsyncSim) processHbArrive(e *event) {
	site := int(e.to)
	if s.crashed[site] || s.epoch[site] != e.epoch || s.down[site] ||
		s.coordCrashed || e.cepoch != s.coordEpoch {
		return // lost: an incarnation died, or the partition ate it
	}
	s.stats.HeartbeatsRecv++
	s.lastSeen[site] = e.at
	if s.suspected[site] {
		// The site was declared dead but its incarnation still beacons: the
		// verdict was a false positive (a partition outlasting the miss
		// budget, not a crash). Rescind it so the algorithm stops excusing
		// the slot from collections — latched suspicion would otherwise
		// leak the site's reply content until a takeover that never comes.
		s.suspected[site] = false
		s.hbRun[site] = 0
		if s.Events != nil {
			s.Events(Event{Kind: EvSiteAlive, T: s.curT, Now: s.now, Site: e.to})
		}
		if h, ok := s.coord.(CoordRecoverHandler); ok {
			h.OnSiteAlive(site, s.coordOut)
		}
	}
}

// processHbCheck runs one detector sweep over the beacon arrival times.
//
//varlint:zeroalloc
func (s *AsyncSim) processHbCheck(e *event) {
	if s.closing {
		return
	}
	if s.coordCrashed {
		// No detector runs while the coordinator is dead; the chain keeps
		// ticking so the standby's detector resumes after the takeover.
		next := event{at: e.at + s.model.HeartbeatEvery, kind: evHbCheck}
		s.pushEvent(&next)
		return
	}
	every := s.model.HeartbeatEvery
	// Overdue means more than one full beacon interval beyond the expected
	// arrival cadence — tolerant of the one beacon legitimately in flight.
	slack := 2*every + s.model.Latency
	miss := s.model.hbMiss()
	for i := range s.sites {
		if s.suspected[i] {
			continue
		}
		if e.at-s.lastSeen[i] > slack {
			s.hbRun[i]++
			s.stats.HeartbeatMisses++
			if s.Events != nil {
				s.Events(Event{Kind: EvHeartbeatMiss, T: s.curT, Now: s.now,
					Site: int32(i), A: int64(s.hbRun[i])})
			}
			if s.hbRun[i] >= miss {
				s.suspected[i] = true
				if s.Events != nil {
					s.Events(Event{Kind: EvSiteDead, T: s.curT, Now: s.now,
						Site: int32(i)})
				}
				if h, ok := s.coord.(CoordFailureHandler); ok {
					h.OnSiteDead(i, s.coordOut)
				}
			}
		} else {
			s.hbRun[i] = 0
		}
	}
	next := event{at: e.at + every, kind: evHbCheck}
	s.pushEvent(&next)
}
