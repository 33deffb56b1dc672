package dist

// liveness is the failure detector and takeover policy, the one
// implementation both fault-tolerant runtimes drive: AsyncSim on its
// virtual clock (times are ticks) and the TCP Coordinator on wall time
// (times are nanoseconds since the coordinator started). It is pure — the
// runtime feeds it beacons, detector sweeps, ended incarnations and
// splices, each with the current time, and it answers with verdicts: the
// liveness counters and traced events (through the runtime's ledger), and
// the coordinator algorithm's failure hooks. What stays per runtime is how
// those inputs arise (heartbeat emission, the wire, the handshakes, epoch
// gating).
//
// The policy:
//   - a slot is overdue when now − lastSeen > slack, and miss consecutive
//     overdue sweeps give a dead verdict (OnSiteDead);
//   - a beacon from a live incarnation rescinds the verdict (OnSiteAlive):
//     the outage was a partition or a stall, not a crash;
//   - a splice into a dead or ended slot clears it and counts a takeover
//     (OnSiteTakeover) — even after a rescind, since a beacon already in
//     flight when the incarnation ended cannot bring it back;
//   - a (re)starting coordinator detector gives every slot a fresh grace
//     period as if it had just beaconed, while verdicts reached stand.
type liveness struct {
	// coord is the runtime's coordinator slot and out its outbox, for the
	// failure hooks; led takes the liveness counters and events.
	coord *CoordAlgo
	out   Outbox
	led   *ledger
	slots []liveSlot
	// slack is how far a beacon may be overdue before a sweep charges a
	// miss: one full beacon interval beyond the cadence, plus whatever
	// delay the runtime knows of, so the beacon legitimately in flight is
	// tolerated.
	slack int64
	// miss is the number of consecutive overdue sweeps that give a dead
	// verdict.
	miss int
	// redials marks a runtime on which a replacement can lose its first
	// connection and re-dial as the same logical takeover (TCP): a splice
	// then counts only if the slot beaconed since the previous one. On
	// AsyncSim every splice is a fresh process and counts.
	redials bool
}

// liveSlot is the detector's view of one site slot.
type liveSlot struct {
	lastSeen int64
	run      int  // consecutive overdue sweeps
	dead     bool // the detector's verdict
	ended    bool // the incarnation is gone: crashed, or its connection failed
	seen     bool // a beacon arrived since the last splice
}

// newLiveness builds the core for k slots of a runtime; arm sets its
// thresholds.
func newLiveness(coord *CoordAlgo, out Outbox, led *ledger, k int) liveness {
	l := liveness{coord: coord, out: out, led: led, slots: make([]liveSlot, k)}
	for i := range l.slots {
		l.slots[i].seen = true
	}
	return l
}

// arm sets the detector's thresholds. A miss threshold ≤ 0 means the
// default 3.
func (l *liveness) arm(slack int64, miss int) {
	if miss <= 0 {
		miss = 3
	}
	l.slack, l.miss = slack, miss
}

// beat folds one beacon from slot i's live incarnation into the detector.
//
//varlint:zeroalloc
func (l *liveness) beat(i int, now int64) {
	l.led.stats.HeartbeatsRecv++
	s := &l.slots[i]
	s.lastSeen = now
	s.seen = true
	if !s.dead {
		return
	}
	// A latched false verdict would keep the slot excused from collections,
	// leaking its reply content until a takeover that never comes.
	s.dead = false
	s.run = 0
	l.emit(EvSiteAlive, int32(i), 0, 0)
	if h, ok := (*l.coord).(CoordRecoverHandler); ok {
		h.OnSiteAlive(i, l.out)
	}
}

// sweep runs one detector check over every slot without a verdict.
//
//varlint:zeroalloc
func (l *liveness) sweep(now int64) {
	for i := range l.slots {
		s := &l.slots[i]
		if s.dead {
			continue
		}
		if now-s.lastSeen <= l.slack {
			s.run = 0
			continue
		}
		s.run++
		l.led.stats.HeartbeatMisses++
		l.emit(EvHeartbeatMiss, int32(i), int64(s.run), 0)
		if s.run < l.miss {
			continue
		}
		s.dead = true
		l.emit(EvSiteDead, int32(i), 0, 0)
		if h, ok := (*l.coord).(CoordFailureHandler); ok {
			h.OnSiteDead(i, l.out)
		}
	}
}

// ended records that slot i's incarnation is gone: an AsyncSim crash, or
// a TCP connection's read or write failure. The next splice into the slot
// is a takeover whatever the verdict says by then.
func (l *liveness) ended(i int) { l.slots[i].ended = true }

// splice registers an incarnation entering slot i. Into a dead or ended
// slot it is a takeover: the slot is cleared, the takeover is counted and
// traced (a and b are the event payload), and the coordinator's
// OnSiteTakeover hook runs.
func (l *liveness) splice(i int, now, a, b int64) {
	s := &l.slots[i]
	s.lastSeen = now
	if !s.dead && !s.ended {
		return
	}
	if s.seen || !l.redials {
		l.led.stats.Takeovers++
	}
	*s = liveSlot{lastSeen: now}
	l.emit(EvTakeover, int32(i), a, b)
	if h, ok := (*l.coord).(CoordTakeoverHandler); ok {
		h.OnSiteTakeover(i, l.out)
	}
}

// coordSplice (re)starts the detector at a coordinator — a standby's
// splice, or arming on TCP. Beacons sent into a coordinator outage went
// nowhere, which is the old coordinator's loss, not the sites'.
func (l *liveness) coordSplice(now int64) {
	for i := range l.slots {
		l.slots[i].lastSeen = now
		l.slots[i].run = 0
	}
}

// emit traces one liveness or takeover event through the ledger,
// addressed to the coordinator whose detector and control plane produced
// it.
//
//varlint:zeroalloc
func (l *liveness) emit(kind EventKind, site int32, a, b int64) {
	if l.led.Events != nil {
		l.led.emit(Event{Kind: kind, Site: site, To: CoordID, A: a, B: b})
	}
}
