package dist

import (
	"repro/internal/rng"
	"repro/internal/stream"
)

// AsyncSim is the fault-injecting asynchronous runtime: a deterministic
// discrete-event scheduler (virtual clock, seeded RNG, no wall time) that
// runs unchanged CoordAlgo/SiteAlgo pairs under a NetModel. Update T of the
// driven stream arrives at virtual tick T·UpdateGap; every message a node
// emits becomes a delivery event whose time is shaped by the model's
// latency, jitter, reorder window, loss, and retransmission, and whose
// processing order is the total order (time, sequence number) — so two runs
// with the same seed and inputs are identical, message for message.
//
// Under the zero NetModel every delivery lands at its send tick and events
// pop in send (FIFO) order, which is exactly Sim's drain loop: transcripts,
// Stats, and per-step estimates are byte-identical to Sim across any
// algorithm pair. TestAsyncSimZeroFaultByteIdentical pins this.
//
// Site churn: ScheduleDown/ScheduleUp partition one site's link for a
// virtual-time window. While partitioned the site still ingests its local
// updates (the site is up; its network is not), but deliveries touching the
// link fail like any other loss. On rejoin the runtime invokes the optional
// SiteRejoiner/CoordRejoiner resync hooks so protocol layers can
// re-establish shared state (see track.BlockSite/track.BlockCoord).
//
// Updates reach the sites through ingest, the core Sim feeds its sites
// with too; StepBatch adds AsyncSim's stop rule and budget invalidation.
//
// An AsyncSim is not safe for concurrent use.
type AsyncSim struct {
	// Recorder, when non-nil, observes every delivered message in delivery
	// order, stamped with the T of the latest arrived update — identical
	// to Sim's stamping under the zero model.
	Recorder func(TranscriptEntry)

	// ledger attributes deliveries AND drops, retransmissions, and
	// staleness to per-class counters when a classifier is installed, so
	// the per-class Stats sum exactly to the aggregate even under faults.
	// It holds the clock (now the virtual tick, t the stream T of the
	// latest arrived update) and the Events sink, which observes
	// deliveries plus the fault machinery: crashes, takeovers, detector
	// verdicts, epoch drops.
	ledger
	// ingest feeds the sites (see StepBatch) and holds the dead slots'
	// backlog.
	ingest
	coord CoordAlgo
	model NetModel
	src   *rng.Xoshiro256
	// dropT is rng.Threshold(model.Drop): an attempt is lost when
	// src.Uint64()>>11 < dropT, the integer form of src.Float64() <
	// model.Drop, and no draw is made when Drop is 0.
	dropT uint64
	queue eventQueue

	// linkAt[i] is the latest delivery time scheduled on link i (site i →
	// coordinator for i < k, coordinator → site i−k otherwise): the FIFO
	// floor new deliveries may undercut by at most model.Reorder.
	linkAt []int64
	down   []bool

	// Crash-fault state. live is the failure detector and takeover
	// policy; its ended flag marks slots whose process died. epoch is the
	// slot incarnation stamped onto every delivery (see event.epoch);
	// incarnation counts crashes and takeovers over all slots, and
	// epochAt[i] is its value at slot i's latest one, so a beacon round's
	// arrival, stamped with the counter at its send, is stale for exactly
	// the members that changed incarnation since. A dead slot is held in
	// ingest, whose backlog is its durable local update queue, replayed
	// into the replacement at takeover; replacement holds the algorithm a
	// ScheduleTakeover will splice in; closing stops the self-rescheduling
	// beacon rounds so Flush terminates.
	live        liveness
	epoch       []uint32
	incarnation uint32
	epochAt     []uint32
	replacement []SiteAlgo
	closing     bool

	// Coordinator crash-fault state, mirroring the per-site fields above:
	// coordCrashed marks the coordinator process dead, coordEpoch is the
	// coordinator incarnation stamped onto every delivery (event.cepoch),
	// and coordStandby holds the algorithm a ScheduleCoordTakeover will
	// splice in. Nothing is held for the coordinator: its sites keep
	// ingesting through the outage, and the reports lost to it are
	// re-derived by the KindCoordTakeover handshake, not replayed (on TCP,
	// where the outage severs the sites' connections, NetCluster holds
	// their updates in the backlog instead and replays them at the heal).
	coordCrashed bool
	coordEpoch   uint32
	coordStandby CoordAlgo

	coordOut *asyncOutbox
	siteOut  []*asyncOutbox
}

// eventKind discriminates scheduler events.
type eventKind uint8

const (
	evDeliver eventKind = iota
	evDown
	evUp
	evCrash         // crash-fault the slot (to)
	evTakeover      // splice a replacement into the slot (to)
	evCoordCrash    // crash-fault the coordinator
	evCoordTakeover // splice the standby into the coordinator slot
	evBeacon        // a beacon round: sends and/or arrivals (see processBeacon)
	evHbCheck       // a failure-detector sweep
)

// event is one scheduled occurrence. For evDeliver, from/to name the link
// endpoint nodes (CoordID or a site index), sent is the original send time
// (stable across retransmissions — staleness measures send → effect),
// attempt counts transmissions so far, and epoch is the slot incarnation
// the message belongs to: a crash or takeover of the site endpoint
// increments the slot's epoch, and a delivery whose epoch is stale is
// counted Dropped — a replacement never sees its predecessor's in-flight
// traffic, and a dead slot contributes no staleness. cepoch is the same
// stamp for the link's coordinator endpoint: every delivery belongs to one
// site incarnation and one coordinator incarnation, and going stale on
// either loses it. next is the scheduler queue's slab link (see
// eventQueue); it sits in what would otherwise be padding. An evBeacon
// event is a beacon round instead (see processBeacon): from is its base
// site, msg.Item and msg.A the bitmasks of the members that send and that
// receive then, and epoch and cepoch the incarnation counter and the
// coordinator epoch when the receiving members' beacons were sent.
type event struct {
	at      int64
	seq     uint64
	kind    eventKind
	from    int32
	to      int32
	next    int32
	attempt int
	epoch   uint32
	cepoch  uint32
	sent    int64
	msg     Msg
}

// NewAsyncSim builds the asynchronous simulator over a coordinator, its k
// site algorithms, a network model, and the seed of the model's RNG (drawn
// only for jitter, loss, and nothing else, in event order — so runs are
// reproducible bit for bit).
func NewAsyncSim(coord CoordAlgo, sites []SiteAlgo, model NetModel, seed uint64) *AsyncSim {
	if coord == nil || len(sites) == 0 {
		panic("dist: NewAsyncSim needs a coordinator and at least one site")
	}
	if err := model.check(); err != nil {
		panic(err.Error())
	}
	s := &AsyncSim{
		coord:       coord,
		model:       model,
		src:         rng.New(seed),
		dropT:       rng.Threshold(model.Drop),
		linkAt:      make([]int64, 2*len(sites)),
		down:        make([]bool, len(sites)),
		epoch:       make([]uint32, len(sites)),
		epochAt:     make([]uint32, len(sites)),
		replacement: make([]SiteAlgo, len(sites)),
		ingest: ingest{sites: sites, slots: make([]ingestSlot, len(sites)),
			backlog: make(backlog, len(sites))},
	}
	// Beacon rounds cover up to 64 sites. When a beacon's arrival and the
	// site's next beacon fall on the same tick (Latency == HeartbeatEvery),
	// per-site events would interleave there as arrival₀, beacon₀,
	// arrival₁, …, so every site gets a round of its own. The slab starts
	// with room for the rounds and the detector sweep.
	width := 64
	if model.HeartbeatEvery > 0 && model.Latency == model.HeartbeatEvery {
		width = 1
	}
	s.queue.init((len(sites)+width-1)/width + 1)
	s.coordOut = &asyncOutbox{s: s, from: CoordID}
	s.live = newLiveness(&s.coord, s.coordOut, &s.ledger, len(sites))
	// A beacon is overdue one full interval beyond its cadence plus the
	// link latency it rides.
	s.live.arm(2*model.HeartbeatEvery+model.Latency, model.HeartbeatMiss)
	s.siteOut = make([]*asyncOutbox, len(sites))
	for i := range sites {
		s.siteOut[i] = &asyncOutbox{s: s, from: int32(i)}
	}
	if model.HeartbeatEvery > 0 {
		for base := 0; base < len(sites); base += width {
			members := ^uint64(0) >> (64 - min(width, len(sites)-base))
			s.scheduleBeacon(base, members, 0, model.HeartbeatEvery)
		}
		s.schedule(evHbCheck, CoordID, model.HeartbeatEvery)
	}
	return s
}

// Step advances the virtual clock to update u's arrival tick, delivering
// everything the network owes before then, hands u to its site (or, while
// the slot is crashed, to its backlog), and processes all events due at
// the arrival tick (under the zero model, the whole triggered cascade —
// Sim.Step's drain).
func (s *AsyncSim) Step(u stream.Update) {
	arrival := u.T * s.model.Gap()
	s.runUntil(arrival)
	s.now, s.t = max(s.now, arrival), u.T
	s.step(u, s.siteOut[u.Site])
	s.runUntil(s.now + 1)
}

// Run drives an entire stream through the simulator and returns the number
// of updates processed. It does not Flush: messages still in flight after
// the last arrival stay pending until Flush is called.
func (s *AsyncSim) Run(st stream.Stream) int64 { return runStream(s, st) }

// StepBatch feeds a prefix of us (a stream slice with nondecreasing T) to
// the sites and returns how many updates it consumed, plus whether any
// event was processed during the call. Like Sim.StepBatch it is a sequence
// of Steps, never a reordering, fault models included, and it returns
// right after the first update in whose step any event ran.
//
// Events due before the head update run first; if any did, the head is fed
// alone. Otherwise a feed takes the updates arriving before the next
// pending event's tick and the first one arriving on it (events at a tick
// fire after it), and its sends leave at its last update's tick. Quiet
// budgets go stale after any event: a rejoin's OnRejoin and a takeover's
// backlog replay change sites without a delivery.
func (s *AsyncSim) StepBatch(us []stream.Update) (int, bool) {
	gap := s.model.Gap()
	i := 0
	for i < len(us) {
		active := s.runUntil(us[i].T * gap)
		run := us[i : i+1]
		if !active {
			run = us[i : i+untilTick(us[i:], gap, s.queue.topAt())]
		}
		n := s.feed(run, int64(s.queue.popped()))
		if n < 0 {
			panic("dist: OnUpdateBatch consumed no updates")
		}
		i += n
		last := run[n-1]
		s.now, s.t = max(s.now, last.T*gap), last.T
		for _, m := range s.out.msgs {
			s.send(int32(last.Site), CoordID, m)
		}
		s.out.msgs = s.out.msgs[:0]
		if s.runUntil(s.now+1) || active {
			return i, true
		}
	}
	return i, false
}

// untilTick returns how many leading updates of us to feed before the
// event at tick top, galloping from the head so that a feed a send ends
// early costs no scan of the rest.
func untilTick(us []stream.Update, gap, top int64) int {
	lo, hi := 0, 1 // us[:lo] arrive before top
	for hi < len(us) && us[hi].T*gap < top {
		lo, hi = hi+1, 2*hi+1
	}
	for hi = min(hi, len(us)); lo < hi; {
		if mid := int(uint(lo+hi) >> 1); us[mid].T*gap < top {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(us) && us[lo].T*gap == top {
		lo++
	}
	return lo
}

// RunBatch drives an entire stream through the batched ingest path,
// filling the caller-owned buffer from the stream and feeding it through
// StepBatch. A nil or empty buf gets a default-sized one. every and visit
// are Sim.RunBatch's; delivered reports whether any event ran. The end
// state is byte-identical to Run; it does not Flush.
func (s *AsyncSim) RunBatch(st stream.Stream, buf []stream.Update, every int64,
	visit func(run []stream.Update, delivered bool)) int64 {
	return runBatched(s, st, buf, every, visit)
}

// Flush runs the event loop to exhaustion — every in-flight delivery,
// retransmission, and scheduled churn transition — advancing the virtual
// clock as it goes. After Flush the network is quiescent. Flush retires
// the failure detector: the self-rescheduling beacon rounds and detector
// sweeps stop so the loop terminates, and they do not restart if more
// updates are driven.
func (s *AsyncSim) Flush() {
	s.closing = true
	for s.queue.len() > 0 {
		e := s.queue.pop()
		if e.at > s.now {
			s.now = e.at
		}
		s.process(&e)
	}
}

// runUntil processes every event strictly before tick t, advancing the
// clock to each, and reports whether any ran. runUntil(s.now+1) processes
// everything due at the current tick (under the zero model, the whole
// triggered cascade).
//
// Every update pays two of these calls, and most find nothing due, so the
// check is the queue's one-load due test and inlines.
func (s *AsyncSim) runUntil(t int64) bool {
	return s.queue.due(t) && s.drainUntil(t)
}

// drainUntil is runUntil's event loop.
func (s *AsyncSim) drainUntil(t int64) bool {
	active := false
	for s.queue.topAt() < t {
		e := s.queue.pop()
		if e.at > s.now {
			s.now = e.at
		}
		s.process(&e)
		active = true
	}
	return active
}

// Estimate returns the coordinator's current estimate f̂.
func (s *AsyncSim) Estimate() int64 { return s.coord.Estimate() }

// Inject runs fn with the coordinator's outbox at the current virtual time
// and then processes everything due at that tick — the hook for
// coordinator-initiated control traffic (e.g. attaching a tracking query
// mid-stream). Messages fn emits travel through the modeled network like
// any others: they can be delayed, dropped, and retransmitted.
func (s *AsyncSim) Inject(fn func(Outbox)) {
	fn(s.coordOut)
	s.runUntil(s.now + 1)
}

// Now returns the current virtual time in ticks.
func (s *AsyncSim) Now() int64 { return s.now }

// Pending returns the number of events in the scheduler queue: deliveries,
// retransmissions, beacon rounds (one event per round, however many sites
// it covers), detector sweeps and scheduled faults not yet processed.
func (s *AsyncSim) Pending() int { return s.queue.len() }

// ScheduleDown partitions site's link at virtual tick at.
func (s *AsyncSim) ScheduleDown(site int, at int64) {
	s.schedule(evDown, int32(site), at)
}

// ScheduleUp restores site's link at virtual tick at, firing the resync
// hooks (SiteRejoiner / CoordRejoiner) on the algorithms that implement
// them; messages the hooks emit travel through the modeled network like any
// others.
func (s *AsyncSim) ScheduleUp(site int, at int64) {
	s.schedule(evUp, int32(site), at)
}

// schedule pushes a bare event of kind for node to at tick at.
func (s *AsyncSim) schedule(kind eventKind, to int32, at int64) {
	e := event{at: at, kind: kind, to: to}
	s.pushEvent(&e)
}

// pushEvent queues e at the current clock, clamping it to now.
func (s *AsyncSim) pushEvent(e *event) { s.queue.push(e, s.now) }

// send schedules one transmission of a freshly emitted message, stamped
// with the current incarnations of both its endpoints' slots.
func (s *AsyncSim) send(from, to int32, m Msg) {
	e := event{kind: evDeliver, from: from, to: to, sent: s.now, msg: m,
		epoch: s.epoch[s.siteEnd(from, to)], cepoch: s.coordEpoch}
	s.transmit(&e, s.now)
}

// siteEnd returns the site endpoint of a delivery (every link has exactly
// one: the coordinator is the other end).
func (s *AsyncSim) siteEnd(from, to int32) int32 {
	if to == CoordID {
		return from
	}
	return to
}

// transmit schedules a delivery attempt of e departing at tick depart,
// applying latency, jitter, and the per-link ordering floor.
func (s *AsyncSim) transmit(e *event, depart int64) {
	at := depart + s.model.Latency
	if s.model.Jitter > 0 {
		at += s.src.Int63n(s.model.Jitter + 1)
	}
	link := s.link(e.from, e.to)
	if floor := s.linkAt[link] - s.model.Reorder; at < floor {
		at = floor
	}
	if at < s.now {
		at = s.now
	}
	if at > s.linkAt[link] {
		s.linkAt[link] = at
	}
	e.at = at
	e.attempt++
	s.pushEvent(e)
}

// link maps a (from, to) pair to its index in linkAt: site i → coordinator
// is link i, coordinator → site i is link k+i.
func (s *AsyncSim) link(from, to int32) int {
	if to == CoordID {
		return int(from)
	}
	return len(s.sites) + int(to)
}

// linkDown reports whether the link of a delivery event is partitioned:
// any leg touching a down site is dead in both directions.
func (s *AsyncSim) linkDown(e *event) bool {
	if e.to == CoordID {
		return s.down[e.from]
	}
	return s.down[e.to]
}

// process handles one popped event at the current virtual time.
func (s *AsyncSim) process(e *event) {
	switch e.kind {
	case evDeliver:
		s.deliver(e)
	case evDown:
		s.down[e.to] = true
	case evUp:
		s.down[e.to] = false
		site := int(e.to)
		if s.live.slots[site].ended || s.coordCrashed {
			// No resync with a dead endpoint: the takeover handshake is
			// what re-establishes shared state once a replacement arrives.
			return
		}
		if c, ok := s.coord.(CoordRejoiner); ok {
			c.OnSiteRejoin(site, s.coordOut)
		}
		if r, ok := s.sites[site].(SiteRejoiner); ok {
			r.OnRejoin(s.siteOut[site])
		}
	case evCrash:
		s.processCrash(e)
	case evTakeover:
		s.processTakeover(e)
	case evCoordCrash:
		s.processCoordCrash(e)
	case evCoordTakeover:
		s.processCoordTakeover(e)
	case evBeacon:
		s.processBeacon(e)
	case evHbCheck:
		s.processHbCheck(e)
	}
}

// deliver makes one delivery attempt at the current virtual time.
func (s *AsyncSim) deliver(e *event) {
	// A delivery crossing a crashed slot, or belonging to a previous
	// incarnation of either endpoint (sent before a crash or a takeover of
	// the site or of the coordinator), is lost for good with no
	// retransmission and no staleness: the process that could have consumed
	// or resent it no longer exists. Every drop through this gate is
	// additionally counted in EpochDrops — aggregate and per-class alike, so
	// the per-class exact-sum property covers it — which is what separates
	// incarnation losses from the fault model's network losses below.
	end := s.siteEnd(e.from, e.to)
	if s.live.slots[end].ended || s.epoch[end] != e.epoch ||
		s.coordCrashed || e.cepoch != s.coordEpoch {
		s.dropped(&e.msg, EvEpochDrop, end, e.to)
		return
	}

	// A delivery attempt: lost if the link is partitioned or the iid coin
	// says so, in which case the bounded retransmission budget decides
	// between a retry RTO ticks out and giving the message up for dropped.
	lost := s.linkDown(e)
	if !lost && s.dropT > 0 && s.src.Uint64()>>11 < s.dropT {
		lost = true
	}
	if lost {
		if e.attempt <= s.model.Retrans {
			s.retransmitted(&e.msg)
			s.transmit(e, s.now+s.model.rto())
		} else {
			s.dropped(&e.msg, EvDrop, end, e.to)
		}
		return
	}

	s.delivered(&e.msg, e.to, s.now-e.sent)
	if s.Recorder != nil {
		s.Recorder(TranscriptEntry{T: s.t, To: e.to, Msg: e.msg})
	}
	if e.to == CoordID {
		s.coord.OnMessage(e.msg, s.coordOut)
	} else {
		s.sites[e.to].OnMessage(e.msg, s.siteOut[e.to])
	}
}

// asyncOutbox routes messages for node `from` through the modeled network.
type asyncOutbox struct {
	s    *AsyncSim
	from int32
}

// Send implements Outbox.
func (o *asyncOutbox) Send(m Msg) {
	if o.from == CoordID {
		o.Broadcast(m)
		return
	}
	o.s.send(o.from, CoordID, m)
}

// SendTo implements Outbox.
func (o *asyncOutbox) SendTo(site int, m Msg) {
	if o.from != CoordID {
		o.Send(m)
		return
	}
	o.s.send(o.from, int32(site), m)
}

// Broadcast implements Outbox.
func (o *asyncOutbox) Broadcast(m Msg) {
	if o.from != CoordID {
		o.Send(m)
		return
	}
	for i := range o.s.sites {
		o.s.send(o.from, int32(i), m)
	}
}
