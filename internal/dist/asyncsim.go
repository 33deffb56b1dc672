package dist

import (
	"math"

	"repro/internal/rng"
	"repro/internal/stream"
)

// AsyncSim is the one simulated runtime: a deterministic discrete-event
// scheduler (virtual clock, seeded RNG, no wall time) that runs unchanged
// CoordAlgo/SiteAlgo pairs under a NetModel. Update T of the driven stream
// arrives at virtual tick T·UpdateGap; every message a node emits becomes
// a delivery event whose time is shaped by the model's latency, jitter,
// reorder window, loss, and retransmission, and whose processing order is
// the total order (time, sequence number) — so two runs with the same seed
// and inputs are identical, message for message.
//
// Under the zero NetModel every delivery lands at its send tick and events
// pop in send (FIFO) order: the synchronous model, in which each Step
// delivers everything its update triggers before it returns. There the
// runtime takes the lane: while nothing has been scheduled, sends go into
// a FIFO ring and are delivered at the current tick, in the order the
// event queue would pop them, and the network state is never built. The
// first Schedule* call leaves the lane for good. NewSim is this runtime under
// the zero model. TestAsyncSimZeroFaultByteIdentical pins the lane against
// the event queue: transcripts, Stats and per-step estimates are
// byte-identical across every algorithm pair.
//
// Site churn: ScheduleDown/ScheduleUp partition one site's link for a
// virtual-time window. While partitioned the site still ingests its local
// updates (the site is up; its network is not), but deliveries touching the
// link fail like any other loss. On rejoin the runtime invokes the optional
// SiteRejoiner/CoordRejoiner resync hooks so protocol layers can
// re-establish shared state (see track.BlockSite/track.BlockCoord).
//
// Updates reach the sites through ingest; StepBatch adds the runtime's
// stop rule and budget invalidation.
//
// An AsyncSim is not safe for concurrent use; run one per goroutine.
type AsyncSim struct {
	// Recorder, when non-nil, observes every delivered message in delivery
	// order, stamped with the T of the latest arrived update.
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
	// ring is the lane's delivery queue, empty between calls.
	ring msgRing
	// network is the model and the event queue and fault state: &idleNet,
	// the zero model's, which nothing writes, while the runtime is on the
	// lane.
	*network

	coordOut *asyncOutbox
	siteOut  []*asyncOutbox
}

// network is the state the event queue delivers through: the model, the
// queue, the model's RNG, the link floors and partitions, and the
// crash-fault state.
type network struct {
	model NetModel
	queue eventQueue
	src   rng.Xoshiro256
	// dropT is rng.Threshold(model.Drop): an attempt is lost when
	// src.Uint64()>>11 < dropT, the integer form of src.Float64() <
	// model.Drop, and no draw is made when Drop is 0.
	dropT uint64

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
}

// idleNet is the network a runtime on the lane reads: the zero model and
// an empty queue whose earliest tick is never due. Nothing writes it.
var idleNet = network{queue: eventQueue{top: math.MaxInt64}}

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

// NewAsyncSim builds the simulator over a coordinator, its k site
// algorithms, a network model, and the seed of the model's RNG (drawn only
// for jitter, loss, and nothing else, in event order — so runs are
// reproducible bit for bit). Under the zero model the runtime starts on
// the lane.
func NewAsyncSim(coord CoordAlgo, sites []SiteAlgo, model NetModel, seed uint64) *AsyncSim {
	if err := model.check(); err != nil {
		panic(err.Error())
	}
	s := NewSim(coord, sites)
	if model != (NetModel{}) {
		s.buildNetwork(model, seed)
	}
	return s
}

// onLane reports whether the runtime is still on the lane.
func (s *AsyncSim) onLane() bool { return s.network == &idleNet }

// buildNetwork leaves the lane for good: it builds the state the event
// queue delivers through under model and starts the beacon rounds. The
// lane's ring is empty between calls, so no message is in flight.
func (s *AsyncSim) buildNetwork(model NetModel, seed uint64) {
	k := len(s.sites)
	n := &network{
		model:       model,
		src:         *rng.New(seed),
		dropT:       rng.Threshold(model.Drop),
		linkAt:      make([]int64, 2*k),
		down:        make([]bool, k),
		epoch:       make([]uint32, k),
		epochAt:     make([]uint32, k),
		replacement: make([]SiteAlgo, k),
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
	n.queue.init((k+width-1)/width + 1)
	n.live = newLiveness(&s.coord, s.coordOut, &s.ledger, k)
	// A beacon is overdue one full interval beyond its cadence plus the
	// link latency it rides.
	n.live.arm(2*model.HeartbeatEvery+model.Latency, model.HeartbeatMiss)
	s.network = n
	s.backlog = make(backlog, k)
	s.synced = -1 // the lane's quiet-budget token is not the queue's
	if model.HeartbeatEvery > 0 {
		for base := 0; base < k; base += width {
			members := ^uint64(0) >> (64 - min(width, k-base))
			s.scheduleBeacon(base, members, 0, model.HeartbeatEvery)
		}
		s.schedule(evHbCheck, CoordID, model.HeartbeatEvery)
	}
}

// Step advances the virtual clock to update u's arrival tick, delivering
// everything the network owes before then, hands u to its site (or, while
// the slot is crashed, to its backlog), and delivers everything due at the
// arrival tick: on the lane and under the zero model, the whole triggered
// cascade.
func (s *AsyncSim) Step(u stream.Update) {
	arrival := u.T * s.model.Gap()
	s.runUntil(arrival)
	s.now, s.t = max(s.now, arrival), u.T
	s.step(u, s.siteOut[u.Site])
	s.drain()
	s.runUntil(s.now + 1)
}

// StepBatch feeds a prefix of us (a stream slice with nondecreasing T) to
// the sites and returns how many updates it consumed, plus whether any
// message was delivered (any event was processed) during the call. It is a
// sequence of Steps, never a reordering, fault models included, and it
// returns right after the first update in whose step any event ran. When
// delivered is false, no OnMessage ran, so Estimate() is unchanged.
//
// On the lane a call is one feed (see laneBatch). Otherwise events due
// before the head update run first; if any did, the head is fed alone.
// Otherwise a feed takes the updates arriving before the next pending
// event's tick and the first one arriving on it (events at a tick fire
// after it), and its sends leave at its last update's tick. Quiet budgets
// go stale after any event: a rejoin's OnRejoin and a takeover's backlog
// replay change sites without a delivery.
func (s *AsyncSim) StepBatch(us []stream.Update) (int, bool) {
	if s.onLane() {
		return s.laneBatch(us)
	}
	gap := s.model.Gap()
	i := 0
	for i < len(us) {
		active := s.runUntil(us[i].T * gap)
		run := us[i : i+1]
		if !active {
			run = us[i : i+feedCut(us[i:], gap, s.queue.topAt())]
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

// feedCut returns how many leading updates of us (nonempty, nondecreasing
// T) arrive before tick top, plus one arriving on it. It starts where the
// cut falls if T runs consecutively from the head, as the streams here
// number it, and walks to the true cut from there: one comparison each
// way when T is consecutive (an empty queue's top of MaxInt64 included),
// and one step more per update a repeated or skipped T moves the cut.
func feedCut(us []stream.Update, gap, top int64) int {
	c := 0
	if d := top - us[0].T*gap; d > 0 { // a distance, so MaxInt64 cannot overflow
		c = int(min((d-1)/gap+1, int64(len(us))))
	}
	for c > 0 && us[c-1].T*gap >= top {
		c--
	}
	for c < len(us) && us[c].T*gap < top {
		c++
	}
	if c < len(us) && us[c].T*gap == top {
		c++
	}
	return c
}

// Flush runs the event loop to exhaustion — every in-flight delivery,
// retransmission, and scheduled churn transition — advancing the virtual
// clock as it goes. After Flush the network is quiescent. Flush retires
// the failure detector: the self-rescheduling beacon rounds and detector
// sweeps stop so the loop terminates, and they do not restart if more
// updates are driven.
func (s *AsyncSim) Flush() {
	if s.onLane() {
		return // nothing is ever in flight between calls
	}
	s.closing = true
	for s.queue.len() > 0 {
		s.processNext()
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
		s.processNext()
		active = true
	}
	return active
}

// processNext pops the earliest event and processes it in its slot, freed
// only after the handler (whose sends must not reuse it) unless relinked.
func (s *AsyncSim) processNext() {
	idx := s.queue.pop()
	s.now = max(s.now, s.queue.slab[idx].at)
	if !s.process(idx) {
		s.queue.release(idx)
	}
}

// Estimate returns the coordinator's current estimate f̂.
func (s *AsyncSim) Estimate() int64 { return s.coord.Estimate() }

// Inject runs fn with the coordinator's outbox at the current virtual time
// and then processes everything due at that tick — the hook for
// coordinator-initiated control traffic (e.g. attaching a tracking query
// mid-stream) that no inbound message triggers. Messages fn emits travel
// through the modeled network like any others: they can be delayed,
// dropped, and retransmitted. Call it only between Steps.
func (s *AsyncSim) Inject(fn func(Outbox)) {
	fn(s.coordOut)
	s.drain()
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

// schedule pushes a bare event of kind for node to at tick at, leaving the
// lane if the runtime is still on it. The zero model draws nothing from
// the RNG, so its seed is immaterial.
func (s *AsyncSim) schedule(kind eventKind, to int32, at int64) {
	if s.onLane() {
		s.buildNetwork(NetModel{}, 0)
	}
	idx, e := s.queue.alloc()
	*e = event{at: at, kind: kind, to: to}
	s.queue.link(idx, s.now)
}

// send schedules one transmission of a freshly emitted message, stamped
// with the current incarnations of both its endpoints' slots.
func (s *AsyncSim) send(from, to int32, m Msg) {
	idx, e := s.queue.alloc()
	e.kind, e.from, e.to, e.attempt, e.sent = evDeliver, from, to, 0, s.now
	e.epoch, e.cepoch, e.msg = s.epoch[s.siteEnd(from, to)], s.coordEpoch, m
	s.transmit(idx, s.now)
}

// siteEnd returns the site endpoint of a delivery (every link has exactly
// one: the coordinator is the other end).
func (s *AsyncSim) siteEnd(from, to int32) int32 {
	if to == CoordID {
		return from
	}
	return to
}

// transmit schedules a delivery attempt of slot idx departing at tick
// depart, applying latency, jitter, and the per-link ordering floor.
func (s *AsyncSim) transmit(idx int32, depart int64) {
	e := &s.queue.slab[idx]
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
	s.queue.link(idx, s.now)
}

// link maps a (from, to) pair to its index in linkAt: site i → coordinator
// is link i, coordinator → site i is link k+i.
func (s *AsyncSim) link(from, to int32) int {
	if to == CoordID {
		return int(from)
	}
	return len(s.sites) + int(to)
}

// process handles popped slot idx now and reports whether it linked it
// again. A send may grow the slab: handlers read the event before sending.
func (s *AsyncSim) process(idx int32) (relinked bool) {
	e := &s.queue.slab[idx]
	switch e.kind {
	case evDeliver:
		return s.deliver(idx)
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
	return false
}

// deliver makes one delivery attempt of slot idx at the current virtual
// time and reports whether it linked the slot again to retransmit.
func (s *AsyncSim) deliver(idx int32) (relinked bool) {
	e := &s.queue.slab[idx]
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
		return false
	}

	// A delivery attempt: lost if the link is partitioned (any leg touching
	// a down site is dead in both directions) or the iid coin says so, in
	// which case the bounded retransmission budget decides between a retry
	// RTO ticks out and giving the message up for dropped.
	lost := s.down[end]
	if !lost && s.dropT > 0 && s.src.Uint64()>>11 < s.dropT {
		lost = true
	}
	if lost {
		if e.attempt <= s.model.Retrans {
			s.retransmitted(&e.msg)
			s.transmit(idx, s.now+s.model.rto())
			return true
		}
		s.dropped(&e.msg, EvDrop, end, e.to)
		return false
	}

	s.dispatch(e.to, &e.msg, s.now-e.sent)
	return false
}

// laneBatch is StepBatch on the lane: one feed, then its captured sends,
// delivered in order — they head the FIFO — and the drain. Quiet budgets
// go stale when CoordToSite moves: on det, the one quiet protocol, a site
// only receives broadcasts.
//
//varlint:zeroalloc
func (s *AsyncSim) laneBatch(us []stream.Update) (consumed int, delivered bool) {
	n := s.feed(us, s.stats.CoordToSite)
	if n <= 0 {
		if n < 0 {
			panic("dist: OnUpdateBatch consumed no updates")
		}
		return 0, false
	}
	// Keep the transcript stamp current across message-free prefixes too,
	// so a subsequent Inject stamps its cascade with the same T the
	// per-update loop would have.
	last := us[n-1]
	s.t, s.now = last.T, last.T // the zero model's gap is 1
	if len(s.out.msgs) == 0 {
		return n, false
	}
	for i := range s.out.msgs {
		s.dispatch(CoordID, &s.out.msgs[i], 0)
	}
	s.out.msgs = s.out.msgs[:0]
	s.drain()
	return n, true
}

// drain delivers the lane's queued messages to quiescence. The envelope is
// delivered from its ring slot (released first, so handler sends can grow
// the ring freely); dispatch completes all reads before the handler runs.
//
//varlint:zeroalloc
func (s *AsyncSim) drain() {
	for s.ring.n > 0 {
		e := s.ring.peek()
		s.ring.drop()
		s.dispatch(e.to, &e.msg, 0)
	}
}

// dispatch is the delivery the lane and the event queue share: it accounts
// (and traces), records, and hands one message to node to, lag ticks after
// its original send. Handlers may send further messages. m may point into
// the ring at an already-released slot: every read of *m happens before
// the handler runs (the call copies *m), so sends that recycle or grow the
// ring mid-delivery cannot corrupt the delivery.
//
//varlint:zeroalloc
func (s *AsyncSim) dispatch(to int32, m *Msg, lag int64) {
	s.delivered(m, to, lag)
	if s.Recorder != nil {
		s.Recorder(TranscriptEntry{T: s.t, To: to, Msg: *m})
	}
	if to == CoordID {
		s.coord.OnMessage(*m, s.coordOut)
	} else {
		s.sites[to].OnMessage(*m, s.siteOut[to])
	}
}

// asyncOutbox routes messages for node `from` (CoordID or a site index):
// on the lane into the ring, else through the modeled network. The three
// methods open-code the ring push, so the lane's per-message path is the
// virtual call plus straight-line stores; grow runs once per high-water
// mark.
type asyncOutbox struct {
	s    *AsyncSim
	from int32
}

// Send implements Outbox.
//
//varlint:zeroalloc
func (o *asyncOutbox) Send(m Msg) {
	if o.from == CoordID {
		o.Broadcast(m)
		return
	}
	s := o.s
	if !s.onLane() {
		s.send(o.from, CoordID, m)
		return
	}
	q := &s.ring
	if q.n == len(q.buf) {
		q.grow()
	}
	e := &q.buf[(q.head+q.n)&(len(q.buf)-1)]
	q.n++
	e.to = CoordID
	e.msg = m
}

// SendTo implements Outbox.
//
//varlint:zeroalloc
func (o *asyncOutbox) SendTo(site int, m Msg) {
	if o.from != CoordID {
		o.Send(m)
		return
	}
	s := o.s
	if !s.onLane() {
		s.send(o.from, int32(site), m)
		return
	}
	q := &s.ring
	if q.n == len(q.buf) {
		q.grow()
	}
	e := &q.buf[(q.head+q.n)&(len(q.buf)-1)]
	q.n++
	e.to = int32(site)
	e.msg = m
}

// Broadcast implements Outbox.
//
//varlint:zeroalloc
func (o *asyncOutbox) Broadcast(m Msg) {
	if o.from != CoordID {
		o.Send(m)
		return
	}
	s := o.s
	if !s.onLane() {
		for i := range s.sites {
			s.send(o.from, int32(i), m)
		}
		return
	}
	q := &s.ring
	for i := range s.sites {
		if q.n == len(q.buf) {
			q.grow()
		}
		e := &q.buf[(q.head+q.n)&(len(q.buf)-1)]
		q.n++
		e.to = int32(i)
		e.msg = m
	}
}
