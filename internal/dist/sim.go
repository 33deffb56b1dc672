package dist

import "repro/internal/stream"

// TranscriptEntry is one delivered message as seen by a Sim Recorder: the
// timestep of the update being processed when delivery happened, the
// destination (CoordID or a site index), and the message itself.
type TranscriptEntry struct {
	T   int64
	To  int32
	Msg Msg
}

// Sim is the synchronous single-process scheduler. Each Step delivers one
// update to its site and then drains all triggered messages, FIFO, to
// quiescence, so Estimate reflects every message the prefix caused —
// exactly the synchronous model the paper's per-step guarantee assumes.
//
// Step is allocation-free at steady state: the delivery queue is a reusable
// ring buffer that grows to the high-water mark of a single drain and is
// then recycled, and the per-node outboxes are built once in NewSim. A Sim
// is not safe for concurrent use; run one Sim per goroutine.
type Sim struct {
	// Recorder, when non-nil, observes every delivered message in
	// delivery order. Entries for one Step share its timestep, so
	// timesteps are nondecreasing across the transcript.
	Recorder func(TranscriptEntry)

	// ledger accounts every delivery; its Events sink, when non-nil,
	// observes the protocol control plane (see EventKind). On Sim,
	// Event.Now equals Event.T: the synchronous model has no clock beyond
	// the stream step.
	ledger
	// ingest feeds the sites (see StepBatch).
	ingest
	coord CoordAlgo
	queue msgRing

	// coordOut and siteOut are the per-node outboxes, allocated once so
	// that handing them to handlers as the Outbox interface does not box
	// a fresh value on every delivery.
	coordOut *simOutbox
	siteOut  []*simOutbox
}

// envelope is a queued delivery.
type envelope struct {
	to  int32
	msg Msg
}

// msgRing is a growable FIFO ring buffer of envelopes. Pop never shrinks or
// releases the backing array, so a drain that fits in the high-water mark
// performs no allocation. The capacity is kept a power of two so the index
// wrap is a mask, not a modulo — push/pop run once per delivered message.
type msgRing struct {
	buf  []envelope
	head int // index of the next envelope to pop
	n    int // number of queued envelopes
}

// slot reserves the next tail entry and returns it for in-place filling,
// growing the backing array if full. Writing fields into the slot saves a
// full envelope copy per enqueued message versus a push-by-value API.
// The grow call keeps slot above the compiler's inlining budget, so the
// outbox Send paths open-code the common full-ring check themselves and
// only call here on the grow edge (once per high-water mark).
//
//varlint:zeroalloc
func (r *msgRing) slot() *envelope {
	if r.n == len(r.buf) {
		r.grow()
	}
	e := &r.buf[(r.head+r.n)&(len(r.buf)-1)]
	r.n++
	return e
}

// peek returns the oldest envelope in place; drop releases it. Splitting
// pop this way lets drain hand deliver a pointer into the ring instead of
// copying the envelope out — safe because deliver finishes every read of
// the slot before the handler (whose sends could recycle it) runs.
//
//varlint:zeroalloc
func (r *msgRing) peek() *envelope { return &r.buf[r.head] }

//varlint:zeroalloc
func (r *msgRing) drop() {
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// pop removes and returns the oldest envelope (peek + drop, with a copy).
// It panics on an empty ring.
//
//varlint:zeroalloc
func (r *msgRing) pop() envelope {
	if r.n == 0 {
		panic("dist: pop from empty msgRing")
	}
	e := *r.peek()
	r.drop()
	return e
}

// grow doubles the capacity (always a power of two), unrolling the ring to
// the front.
func (r *msgRing) grow() {
	cap := 2 * len(r.buf)
	if cap == 0 {
		cap = 16
	}
	buf := make([]envelope, cap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// NewSim builds a simulator over a coordinator and its k site algorithms.
func NewSim(coord CoordAlgo, sites []SiteAlgo) *Sim {
	if coord == nil || len(sites) == 0 {
		panic("dist: NewSim needs a coordinator and at least one site")
	}
	s := &Sim{coord: coord, ingest: ingest{sites: sites}}
	s.coordOut = &simOutbox{s: s, from: CoordID}
	s.siteOut = make([]*simOutbox, len(sites))
	for i := range sites {
		s.siteOut[i] = &simOutbox{s: s, from: int32(i)}
	}
	return s
}

// Step feeds one update to its assigned site and runs the network to
// quiescence before returning.
//
//varlint:zeroalloc
func (s *Sim) Step(u stream.Update) {
	s.t, s.now = u.T, u.T
	s.sites[u.Site].OnUpdate(u, s.siteOut[u.Site])
	s.synced = -1 // the site's quiet budget, if any, is stale now
	s.drain()
}

// drain delivers queued messages to quiescence. The envelope is delivered
// from its ring slot (released first, so handler sends can grow the ring
// freely); deliver completes all reads before dispatching the handler.
//
//varlint:zeroalloc
func (s *Sim) drain() {
	for s.queue.n > 0 {
		e := s.queue.peek()
		s.queue.drop()
		s.deliver(e.to, &e.msg)
	}
}

// Run drives an entire stream through the simulator, stepping each update
// to quiescence, and returns the number of updates processed. Unlike the
// historical pattern of stream.Collect followed by a Step loop, Run holds
// no more than one update in memory at a time.
func (s *Sim) Run(st stream.Stream) int64 { return runStream(s, st) }

// stepper is the ingest surface Sim and AsyncSim share.
type stepper interface {
	Step(stream.Update)
	StepBatch([]stream.Update) (int, bool)
}

// runStream drives st through r.Step and returns the number of updates.
func runStream(r stepper, st stream.Stream) int64 {
	var steps int64
	for {
		u, ok := st.Next()
		if !ok {
			return steps
		}
		r.Step(u)
		steps++
	}
}

// runBatched drives st through r.StepBatch, filling buf from the stream
// (a default-sized one when buf is empty), and returns the number of
// updates. With every > 0 no feed crosses a multiple of every updates, so
// a run can end on each one; visit, when non-nil, sees each consumed run
// and StepBatch's delivered flag before the next feed.
func runBatched(r stepper, st stream.Stream, buf []stream.Update, every int64,
	visit func(run []stream.Update, delivered bool)) int64 {
	if len(buf) == 0 {
		buf = make([]stream.Update, 256)
	}
	var steps int64
	for {
		n := stream.NextBatch(st, buf)
		if n == 0 {
			return steps
		}
		for i := 0; i < n; {
			end := n
			if every > 0 {
				end = i + int(min(int64(n-i), every-steps%every))
			}
			c, delivered := r.StepBatch(buf[i:end])
			if visit != nil {
				visit(buf[i:i+c], delivered)
			}
			i += c
			steps += int64(c)
		}
	}
}

// StepBatch feeds a prefix of us to the sites and returns how many updates
// it consumed, plus whether any messages were delivered. It stops, after
// draining the network to quiescence, as soon as one update triggers a
// message, so a batch is a sequence of Steps, never a reordering. When
// delivered is false, no OnMessage ran, so Estimate() is unchanged.
//
// A feed may take all of us. Quiet budgets go stale when CoordToSite
// moves: on det, the one quiet protocol, a site only receives broadcasts.
//
//varlint:zeroalloc
func (s *Sim) StepBatch(us []stream.Update) (consumed int, delivered bool) {
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
	s.t, s.now = last.T, last.T
	if len(s.out.msgs) == 0 {
		return n, false
	}
	// The captured messages head the FIFO: delivering them in order before
	// the drain is the order they would have left the queue in.
	for i := range s.out.msgs {
		s.deliver(CoordID, &s.out.msgs[i])
	}
	s.out.msgs = s.out.msgs[:0]
	s.drain()
	return n, true
}

// RunBatch drives an entire stream through the simulator using the batched
// ingest path, filling the caller-owned buffer from the stream and feeding
// it through StepBatch. A nil or empty buf gets a default-sized one. The
// end state is byte-identical to Run; the difference is dispatch cost —
// one stream fill and a few site calls per buffer instead of two virtual
// calls per update.
//
// Harnesses that check every step pass visit: it receives each consumed
// run and whether any message was delivered while it was fed. When
// delivered is false Estimate() is what it was before the run, so a
// caller reads it once per delivering run. every > 0 ends a run on each
// multiple of every updates, for probes that read site state; 0 leaves
// runs uncapped.
func (s *Sim) RunBatch(st stream.Stream, buf []stream.Update, every int64,
	visit func(run []stream.Update, delivered bool)) int64 {
	return runBatched(s, st, buf, every, visit)
}

// ReplaceCoord swaps the coordinator algorithm in place with no protocol
// traffic — ReplaceSite's coordinator-side twin, for the coordinator
// snapshot property tests (track.RestoreCoord).
func (s *Sim) ReplaceCoord(algo CoordAlgo) { s.coord = algo }

// Estimate returns the coordinator's current estimate f̂.
func (s *Sim) Estimate() int64 { return s.coord.Estimate() }

// Inject runs fn with the coordinator's outbox and then drains the
// triggered messages to quiescence — the hook for coordinator-initiated
// control traffic (e.g. attaching a tracking query mid-stream) that no
// inbound message triggers. Call it only between Steps.
func (s *Sim) Inject(fn func(Outbox)) {
	fn(s.coordOut)
	s.drain()
}

// deliver accounts (and traces), records, and dispatches one message to
// node to. Handlers may enqueue further messages; the drain loop delivers
// them in FIFO order. m may point into the ring at an already-released
// slot: every read of *m happens before the handler runs (the dispatch
// copies *m into the call), so sends that recycle or grow the ring
// mid-delivery cannot corrupt the delivery.
//
//varlint:zeroalloc
func (s *Sim) deliver(to int32, m *Msg) {
	s.delivered(m, to, 0)
	if s.Recorder != nil {
		s.Recorder(TranscriptEntry{T: s.t, To: to, Msg: *m})
	}
	if to == CoordID {
		s.coord.OnMessage(*m, s.coordOut)
	} else {
		s.sites[to].OnMessage(*m, s.siteOut[to])
	}
}

// simOutbox routes messages for the node `from` (CoordID or a site index).
type simOutbox struct {
	s    *Sim
	from int32
}

// The three Outbox methods below open-code the ring append (slot is past
// the compiler's inlining budget because of grow), so the per-message hot
// path is the virtual Send dispatch plus straight-line stores; grow runs
// once per high-water mark.

// Send implements Outbox.
//
//varlint:zeroalloc
func (o *simOutbox) Send(m Msg) {
	if o.from == CoordID {
		o.Broadcast(m)
		return
	}
	q := &o.s.queue
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
func (o *simOutbox) SendTo(site int, m Msg) {
	if o.from != CoordID {
		o.Send(m)
		return
	}
	q := &o.s.queue
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
func (o *simOutbox) Broadcast(m Msg) {
	if o.from != CoordID {
		o.Send(m)
		return
	}
	q := &o.s.queue
	for i := range o.s.sites {
		if q.n == len(q.buf) {
			q.grow()
		}
		e := &q.buf[(q.head+q.n)&(len(q.buf)-1)]
		q.n++
		e.to = int32(i)
		e.msg = m
	}
}
