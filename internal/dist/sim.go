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
	coord CoordAlgo
	sites []SiteAlgo
	queue msgRing

	// slots is each site's StepBatch fast-path state, and mode says which
	// StepBatch loop runs. Both are set up by the first StepBatch call, not
	// by NewSim, so building a deployment costs no type assertions; a
	// ReplaceSite makes the next call set them up again.
	slots []simSlot
	mode  simMode
	// synced is CoordToSite when the quiet budgets were last valid. A
	// delivery to any site moves CoordToSite on, and Step sets synced to
	// −1, so a mismatch says some site changed outside a quiet pass.
	synced int64
	// touched lists the sites with absorbed updates pending in the
	// current quiet pass.
	touched []int

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

// simSlot is one site's StepBatch state.
type simSlot struct {
	batch BatchSiteAlgo // the site if it is batch-capable, else nil
	quiet QuietSiteAlgo // the site if it is quiet-capable, else nil

	// In a quiet pass: the cost the site can still absorb (−1 when stale,
	// so the next update takes OnUpdate), the updates absorbed but not yet
	// applied and their net change, and whether the site is on touched.
	budget int64
	n, sum int64
	listed bool
}

// simMode selects the StepBatch loop.
type simMode uint8

const (
	simUnprobed simMode = iota // no StepBatch call since NewSim or ReplaceSite
	simPlain                   // some site is not quiet: per-update and run path
	simQuiet                   // every site is quiet: absorb message-free stretches
)

// maxSiteRun bounds how many same-site updates StepBatch hands to one
// OnUpdateBatch call; see the scan comment in StepBatch.
const maxSiteRun = 64

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
	s := &Sim{coord: coord, sites: sites}
	s.coordOut = &simOutbox{s: s, from: CoordID}
	s.siteOut = make([]*simOutbox, len(sites))
	for i := range sites {
		s.siteOut[i] = &simOutbox{s: s, from: int32(i)}
	}
	return s
}

// probe sets up the StepBatch state: it asserts each site's fast paths
// once and picks the quiet loop when every site is quiet. Doing this here
// rather than in NewSim keeps deployment set-up cheap; the cost lands on
// the first StepBatch call, amortized over the updates the Sim is fed.
func (s *Sim) probe() {
	s.slots = make([]simSlot, len(s.sites))
	quiet := true
	for i, site := range s.sites {
		sl := &s.slots[i]
		sl.batch, _ = site.(BatchSiteAlgo)
		sl.quiet, _ = site.(QuietSiteAlgo)
		quiet = quiet && sl.quiet != nil && sl.quiet.Quiet() >= 0
	}
	s.mode = simPlain
	if quiet {
		// synced = −1 leaves every budget to be read by the first pass.
		s.mode, s.synced = simQuiet, -1
		s.touched = make([]int, 0, len(s.sites))
	}
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
		s.deliver(e)
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
// updates.
func runBatched(r stepper, st stream.Stream, buf []stream.Update) int64 {
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
			c, _ := r.StepBatch(buf[i:n])
			i += c
		}
		steps += int64(n)
	}
}

// StepBatch feeds a prefix of us to the sites and returns how many updates
// it consumed, plus whether any messages were delivered. It processes
// updates in order and stops — after draining the network to quiescence —
// as soon as one update triggers a message, so a batch is a sequence of
// Steps, never a reordering: Stats, transcripts, and estimates are
// byte-identical to calling Step on each consumed update.
//
// The returned flag lets callers cache derived state across message-free
// prefixes: when delivered is false, no coordinator or site OnMessage ran,
// so Estimate() is unchanged from before the call.
//
// When every site is a QuietSiteAlgo, message-free stretches cost no site
// call at all (see stepQuiet). A deployment with any other site pays one
// predictable branch per call for that check.
//
//varlint:zeroalloc
func (s *Sim) StepBatch(us []stream.Update) (consumed int, delivered bool) {
	if s.mode != simPlain {
		if s.mode == simUnprobed {
			s.probe()
		}
		if s.mode == simQuiet {
			return s.stepQuiet(us)
		}
	}
	i := 0
	for i < len(us) {
		u := us[i]
		if b := s.slots[u.Site].batch; b != nil {
			// Cap the same-site run scan: when sends are frequent a run is
			// consumed over several calls, and an uncapped scan would
			// re-walk the tail each time (quadratic for single-site
			// streams). Message-free runs pay one comparison per update
			// regardless of the cap.
			jmax := i + maxSiteRun
			if jmax > len(us) {
				jmax = len(us)
			}
			j := i + 1
			for j < jmax && us[j].Site == u.Site {
				j++
			}
			if j == i+1 {
				// Single-update runs (round-robin assignment interleaves
				// sites) skip the batch machinery.
				s.sites[u.Site].OnUpdate(u, s.siteOut[u.Site])
				i++
			} else {
				n := b.OnUpdateBatch(us[i:j], s.siteOut[u.Site])
				if n <= 0 {
					panic("dist: OnUpdateBatch consumed no updates")
				}
				i += n
			}
		} else {
			s.sites[u.Site].OnUpdate(u, s.siteOut[u.Site])
			i++
		}
		if s.queue.n > 0 {
			s.t, s.now = us[i-1].T, us[i-1].T
			s.drain()
			return i, true
		}
	}
	// Keep the transcript stamp current across message-free prefixes too,
	// so a subsequent Inject stamps its cascade with the same T the
	// per-update loop would have.
	s.t, s.now = us[i-1].T, us[i-1].T
	return i, false
}

// stepQuiet is StepBatch over quiet sites. Each update costs its site
// max(1, |Δ|) of budget and is only counted: the site's pending count and
// net change go up, and no site is called. An update that would overdraw
// its site's budget, or whose site's budget is stale, goes through
// OnUpdate instead, after the site absorbs what it has pending so its
// updates keep their order; if it sent nothing, the site's budget is
// re-read and the pass goes on. Sites absorb their pending runs, one
// Absorb call each, before the network drains and before the call
// returns. No message can be sent inside an absorbed run, so Stats,
// transcripts and estimates are exactly the per-update path's.
//
// A budget goes stale when its site's state changes outside the pass:
// the site that sent, and, after any delivery to a site or any Step call,
// every site. Sim cannot tell which sites a drain reached without a store
// per delivery, and on the one quiet protocol (the deterministic tracker)
// a site only ever receives the block broadcasts, which reach them all.
// A stale site's next update takes OnUpdate, and the budget is re-read
// only if that update sent nothing, so a call costs O(sites touched), not
// O(k), and a site that sends on every update (its budget would read 0)
// pays no budget read at all.
//
//varlint:zeroalloc
func (s *Sim) stepQuiet(us []stream.Update) (int, bool) {
	if s.synced != s.stats.CoordToSite {
		for i := range s.slots {
			s.slots[i].budget = -1
		}
		s.synced = s.stats.CoordToSite
	}
	for i, u := range us {
		sl := &s.slots[u.Site]
		if c := quietCost(u.Delta); sl.budget >= c {
			sl.budget -= c
			sl.n++
			sl.sum += u.Delta
			if !sl.listed {
				sl.listed = true
				s.touched = append(s.touched, u.Site)
			}
			continue
		}
		if sl.n > 0 {
			sl.quiet.Absorb(sl.n, sl.sum)
			sl.n, sl.sum = 0, 0
		}
		sl.quiet.OnUpdate(u, s.siteOut[u.Site])
		if s.queue.n == 0 {
			sl.budget = sl.quiet.Quiet()
			continue
		}
		sl.budget = -1
		if len(s.touched) > 0 {
			s.absorb()
		}
		s.t, s.now = u.T, u.T
		s.drain()
		return i + 1, true
	}
	s.absorb()
	s.t, s.now = us[len(us)-1].T, us[len(us)-1].T
	return len(us), false
}

// quietCost is the budget an update of delta d takes: max(1, |d|). A zero
// delta still counts one update towards the site's count reports.
//
//varlint:zeroalloc
func quietCost(d int64) int64 {
	if d < 0 {
		d = -d
	}
	return max(d, 1)
}

// absorb applies every touched site's pending run, one Absorb call each.
//
//varlint:zeroalloc
func (s *Sim) absorb() {
	for _, i := range s.touched {
		sl := &s.slots[i]
		if sl.n > 0 {
			sl.quiet.Absorb(sl.n, sl.sum)
		}
		sl.n, sl.sum, sl.listed = 0, 0, false
	}
	s.touched = s.touched[:0]
}

// RunBatch drives an entire stream through the simulator using the batched
// ingest path, filling the caller-owned buffer from the stream and feeding
// it through StepBatch. A nil or empty buf gets a default-sized one. The
// end state is byte-identical to Run; the difference is dispatch cost —
// one stream fill and a few site calls per buffer instead of two virtual
// calls per update.
func (s *Sim) RunBatch(st stream.Stream, buf []stream.Update) int64 {
	return runBatched(s, st, buf)
}

// ReplaceSite swaps site's algorithm in place with no protocol traffic. It
// exists for the snapshot property tests: the caller guarantees the
// replacement's state is identical to the old algorithm's
// (track.RestoreSite), so the swap is unobservable.
func (s *Sim) ReplaceSite(site int, algo SiteAlgo) {
	s.sites[site] = algo
	s.slots, s.mode = nil, simUnprobed
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

// deliver accounts (and traces), records, and dispatches one message.
// Handlers may enqueue further messages; the drain loop delivers them in
// FIFO order. The envelope pointer may point into the ring at an
// already-released slot: every read of *e happens before the handler runs
// (the dispatch copies e.msg into the call), so sends that recycle or grow
// the ring mid-delivery cannot corrupt the delivery.
//
//varlint:zeroalloc
func (s *Sim) deliver(e *envelope) {
	s.delivered(&e.msg, e.to, 0)
	if s.Recorder != nil {
		s.Recorder(TranscriptEntry{T: s.t, To: e.to, Msg: e.msg})
	}
	if e.to == CoordID {
		s.coord.OnMessage(e.msg, s.coordOut)
	} else {
		s.sites[e.to].OnMessage(e.msg, s.siteOut[e.to])
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
