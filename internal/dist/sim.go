package dist

import "repro/internal/stream"

// TranscriptEntry is one delivered message as seen by a runtime's
// Recorder: the timestep of the latest arrived update when delivery
// happened, the destination (CoordID or a site index), and the message
// itself.
type TranscriptEntry struct {
	T   int64
	To  int32
	Msg Msg
}

// envelope is a message queued on the lane.
type envelope struct {
	to  int32
	msg Msg
}

// msgRing is the lane's growable FIFO ring buffer of envelopes. drop never
// shrinks or releases the backing array, so a drain that fits in the
// high-water mark performs no allocation. The capacity is kept a power of
// two so the index wrap is a mask, not a modulo — a push and a drop run
// once per delivered message. The one push path is open-coded in the
// asyncOutbox methods: a push method calling grow would be past the
// compiler's inlining budget, and grow runs once per high-water mark.
type msgRing struct {
	buf  []envelope
	head int // index of the next envelope to deliver
	n    int // number of queued envelopes
}

// peek returns the oldest envelope in place; drop releases it. Splitting
// the pop this way lets drain hand dispatch a pointer into the ring
// instead of copying the envelope out — safe because dispatch finishes
// every read of the slot before the handler (whose sends could recycle it)
// runs.
//
//varlint:zeroalloc
func (r *msgRing) peek() *envelope { return &r.buf[r.head] }

//varlint:zeroalloc
func (r *msgRing) drop() {
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
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

// NewSim builds the synchronous simulator over a coordinator and its k site
// algorithms: an AsyncSim under the zero NetModel, whose lane delivers
// every message an update triggers, FIFO, before Step returns — the
// synchronous model the paper's per-step guarantee assumes.
func NewSim(coord CoordAlgo, sites []SiteAlgo) *AsyncSim {
	if coord == nil || len(sites) == 0 {
		panic("dist: a runtime needs a coordinator and at least one site")
	}
	s := &AsyncSim{coord: coord, network: &idleNet, ingest: ingest{sites: sites}}
	s.coordOut = &asyncOutbox{s: s, from: CoordID}
	s.siteOut = make([]*asyncOutbox, len(sites))
	for i := range sites {
		s.siteOut[i] = &asyncOutbox{s: s, from: int32(i)}
	}
	return s
}

// Run drives an entire stream through the runtime, one Step per update,
// and returns the number of updates processed. It holds no more than one
// update in memory at a time. It does not Flush: messages still in flight
// after the last arrival stay pending until Flush is called.
func (s *AsyncSim) Run(st stream.Stream) int64 {
	var steps int64
	for {
		u, ok := st.Next()
		if !ok {
			return steps
		}
		s.Step(u)
		steps++
	}
}

// RunBatch drives an entire stream through the batched ingest path,
// filling the caller-owned buffer from the stream and feeding it through
// StepBatch. A nil or empty buf gets a default-sized one. The end state is
// byte-identical to Run's; the difference is dispatch cost — one stream
// fill and a few site calls per buffer instead of two virtual calls per
// update. It returns the number of updates and does not Flush.
//
// Harnesses that check every step pass visit: it receives each consumed
// run and whether any message was delivered (any event ran) while it was
// fed. When delivered is false Estimate() is what it was before the run,
// so a caller reads it once per delivering run. every > 0 ends a run on
// each multiple of every updates, for probes that read site state; 0
// leaves runs uncapped.
func (s *AsyncSim) RunBatch(st stream.Stream, buf []stream.Update, every int64,
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
			c, delivered := s.StepBatch(buf[i:end])
			if visit != nil {
				visit(buf[i:i+c], delivered)
			}
			i += c
			steps += int64(c)
		}
	}
}
