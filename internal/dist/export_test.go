package dist

// EventsScheduled returns how many events the scheduler queue has been
// handed so far (its sequence counter), for per-event cost in benchmarks.
func (s *AsyncSim) EventsScheduled() uint64 { return s.queue.seq }

// QueueSlots returns the scheduler queue's slab length: its high-water
// mark of simultaneously pending events, plus the nil slot.
func (s *AsyncSim) QueueSlots() int { return len(s.queue.slab) }

// KindHello is the site handshake kind, for tests that speak the wire
// protocol by hand.
const KindHello = kindHello

// QuietMode reports whether the site-ingest core runs the quiet loop, for
// tests that must know the absorbed path is the one under test. It reads
// false until the first StepBatch call.
func (c *ingest) QuietMode() bool { return c.mode == ingestQuiet }

// EventsPopped returns how many scheduler events have been processed so
// far: on the lane, one per delivery; off it, the events the queue popped
// since the runtime left the lane.
func (s *AsyncSim) EventsPopped() uint64 {
	if s.onLane() {
		return uint64(s.stats.Total())
	}
	return s.queue.popped()
}

// LeaveLane builds s's network state, so that it delivers through its
// event queue from here on, under the zero model too.
func (s *AsyncSim) LeaveLane() {
	if s.onLane() {
		s.buildNetwork(NetModel{}, 0)
	}
}

// OnLane reports whether s still delivers on its lane.
func (s *AsyncSim) OnLane() bool { return s.onLane() }
