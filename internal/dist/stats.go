package dist

import "slices"

// Stats counts the communication of one run. Both runtimes account
// identically: every delivered algorithm message increments exactly one
// directional counter, adds MsgSize wire bytes, and adds its compact
// varint size to CompactBits. Broadcasts count once per recipient.
type Stats struct {
	// SiteToCoord counts messages delivered to the coordinator.
	SiteToCoord int64
	// CoordToSite counts messages delivered to sites.
	CoordToSite int64
	// Bytes is the wire volume: MsgSize bytes per message.
	Bytes int64
	// CompactBits prices the same messages in the paper's
	// O(log n + log f) bit model (varint encoding; see compactBits).
	CompactBits int64

	// The fault counters below are populated by AsyncSim, and — for Dropped
	// only — by the TCP transport when failure detection is enabled and a
	// message is addressed to a dead slot. The lane delivers every message
	// immediately, so they stay zero there — which is exactly what the
	// zero-fault equivalence of the lane and the event queue requires.

	// Dropped counts messages lost for good: every transmission attempt
	// (1 + NetModel.Retrans of them) failed. Dropped messages appear in no
	// other counter.
	Dropped int64
	// Retransmitted counts retransmission attempts (not messages): a
	// message that needed three tries before landing adds two.
	Retransmitted int64
	// StalenessSum and StalenessMax gauge estimate staleness: for each
	// delivered message, the virtual ticks between its original send and
	// its effect on Estimate() (its delivery). Retransmissions age a
	// message; they never reset its send time. Messages addressed to a
	// crashed slot or sent before its crash contribute to Dropped, never to
	// staleness — a dead slot must not inflate StalenessMax.
	StalenessSum int64
	StalenessMax int64

	// The liveness counters below are populated only when failure detection
	// is enabled (NetModel.HeartbeatEvery on AsyncSim, SetFailureDetection
	// on the TCP Coordinator). Heartbeats are transport-internal: they
	// appear in no message, byte, or compact-bit counter, and they are
	// aggregate-only — per-class tables never carry them, so the per-class
	// exact-sum property is over the message counters above.

	// HeartbeatsSent counts heartbeat beacons emitted by sites.
	HeartbeatsSent int64
	// HeartbeatsRecv counts heartbeat beacons received by the coordinator.
	HeartbeatsRecv int64
	// HeartbeatMisses counts detector check intervals in which an expected
	// heartbeat was overdue.
	HeartbeatMisses int64
	// Takeovers counts replacement sites spliced into dead slots. A
	// replacement that loses its first connection before completing the
	// takeover handshake and re-dials counts once, not once per dial (the
	// TCP coordinator tracks whether the slot was seen alive in between).
	Takeovers int64
	// CoordTakeovers counts standby coordinators spliced into the dead
	// coordinator slot.
	CoordTakeovers int64
	// EpochDrops is the subset of Dropped lost to incarnation gating rather
	// than to the fault model's network loss: the message crossed a crashed
	// slot, or belonged to a node incarnation (site epoch or coordinator
	// epoch) that was no longer current at delivery time. Such messages are
	// never folded into algorithm state.
	EpochDrops int64
}

// WithoutLiveness returns s with the liveness counters zeroed — the shape
// compared by the crash-free anchor property (a run with heartbeats enabled
// matches a heartbeat-free run on everything except the liveness counters).
func (s Stats) WithoutLiveness() Stats {
	s.HeartbeatsSent = 0
	s.HeartbeatsRecv = 0
	s.HeartbeatMisses = 0
	s.Takeovers = 0
	s.CoordTakeovers = 0
	s.EpochDrops = 0
	return s
}

// Merge folds o into s the way per-class tables aggregate: every counter
// sums except StalenessMax, which folds as a maximum. Merging every class
// of a per-class table therefore reproduces the aggregate exactly.
func (s *Stats) Merge(o Stats) {
	s.SiteToCoord += o.SiteToCoord
	s.CoordToSite += o.CoordToSite
	s.Bytes += o.Bytes
	s.CompactBits += o.CompactBits
	s.Dropped += o.Dropped
	s.Retransmitted += o.Retransmitted
	s.StalenessSum += o.StalenessSum
	if o.StalenessMax > s.StalenessMax {
		s.StalenessMax = o.StalenessMax
	}
	s.HeartbeatsSent += o.HeartbeatsSent
	s.HeartbeatsRecv += o.HeartbeatsRecv
	s.HeartbeatMisses += o.HeartbeatMisses
	s.Takeovers += o.Takeovers
	s.CoordTakeovers += o.CoordTakeovers
	s.EpochDrops += o.EpochDrops
}

// Total returns the message count over both directions.
func (s Stats) Total() int64 { return s.SiteToCoord + s.CoordToSite }

// Delivered returns the number of messages actually delivered to a handler
// — an alias of Total, named for reading alongside Dropped/Retransmitted.
func (s Stats) Delivered() int64 { return s.Total() }

// AvgStaleness returns the mean delivery staleness in virtual ticks.
func (s Stats) AvgStaleness() float64 {
	if t := s.Total(); t > 0 {
		return float64(s.StalenessSum) / float64(t)
	}
	return 0
}

// Classifier maps a message to a small nonnegative class index for
// per-class Stats attribution — in practice the query id of a multiplexed
// tracking query (internal/query). A runtime with a classifier installed
// keeps one Stats per class next to the aggregate: every delivered message
// is accounted in exactly one class, and on fault-injecting runtimes so are
// drops, retransmissions, and staleness, so the per-class counters sum
// exactly to the aggregate (StalenessMax sums as a maximum).
//
// Class may return −1 for a message it cannot place; the runtime accounts
// it in class 0. The table grows to the largest index Class returns, so a
// classifier fed outside input must bound its indices.
//
// Class must be a pure function of the message and must not retain m.
type Classifier interface {
	Class(m *Msg) int
}

// ledger is the accounting and tracing scaffold every runtime embeds. Each
// method accounts the aggregate and the message's class slot together,
// which keeps the per-class counters summing exactly to the aggregate, and
// traces what it accounts: every Event any runtime emits is built here.
type ledger struct {
	// Events, when non-nil, observes the protocol control plane (see
	// EventKind). The TCP Coordinator installs it under its lock
	// (SetEventSink).
	Events EventSink

	// t and now stamp every event: the stream step of the latest arrived
	// update and the runtime clock (the virtual tick). wall, when
	// non-nil, replaces now: the TCP coordinator stamps wall nanoseconds.
	t, now int64
	wall   func() int64

	stats      Stats
	classifier Classifier
	classStats []Stats
	// classScratch is the ledger-owned copy of the message handed to the
	// classifier: an interface call must be assumed to retain its pointer
	// argument, so passing the caller's message would force it to escape
	// and cost the delivery path one heap allocation per message.
	classScratch Msg
}

// Stats returns the communication counters so far.
func (l *ledger) Stats() Stats { return l.stats }

// SetClassifier installs a per-class Stats attribution (see Classifier).
// Install it before driving updates so no message goes unattributed.
func (l *ledger) SetClassifier(c Classifier) { l.classifier = c }

// ClassStats returns a snapshot of the per-class counters, indexed by
// class. Nil when no classifier is installed.
func (l *ledger) ClassStats() []Stats { return slices.Clone(l.classStats) }

// class returns the Stats slot of m's class, growing the table as needed;
// afterwards classScratch holds m. Negative indices (a classifier seeing a
// message it cannot place) share slot 0 rather than corrupting memory.
func (l *ledger) class(m *Msg) *Stats {
	l.classScratch = *m
	idx := l.classifier.Class(&l.classScratch)
	if idx < 0 {
		idx = 0
	}
	for len(l.classStats) <= idx {
		l.classStats = append(l.classStats, Stats{})
	}
	return &l.classStats[idx]
}

// delivered accounts one message delivered to `to` (CoordID or a site
// index) lag ticks after its original send, and traces control traffic.
//
//varlint:zeroalloc
func (l *ledger) delivered(m *Msg, to int32, lag int64) {
	l.stats.add(m, to, lag)
	if l.classifier != nil {
		l.class(m).add(&l.classScratch, to, lag)
	}
	if l.Events != nil {
		if k := msgEventKind(m); k != 0 {
			l.emit(Event{Kind: k, Site: m.Site, To: to, Item: m.Item, A: m.A, B: m.B})
		}
	}
}

// dropped accounts and traces one message lost for good on the link
// between site and `to`: EvEpochDrop to incarnation gating, EvDrop else.
func (l *ledger) dropped(m *Msg, kind EventKind, site, to int32) {
	epoch := kind == EvEpochDrop
	l.stats.drop(epoch)
	if l.classifier != nil {
		l.class(m).drop(epoch)
	}
	if l.Events != nil {
		l.emit(Event{Kind: kind, Site: site, To: to, Item: m.Item, A: m.A, B: m.B})
	}
}

// retransmitted accounts one retransmission attempt of m.
func (l *ledger) retransmitted(m *Msg) {
	l.stats.Retransmitted++
	if l.classifier != nil {
		l.class(m).Retransmitted++
	}
}

// emit stamps e with the ledger's clock and hands it to the (non-nil) sink.
//
//varlint:zeroalloc
func (l *ledger) emit(e Event) {
	e.T, e.Now = l.t, l.now
	if l.wall != nil {
		e.Now = l.wall()
	}
	l.Events(e)
}

// add accounts one message delivered to `to` lag ticks after its send.
// The message is taken by pointer: add runs once per delivery and a by-
// value Msg would cost a 32-byte copy per call.
func (s *Stats) add(m *Msg, to int32, lag int64) {
	if to == CoordID {
		s.SiteToCoord++
	} else {
		s.CoordToSite++
	}
	s.Bytes += MsgSize
	s.CompactBits += compactBits(m)
	s.StalenessSum += lag
	if lag > s.StalenessMax {
		s.StalenessMax = lag
	}
}

// drop accounts one lost message (see ledger.dropped).
func (s *Stats) drop(epoch bool) {
	s.Dropped++
	if epoch {
		s.EpochDrops++
	}
}
