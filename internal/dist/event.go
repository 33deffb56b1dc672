package dist

// Protocol event tracing. An EventSink installed on a runtime
// (AsyncSim.Events, Coordinator.SetEventSink) observes the protocol's
// control plane as a stream of structured Events: block boundaries, state
// collections, takeover handshakes, liveness verdicts, and losses. Report
// kinds (drift, count, frequency, value) are deliberately not traced —
// they are the data plane, and tracing them would flood any bounded ring
// with millions of entries per run while the control plane stays in the
// hundreds.
//
// Every Event is built in one place, the ledger each runtime embeds (see
// ledger.delivered, ledger.dropped, liveness.emit), and stamped with its
// clock. The disabled path is free: each is a nil check on the sink, and
// Events are passed by value, so with no sink installed the hot
// paths stay zero-alloc (pinned by TestSimStepZeroAllocTraced and the
// varlint zeroalloc pass).

// EventKind tags the protocol role of a traced Event.
type EventKind uint8

const (
	// EvBlock is a genuine KindNewBlock boundary broadcast: A is the new
	// exponent r, B is f(n_j), Item the completed-block count.
	EvBlock EventKind = iota + 1
	// EvResync is a resync copy of the block identity (low Item bit set),
	// sent by BlockCoord.OnSiteRejoin to one healing site.
	EvResync
	// EvCollect is a KindStateRequest: the coordinator opened (broadcast)
	// or re-requested (re-sent to one site) an end-of-block collection.
	EvCollect
	// EvStateReply is a site's KindStateReply: A its pending update count,
	// B its net change since the block broadcast.
	EvStateReply
	// EvTakeoverMsg is a KindTakeover handshake message: site-to-coord the
	// replacement's announce, coord-to-site the acknowledgement.
	EvTakeoverMsg
	// EvCoordHandshake is a KindCoordTakeover handshake message:
	// coord-to-site the standby's announce, site-to-coord the ack carrying
	// the site's lifetime reply books (Item = Σ counts, A = replies sent,
	// B = Σ net change).
	EvCoordHandshake
	// EvHeartbeatMiss is one overdue heartbeat interval charged to Site.
	EvHeartbeatMiss
	// EvSiteDead is the failure detector declaring Site dead.
	EvSiteDead
	// EvSiteAlive is the detector rescinding a death verdict: Site still
	// beacons, so the outage was a partition, not a crash.
	EvSiteAlive
	// EvSiteCrash is a crash fault killing Site's process (AsyncSim).
	EvSiteCrash
	// EvTakeover is the runtime splicing a replacement into Site's slot
	// (AsyncSim ScheduleTakeover; TCP re-dial of a dead slot).
	EvTakeover
	// EvCoordCrash is a crash fault killing the coordinator (AsyncSim).
	EvCoordCrash
	// EvCoordTakeover is the runtime splicing a standby coordinator in. On
	// AsyncSim it fires once at the splice; on TCP once per site as the
	// standby announces itself to that site's re-dial (Site names it).
	EvCoordTakeover
	// EvEpochDrop is a delivery lost to incarnation gating: it belonged to
	// a previous epoch of either endpoint (AsyncSim).
	EvEpochDrop
	// EvDrop is a delivery lost for good to the network or a dead slot
	// (after retransmission gave up, or a write to an unconnected slot).
	EvDrop
)

// eventKindNames are the kinds' JSONL and test-assertion names.
var eventKindNames = [...]string{EvBlock: "block", EvResync: "resync", EvCollect: "collect",
	EvStateReply: "state_reply", EvTakeoverMsg: "takeover_msg", EvCoordHandshake: "coord_handshake",
	EvHeartbeatMiss: "hb_miss", EvSiteDead: "site_dead", EvSiteAlive: "site_alive",
	EvSiteCrash: "site_crash", EvTakeover: "takeover", EvCoordCrash: "coord_crash",
	EvCoordTakeover: "coord_takeover", EvEpochDrop: "epoch_drop", EvDrop: "drop"}

// String names the kind for JSONL dumps and test assertions.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one traced occurrence. T is the stream step of the latest
// arrived update when it happened; Now is the runtime clock — virtual
// ticks on Sim/AsyncSim, wall nanoseconds on the TCP transport (the one
// runtime that is not deterministic anyway). Site is the site endpoint
// (the sender for message-derived events, the slot for liveness events);
// To is the destination of message-derived events (CoordID or a site).
// Item, A, B carry the underlying message's payload where one exists.
type Event struct {
	Kind EventKind
	T    int64
	Now  int64
	Site int32
	To   int32
	Item uint64
	A, B int64
}

// EventSink consumes traced events. Sinks run synchronously inside the
// runtime's delivery path (under the coordinator mutex on TCP): they must
// not block, and must not call back into the runtime.
type EventSink func(Event)

// msgEventKind maps a protocol message to its traced event kind, or 0 for
// the untraced data-plane kinds. The ledger calls it only with a sink
// installed, so the hot paths pay one nil-comparison when tracing is off.
func msgEventKind(m *Msg) EventKind {
	//varlint:kinds KindAttach,KindCountReport,KindDetach,KindDriftReport,KindFreqEnd,KindFreqReport,KindValueReport
	switch m.Kind {
	case KindNewBlock:
		if m.Item&1 == 1 {
			return EvResync
		}
		return EvBlock
	case KindStateRequest:
		return EvCollect
	case KindStateReply:
		return EvStateReply
	case KindTakeover:
		return EvTakeoverMsg
	case KindCoordTakeover:
		return EvCoordHandshake
	}
	return 0
}
