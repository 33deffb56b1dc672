package dist

import "repro/internal/stream"

// Outbox is how an algorithm emits messages. The runtime (AsyncSim or the
// TCP transport) routes them through the star topology.
type Outbox interface {
	// Send delivers to the node's peer: the coordinator when called at a
	// site, every site (a broadcast) when called at the coordinator.
	Send(m Msg)
	// SendTo delivers to one site by id. Only meaningful at the
	// coordinator; at a site it is equivalent to Send.
	SendTo(site int, m Msg)
	// Broadcast delivers to every site when called at the coordinator;
	// at a site it is equivalent to Send.
	Broadcast(m Msg)
}

// CoordAlgo is the coordinator half of a tracking algorithm. OnMessage is
// invoked for every site message; Estimate must return the current f̂ and
// be callable at any quiescent point.
type CoordAlgo interface {
	OnMessage(m Msg, out Outbox)
	Estimate() int64
}

// SiteAlgo is the site half of a tracking algorithm. OnUpdate is invoked
// for each local stream update, OnMessage for each coordinator message.
type SiteAlgo interface {
	OnUpdate(u stream.Update, out Outbox)
	OnMessage(m Msg, out Outbox)
}

// SiteRejoiner is an optional SiteAlgo extension for fault-aware runtimes:
// OnRejoin fires when the site's link to the coordinator is restored after
// a partition, letting the site re-send state the outage may have lost
// (reports are fire-and-forget; nothing else retries them). Implementations
// must only emit messages that are safe to deliver on top of whatever the
// coordinator already holds — absolute values, not deltas.
type SiteRejoiner interface {
	OnRejoin(out Outbox)
}

// CoordRejoiner is the coordinator-side counterpart of SiteRejoiner:
// OnSiteRejoin fires when one site's link is restored, letting the
// coordinator re-send that site whatever broadcast state it missed.
type CoordRejoiner interface {
	OnSiteRejoin(site int, out Outbox)
}

// CoordFailureHandler is an optional CoordAlgo extension for runtimes with
// failure detection: OnSiteDead fires when the detector declares a site's
// slot dead (heartbeat miss threshold on TCP, virtual-clock timeout on
// AsyncSim). Implementations should degrade gracefully — excuse the dead
// site from open collections and keep serving estimates — rather than wedge
// waiting for a reply that will never come.
type CoordFailureHandler interface {
	OnSiteDead(site int, out Outbox)
}

// CoordRecoverHandler is the rescind half of CoordFailureHandler: a
// failure detector cannot distinguish a crashed site from one behind a
// transient partition, and its death verdicts latch. OnSiteAlive fires
// when a heartbeat from the declared-dead site's current incarnation
// arrives anyway — proof the verdict was premature — so the coordinator
// can stop excusing the slot from collections before the leak compounds.
// A genuinely crashed site never triggers it: its beacons stopped with
// it, and a replacement announces itself through the takeover path
// instead.
type CoordRecoverHandler interface {
	OnSiteAlive(site int, out Outbox)
}

// SiteTakeover is an optional SiteAlgo extension for replacement processes:
// OnTakeover fires once when the site is spliced into a dead slot, letting
// it announce itself to the coordinator (KindTakeover) and negotiate what
// snapshot-era state is still owed. It fires on warm (snapshot-restored)
// and cold (fresh) replacements alike.
type SiteTakeover interface {
	OnTakeover(out Outbox)
}

// CoordTakeoverHandler is an optional CoordAlgo extension: OnSiteTakeover
// fires when the runtime splices a replacement into site's dead slot —
// before any protocol message from the replacement arrives, mirroring the
// TCP transport, where the re-dial handshake precedes all frames. It is the
// hook for control-plane re-announcement (e.g. re-sending KindAttach for
// queries registered after the replacement's snapshot was taken).
type CoordTakeoverHandler interface {
	OnSiteTakeover(site int, out Outbox)
}

// CoordTakeover is an optional CoordAlgo extension for standby coordinator
// processes: OnCoordTakeover fires once per site when the standby is
// spliced into the dead coordinator's slot, letting it announce the new
// coordinator epoch (KindCoordTakeover) and negotiate what reply content
// its snapshot never saw. AsyncSim calls it for every site at the splice;
// the TCP standby calls it per site as each one re-dials, so the announce
// is always the first frame a re-connected site receives.
type CoordTakeover interface {
	OnCoordTakeover(site int, epoch int64, out Outbox)
}

// BatchSiteAlgo is an optional fast path for SiteAlgo. The runtime hands a
// batch-capable site a run of consecutive updates all destined to it, so
// the site pays one virtual call per run instead of per update.
//
// OnUpdateBatch must consume a nonempty prefix of us (us is never empty),
// return the number consumed, and behave exactly as if OnUpdate had been
// called on each consumed update in order. The one extra obligation is the
// stopping rule: the site must return immediately after the first update
// that makes it send any message. The runtime then drains the network to
// quiescence before feeding the remainder, so the messages a site receives
// back (block broadcasts, state requests) interleave with its updates
// exactly as on the per-update path — Stats, transcripts, and estimates
// stay byte-identical.
//
// Sim and AsyncSim use it only when some site is not a QuietSiteAlgo: a
// deployment of quiet sites needs no same-site run, because its
// message-free updates cost no site call at all.
type BatchSiteAlgo interface {
	SiteAlgo
	OnUpdateBatch(us []stream.Update, out Outbox) int
}

// QuietSiteAlgo is an optional fast path for SiteAlgo that goes further
// than BatchSiteAlgo: the site states how much input it can take without
// sending, and the runtime applies that input in bulk, with no per-update
// call and no same-site run scan.
//
// Quiet returns a budget q: any run of updates to this site whose costs
// max(1, |Δ|) sum to at most q provably sends no message. A negative q
// means the site never takes this path, and that answer must not change
// over the site's lifetime: the runtime (Sim or AsyncSim) asks once, and a
// deployment with any such site keeps the per-update path for good. After
// that first answer the budget is never negative.
//
// Absorb applies n updates whose deltas sum to sum, exactly as n OnUpdate
// calls with those updates would. The runtime calls it only for runs
// within the budget, so it never sends.
type QuietSiteAlgo interface {
	SiteAlgo
	Quiet() int64
	Absorb(n, sum int64)
}
