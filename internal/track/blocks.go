// Package track implements the distributed tracking algorithms of the paper:
// the block partitioning of time (§3.1), the deterministic in-block tracker
// (§3.3, O(k·v/ε) messages), the randomized in-block tracker (§3.4,
// O((k+√k/ε)·v) messages), the single-site aggregate tracker (appendix I),
// and the baseline algorithms the paper compares against (naive forwarding,
// Cormode-Muthukrishnan-Yi-style and Huang-Yi-Zhang-style monotone counters,
// and a Liu-Radunović-Vojnović-style sampling tracker).
//
// All trackers are pluggable pairs of dist.SiteAlgo / dist.CoordAlgo and run
// unchanged on the synchronous simulator or the TCP transport.
package track

import (
	"math"
	"math/bits"

	"repro/internal/dist"
	"repro/internal/stream"
)

// InBlockSite is the site half of a per-block estimator plugged into the
// partitioner. The partitioner calls Reset at every block boundary with the
// new exponent r (the Outbox lets estimators emit end-of-block reports, as
// the appendix-H frequency tracker does), and OnUpdate for each in-block
// stream update. OnUpdate is an estimator's one update path: the
// partitioner's batch path calls it in a loop.
type InBlockSite interface {
	Reset(r int64, out dist.Outbox)
	OnUpdate(u stream.Update, out dist.Outbox)
}

// InBlockQuietSite is the one optional fast path for an InBlockSite,
// mirroring dist.QuietSiteAlgo one layer down: Quiet returns a budget
// q ≥ 0 such that any run of updates whose costs max(1, |Δ|) sum to at
// most q sends no message, and Absorb(n, sum) applies n updates of net
// change sum exactly as n OnUpdate calls would. Only an estimator that
// decides to send from its counters alone can bound its sends this way:
// the deterministic one qualifies, its budget being its Drift's, while the
// randomized estimator draws a coin per update and a standalone frequency
// estimator looks up a counter per update, so they do not. The frequency
// estimators hold their F1 Drift as a named field, not an embedded one, so
// Drift's methods do not make them quiet. A query engine's frequency
// column qualifies with a caveat: its budget, too, is its F1 Drift's and
// bounds the drift reports only, and the engine checks the update's item
// row for a counter report before it absorbs (internal/freq, Rows.Touch).
type InBlockQuietSite interface {
	InBlockSite
	Quiet() int64
	Absorb(n, sum int64)
}

// InBlockCoord is the coordinator half of a per-block estimator. Drift
// returns the estimate of f(n) − f(n_j) accumulated during the current
// block.
type InBlockCoord interface {
	Reset(r int64)
	OnMessage(m dist.Msg)
	Drift() int64
}

// InBlockRejoiner is an optional InBlockSite extension mirroring
// dist.SiteRejoiner one layer down: the partitioner forwards a rejoin
// notification so the in-block estimator can re-send its absolute state
// (reports lost during a partition are never retried by the protocol
// itself). Emitted messages must be idempotent on the coordinator side.
type InBlockRejoiner interface {
	OnRejoin(out dist.Outbox)
}

// ceilPow2Half returns ⌈2^{r−1}⌉: the batch size for count reports in a
// block with exponent r. For r = 0 this is ⌈1/2⌉ = 1. An exponent past 63,
// which blockExponent never picks but a malformed KindNewBlock can carry,
// saturates at 2^62 so the batch stays positive.
func ceilPow2Half(r int64) int64 {
	if r <= 0 {
		return 1
	}
	return int64(1) << uint(min(r, 63)-1)
}

// blockExponent returns the exponent r chosen at the end of a block per
// §3.1: r = 0 if |f| < 4k, else the r ≥ 1 with 2^r·2k ≤ |f| < 2^r·4k.
func blockExponent(f int64, k int) int64 {
	af := f
	if af < 0 {
		af = -af
	}
	kk := int64(k)
	if af < 4*kk {
		return 0
	}
	// 2^r·2k ≤ |f| < 2^(r+1)·2k holds exactly when 2^r ≤ ⌊|f|/2k⌋ <
	// 2^(r+1), so r is that quotient's bit length less one. Unlike
	// doubling 2^r·4k until it passes |f|, this cannot overflow: a restored
	// boundary value near 2^63 must still yield an exponent.
	return int64(bits.Len64(uint64(af/(2*kk)))) - 1
}

// siteExponentOK reports whether a site may adopt block exponent r: r lies
// in [0, blockExponent(MaxInt64, 1)], the range of the exponents any
// coordinator picks (a site does not know k, and k = 1 gives the largest).
// Live adoption and snapshot decoding both check here, so every state a
// KindNewBlock can leave a site in is one its snapshot restores from.
func siteExponentOK(r int64) bool {
	return r >= 0 && r <= blockExponent(math.MaxInt64, 1)
}

// stampOutbox is the outbox BlockSite hands its in-block estimator: it
// stamps every outgoing drift report with the site's block sequence
// (Item is unused by all KindDriftReport senders), forwards everything
// else untouched, and notes that the estimator sent (OnUpdateBatch stops
// on it). Drift values are absolute *within* their block, so the
// coordinator spine uses the stamp to drop a report that raced a block
// boundary — without it, such a report overwrites the freshly reset
// mirror with pre-boundary content whose every update is already folded
// into f(n_j) through the closing collection's state replies, and the
// estimate double-counts it until the site's next report (forever, when
// the stream ends first — the intermittent +Δ the standby-takeover smoke
// used to show). The wrapper lives by value on BlockSite and is re-armed
// per call, so the stamped path never allocates.
type stampOutbox struct {
	out  dist.Outbox //varlint:volatile per-call transient; re-armed by BlockSite.stamped
	seq  uint64      //varlint:volatile per-call transient; re-armed by BlockSite.stamped
	sent bool        //varlint:volatile per-call transient; re-armed by BlockSite.stamped
}

//varlint:zeroalloc
func (o *stampOutbox) Send(m dist.Msg) {
	if m.Kind == dist.KindDriftReport {
		m.Item = o.seq
	}
	o.sent = true
	o.out.Send(m)
}

//varlint:zeroalloc
func (o *stampOutbox) SendTo(site int, m dist.Msg) {
	if m.Kind == dist.KindDriftReport {
		m.Item = o.seq
	}
	o.sent = true
	o.out.SendTo(site, m)
}

//varlint:zeroalloc
func (o *stampOutbox) Broadcast(m dist.Msg) {
	if m.Kind == dist.KindDriftReport {
		m.Item = o.seq
	}
	o.sent = true
	o.out.Broadcast(m)
}

// BlockSite runs the §3.1 partition protocol at one site and delegates
// in-block estimation to an InBlockSite.
type BlockSite struct {
	id    int32 //varlint:volatile construction-time identity; NewReplacement builds the restore target with the same id
	inner InBlockSite
	// innerQuiet/innerRejoin are inner if it implements the respective
	// optional interface, else nil; the assertions are paid once at
	// construction.
	innerQuiet  InBlockQuietSite //varlint:volatile derived from inner at construction
	innerRejoin InBlockRejoiner  //varlint:volatile derived from inner at construction
	r           int64
	batch       int64 //varlint:volatile derived from r (the ⌈2^{r−1}⌉ report batch) by startBlock
	ci          int64 // updates since the last count report or state reply; in [0, batch) between calls
	fi          int64 // net change in f since the last block broadcast
	seenBlocks  int64 // block broadcasts adopted; the site's block sequence

	// repliesSent counts state replies this site has sent (its takeover
	// watermark: the coordinator counts them too, and comparing the two
	// decides whether a snapshot's uncollected ci/fi are still owed).
	repliesSent int64

	// sentCi/sentFi are lifetime totals of the content of every state reply
	// this site has sent (the A and B fields). A standby coordinator
	// restored from a snapshot compares them against its own per-slot fold
	// totals in the KindCoordTakeover handshake: the difference is exactly
	// the reply content the dead coordinator folded after the snapshot (or
	// that the network dropped outright), and folding it re-bases the
	// standby's f(n_j) without double counting. coordEpoch is the
	// coordinator incarnation this site last shook hands with.
	sentCi, sentFi int64
	coordEpoch     int64

	// Takeover state (see OnTakeover): while the KindTakeover announce is
	// in flight, the snapshot-era uncollected count and net change sit in
	// heldCi/heldFi so post-takeover updates never mix with state whose
	// fate the acknowledgement has yet to decide. Any state reply falling
	// due in that window is deferred (deferReply, defCi/defFi): sending one
	// would advance the reply watermark past the snapshot's and make the
	// acknowledgement wrongly discard the held state. Deferred replies go
	// out right after the acknowledgement; the coordinator folds them
	// through its normal open/duplicate/straggler paths.
	//
	// None of this window state is snapshot-covered: its meaning is pinned
	// to an announce this incarnation has in flight, so Snap refuses to
	// encode while the window is open instead of persisting it.
	takingOver     bool   //varlint:volatile takeover-window transient; Snap refuses to encode while the window is open
	heldCi, heldFi int64  //varlint:volatile takeover-window transient; Snap refuses to encode while the window is open
	defCi, defFi   int64  //varlint:volatile takeover-window transient; Snap refuses to encode while the window is open
	deferReply     bool   //varlint:volatile takeover-window transient; Snap refuses to encode while the window is open
	snapReplies    int64  //varlint:volatile takeover-window transient; Snap refuses to encode while the window is open
	snapHash       uint64 //varlint:volatile integrity hash of the restored blob; RestoreSite installs it after restore

	// stamp is the reusable drift-report stamping wrapper; see stampOutbox.
	stamp stampOutbox //varlint:volatile per-call transient; stamped derives it from seenBlocks
}

// stamped re-arms the stamping wrapper around the runtime outbox for one
// inner-estimator call. Zero-alloc: the wrapper is a field, the interface
// conversion is a pointer.
//
//varlint:zeroalloc
func (s *BlockSite) stamped(out dist.Outbox) dist.Outbox {
	s.stamp.out = out
	s.stamp.seq = uint64(s.seenBlocks)
	s.stamp.sent = false
	return &s.stamp
}

// NewBlockSite wraps inner with the partition protocol for site id.
func NewBlockSite(id int, inner InBlockSite) *BlockSite {
	s := &BlockSite{id: int32(id), inner: inner}
	s.innerQuiet, _ = inner.(InBlockQuietSite)
	s.innerRejoin, _ = inner.(InBlockRejoiner)
	s.startBlock(0, nil)
	return s
}

// startBlock adopts exponent r and everything that derives from it: the
// report batch and the in-block estimator's scales, which Reset sets.
func (s *BlockSite) startBlock(r int64, out dist.Outbox) {
	s.r, s.batch = r, ceilPow2Half(r)
	s.inner.Reset(r, out)
}

// OnUpdate implements dist.SiteAlgo.
func (s *BlockSite) OnUpdate(u stream.Update, out dist.Outbox) {
	s.ci++
	s.fi += u.Delta
	s.inner.OnUpdate(u, s.stamped(out))
	if s.ci >= s.batch {
		out.Send(dist.Msg{Kind: dist.KindCountReport, Site: s.id, A: s.ci})
		s.ci = 0
	}
}

// OnUpdateBatch implements dist.BatchSiteAlgo: OnUpdate over us, stopping
// right after the first update on which the partitioner or its estimator
// sent. A count report leaves ci at 0; the stamping wrapper notes any
// estimator send.
func (s *BlockSite) OnUpdateBatch(us []stream.Update, out dist.Outbox) int {
	for i, u := range us {
		s.OnUpdate(u, out)
		if s.ci == 0 || s.stamp.sent {
			return i + 1
		}
	}
	return len(us)
}

// Quiet implements dist.QuietSiteAlgo. Inside the budget neither the
// count report (due when ci reaches the batch) nor the in-block estimator
// sends; every update costs at least one, so a run within the budget
// leaves ci below the batch. While a takeover announce is in flight the
// budget is 0, so every update takes OnUpdate. The answer is −1 for good
// when the in-block estimator has no quiet path.
func (s *BlockSite) Quiet() int64 {
	if s.innerQuiet == nil {
		return -1
	}
	if s.takingOver {
		return 0
	}
	return max(0, min(s.batch-s.ci-1, s.innerQuiet.Quiet()))
}

// Absorb implements dist.QuietSiteAlgo.
func (s *BlockSite) Absorb(n, sum int64) {
	s.ci += n
	s.fi += sum
	s.innerQuiet.Absorb(n, sum)
}

// OnMessage implements dist.SiteAlgo. A site receives only the
// coordinator-originated partition kinds plus the two takeover
// handshakes; reports are coordinator-bound and the attach/detach
// control plane is demuxed one layer up in the query engine.
func (s *BlockSite) OnMessage(m dist.Msg, out dist.Outbox) {
	//varlint:kinds KindAttach,KindCountReport,KindDetach,KindDriftReport,KindFreqEnd,KindFreqReport,KindStateReply,KindValueReport
	switch m.Kind {
	case dist.KindStateRequest:
		if s.takingOver {
			s.deferReply = true
			return
		}
		// fi is zeroed by the reply, not on KindNewBlock: the reported value
		// is what the coordinator folds into f(n_j), and any update arriving
		// between this reply and the block broadcast (possible on the
		// asynchronous transport, never in the synchronous sim) must carry
		// over into the next block rather than be dropped.
		s.reply(out)
	case dist.KindNewBlock:
		if !siteExponentOK(m.A) {
			return // no coordinator picks it: refused, the site unchanged
		}
		// A set low Item bit marks a resync copy sent by
		// BlockCoord.OnSiteRejoin; the remaining bits carry the
		// coordinator's completed-block count. Comparing that against the
		// count of broadcasts this site has adopted decides whether the
		// site missed a boundary — the only identity that works, because
		// (r, f(n_j)) repeats whenever a block closes with zero net change.
		// A current site must NOT reset (that would destroy live in-block
		// drift the coordinator still mirrors); it re-sends absolute
		// estimator state instead, healing whatever reports the outage
		// swallowed. A site that did miss a boundary falls through to the
		// normal adoption below, recording the authoritative sequence.
		resync := false
		if m.Item&1 == 1 {
			if int64(m.Item>>1) == s.seenBlocks {
				if s.innerRejoin != nil {
					s.innerRejoin.OnRejoin(s.stamped(out))
				}
				return
			}
			s.seenBlocks = int64(m.Item >> 1)
			resync = true
		} else {
			s.seenBlocks++
		}
		// Adopting a block while holding an uncollected count or net
		// change means the closing collection ran without this site's
		// latest state (on an asynchronous runtime updates land between a
		// site's reply and the broadcast; after a partition, whole
		// collections can). That state is about to leave the drift
		// estimator — surrender it as a late reply, which BlockCoord folds
		// into f(n_j), so no update ever falls out of the estimate. In the
		// synchronous model ci and fi are always zero here (the reply and
		// the broadcast sit in one quiescent cascade), so this sends
		// nothing and Sim behaviour is unchanged.
		if s.ci != 0 || s.fi != 0 {
			if s.takingOver {
				s.defCi += s.ci
				s.defFi += s.fi
				s.ci, s.fi = 0, 0
			} else {
				s.reply(out)
			}
		}
		s.startBlock(m.A, s.stamped(out))
		// Adopting a missed boundary from a resync copy leaves the
		// coordinator's in-block mirror for this slot stale: the
		// coordinator cleared everyone's estimate at the boundary, then
		// overwrote this slot with drift reports measured against the
		// pre-boundary base (the content just surrendered above). On a
		// genuine broadcast both sides reset together, so this arm is
		// faulty-runtime-only; re-sending the absolute (freshly reset)
		// estimator state re-aligns the mirror without waiting for the
		// next threshold crossing or boundary.
		if resync && s.innerRejoin != nil {
			s.innerRejoin.OnRejoin(s.stamped(out))
		}
	case dist.KindTakeover:
		// The coordinator's acknowledgement of our OnTakeover announce: A is
		// how many state replies from this slot the coordinator has counted.
		// If that exceeds the snapshot's watermark, a reply our predecessor
		// sent *after* the snapshot was delivered — the held ci/fi were
		// already folded into f(n_j), so merging them would double-count; we
		// then also adopt the coordinator's books for the slot (Item/A/B are
		// its lifetime fold totals and reply count) so our cumulative
		// counters include the predecessor's post-snapshot reply and a later
		// coordinator takeover cannot mistake it for unfolded content.
		// Otherwise the held state is still owed and rejoins the live
		// counters. (A pre-crash reply dropped by the network makes A lag
		// the watermark; merging is then still correct — held state is owed
		// either way, and the dropped reply's content is not in it.)
		if !s.takingOver {
			return
		}
		s.takingOver = false
		if m.A <= s.snapReplies {
			s.ci += s.heldCi
			s.fi += s.heldFi
		} else {
			s.repliesSent = m.A
			s.sentCi = int64(m.Item)
			s.sentFi = m.B
		}
		s.heldCi, s.heldFi = 0, 0
		s.ci += s.defCi
		s.fi += s.defFi
		s.defCi, s.defFi = 0, 0
		if s.deferReply {
			s.deferReply = false
			s.reply(out)
		} else if s.ci >= s.batch {
			out.Send(dist.Msg{Kind: dist.KindCountReport, Site: s.id, A: s.ci})
			s.ci = 0
		}
	case dist.KindCoordTakeover:
		// A standby coordinator announced itself: Item is its snapshot hash,
		// A the new coordinator epoch, B its reply-count watermark for this
		// slot. Record the epoch and acknowledge with our lifetime reply
		// books (count, Σ reported counts, Σ reported net change); the
		// standby folds whatever its snapshot never saw and then runs the
		// rejoin resync for this slot. If our own takeover announce was in
		// flight it died with the old coordinator — re-announce it (a
		// duplicate ack is ignored; the first one clears takingOver).
		s.coordEpoch = m.A
		out.Send(dist.Msg{Kind: dist.KindCoordTakeover, Site: s.id,
			Item: uint64(s.sentCi), A: s.repliesSent, B: s.sentFi})
		if s.takingOver {
			out.Send(dist.Msg{Kind: dist.KindTakeover, Site: s.id,
				Item: s.snapHash, A: s.snapReplies})
		}
	}
}

// reply sends a state reply carrying the uncollected count and net change,
// books it on the takeover watermark and the lifetime reply totals, and
// zeroes both counters.
func (s *BlockSite) reply(out dist.Outbox) {
	out.Send(dist.Msg{Kind: dist.KindStateReply, Site: s.id, A: s.ci, B: s.fi})
	s.repliesSent++
	s.sentCi += s.ci
	s.sentFi += s.fi
	s.ci, s.fi = 0, 0
}

// SetSnapshotHash implements SnapshotHashSetter: RestoreSite stores the
// blob's integrity hash here so OnTakeover can present it.
func (s *BlockSite) SetSnapshotHash(h uint64) { s.snapHash = h }

// OnTakeover implements dist.SiteTakeover: announce this replacement to the
// coordinator. The snapshot-era uncollected count and net change are parked
// in held state until the acknowledgement decides whether the predecessor
// already reported them (see the KindTakeover case in OnMessage); the live
// counters restart at zero so backlog replay and fresh updates accumulate
// cleanly in the meantime. Cold (unrestored) replacements announce too —
// with zero state, the ack is a no-op beyond unblocking the coordinator's
// dead-slot bookkeeping and triggering the rejoin resync.
func (s *BlockSite) OnTakeover(out dist.Outbox) {
	s.takingOver = true
	s.snapReplies = s.repliesSent
	s.heldCi, s.heldFi = s.ci, s.fi
	s.ci, s.fi = 0, 0
	out.Send(dist.Msg{Kind: dist.KindTakeover, Site: s.id, Item: s.snapHash, A: s.snapReplies})
}

// OnRejoin implements dist.SiteRejoiner: flush the pending update count so
// the coordinator's t̂ catches up (counts inside reports lost during the
// outage are gone for good — they only delay the block end, never corrupt
// it). Estimator state resync is deferred to the coordinator's resync
// NewBlock (see OnMessage), which tells this site whether its block
// identity is still current.
func (s *BlockSite) OnRejoin(out dist.Outbox) {
	if s.ci > 0 {
		out.Send(dist.Msg{Kind: dist.KindCountReport, Site: s.id, A: s.ci})
		s.ci = 0
	}
}

// BlockCoord runs the §3.1 partition protocol at the coordinator and
// delegates in-block estimation to an InBlockCoord. Its estimate is
// f(n_j) + inner.Drift().
type BlockCoord struct {
	k     int
	inner InBlockCoord

	r    int64
	fnj  int64 // exact f at the last block boundary
	tj   int64 //varlint:volatile block-end threshold ⌈2^{r−1}⌉·k, derived from r by startBlock
	that int64 // t̂: updates heard of since the block began

	collecting bool
	replies    int    //varlint:volatile count of set replied flags; Snap recounts it when decoding
	replied    []bool // per-site: reply received for the open collection
	fDelta     int64  // Σ f_i accumulated from state replies

	// replySeq counts state replies received per site (every fold path:
	// normal, duplicate, straggler) — the coordinator half of the takeover
	// watermark. deadSite marks slots the failure detector declared dead;
	// they are excused from collections until a takeover clears them.
	replySeq []int64
	deadSite []bool

	// foldedCi/foldedFi are per-slot lifetime totals of the state-reply
	// content folded through any path — the coordinator half of the
	// KindCoordTakeover handshake. A standby restored from a snapshot
	// compares a site's acknowledged lifetime totals against these: the
	// difference is reply content its snapshot never saw (folded by the
	// dead incarnation, or dropped by the network outright) and is folded
	// exactly once. snapHash is the integrity hash of the blob this
	// coordinator was restored from, presented in the announce.
	foldedCi []int64
	foldedFi []int64
	snapHash uint64 //varlint:volatile integrity hash of the restored blob; RestoreCoord installs it after restore

	blocks int64 // completed blocks; the coordinator's block sequence
}

// NewBlockCoord wraps inner with the partition protocol for k sites.
func NewBlockCoord(k int, inner InBlockCoord) *BlockCoord {
	c := &BlockCoord{k: k, inner: inner,
		replied: make([]bool, k), replySeq: make([]int64, k),
		deadSite: make([]bool, k),
		foldedCi: make([]int64, k), foldedFi: make([]int64, k)}
	c.startBlock(0)
	return c
}

// startBlock enters a block with exponent r and everything that derives
// from it: t_j and the in-block coordinator's scales, which Reset sets.
func (c *BlockCoord) startBlock(r int64) {
	c.r, c.tj = r, ceilPow2Half(r)*int64(c.k)
	c.inner.Reset(r)
}

// OnMessage implements dist.CoordAlgo. The partition spine handles its
// own four kinds; every in-block estimator kind (drift, frequency and
// value reports) is forwarded to the inner coordinator by the default
// clause, and the coordinator-originated broadcasts never arrive here.
func (c *BlockCoord) OnMessage(m dist.Msg, out dist.Outbox) {
	//varlint:kinds KindAttach,KindDetach,KindFreqEnd,KindFreqReport,KindNewBlock,KindStateRequest,KindValueReport
	switch m.Kind {
	case dist.KindDriftReport:
		// Sites stamp drift reports with their block sequence (see
		// stampOutbox). A stale stamp means the report crossed a block
		// boundary in flight: its absolute value is measured against the
		// previous block's base, and that content is already in f(n_j)
		// through the collection that closed the block — folding it into
		// the freshly reset mirror would double-count it. Drop it; the
		// site's post-adoption drift starts from zero on both sides, so
		// nothing is lost. (Stale stamps never occur on the synchronous
		// Sim — every report drains before the collection cascade closes —
		// so this guard costs crash-free runs nothing but the compare.)
		if m.Item == uint64(c.blocks) {
			c.inner.OnMessage(m)
		}
	case dist.KindCountReport:
		c.that += m.A
		if !c.collecting && c.that >= c.tj {
			c.collecting = true
			c.replies = 0
			clear(c.replied)
			c.fDelta = 0
			out.Broadcast(dist.Msg{Kind: dist.KindStateRequest, Site: dist.CoordID})
			// Dead slots cannot answer; excuse them up front so the
			// collection closes on the live sites' replies alone. Their
			// uncollected state is not lost — a warm replacement's held
			// ci/fi come back through the takeover merge and fold in as a
			// straggler reply.
			for i, dead := range c.deadSite {
				if dead && !c.replied[i] {
					c.replied[i] = true
					c.replies++
				}
			}
			if c.replies == c.k {
				c.finishBlock(out)
			}
		}
	case dist.KindStateReply:
		c.replySeq[m.Site]++
		c.foldedCi[m.Site] += m.A
		c.foldedFi[m.Site] += m.B
		if !c.collecting {
			// A straggler from a collection that already closed (possible
			// only on faulty runtimes: a rejoin re-request raced a delayed
			// reply). Its counts are real — fold them into the boundary
			// value and the running t̂ so no update is lost — but the
			// collection it was meant for is over.
			c.fnj += m.B
			c.that += m.A
			return
		}
		if c.replied[m.Site] {
			// Duplicate reply for the open collection (same race as
			// above). Keep its counts, don't double-count the reply.
			c.that += m.A
			c.fDelta += m.B
			return
		}
		c.replied[m.Site] = true
		c.that += m.A
		c.fDelta += m.B
		c.replies++
		if c.replies == c.k {
			c.finishBlock(out)
		}
	case dist.KindTakeover:
		// A replacement announced itself for a slot. Acknowledge with our
		// books for the slot — reply count in A (the site-side merge
		// decision; see BlockSite) plus the lifetime fold totals in Item/B
		// (adopted by the replacement when the merge is declined, so its
		// cumulative counters stay aligned with ours) — clear the dead mark,
		// and run the rejoin resync so the replacement learns the
		// authoritative block identity and any open collection re-requests
		// its state. Per-link FIFO plus the runtime's incarnation gating
		// guarantee this acknowledgement is the first message the
		// replacement receives.
		site := int(m.Site)
		if site < 0 || site >= c.k {
			return
		}
		c.deadSite[site] = false
		out.SendTo(site, dist.Msg{Kind: dist.KindTakeover, Site: dist.CoordID,
			Item: uint64(c.foldedCi[site]), A: c.replySeq[site], B: c.foldedFi[site]})
		c.OnSiteRejoin(site, out)
	case dist.KindCoordTakeover:
		// A site acknowledged our standby announce with its lifetime reply
		// books: Item = Σ reported counts, A = replies sent, B = Σ reported
		// net change. When the site has sent at least as many replies as our
		// snapshot folded, the cumulative difference is exactly the content
		// the dead incarnation folded after the snapshot (or that the
		// network dropped before it) — fold it once, as a straggler fold.
		// When the site's books lag ours, it is a replacement restored from
		// an old snapshot whose already-folded content we must not unfold:
		// adopt its baseline and move on. Either way, finish with the rejoin
		// resync so the site learns the authoritative block identity and an
		// open collection re-requests the state still owed to it.
		site := int(m.Site)
		if site < 0 || site >= c.k {
			return
		}
		if m.A >= c.replySeq[site] {
			if d := int64(m.Item) - c.foldedCi[site]; d > 0 {
				c.that += d
			}
			c.fnj += m.B - c.foldedFi[site]
			c.replySeq[site] = m.A
		}
		c.foldedCi[site] = int64(m.Item)
		c.foldedFi[site] = m.B
		c.OnSiteRejoin(site, out)
	default:
		c.inner.OnMessage(m)
	}
}

// OnSiteDead implements dist.CoordFailureHandler: graceful degradation. A
// dead slot is excused from the open collection (and from future ones,
// until a takeover) so the protocol keeps closing blocks and serving
// estimates off the live sites instead of wedging on a reply that will
// never come. The estimate's error bound degrades by the dead site's
// unreported in-block state until a replacement arrives; Liveness-aware
// callers surface that through their status (see internal/query).
func (c *BlockCoord) OnSiteDead(site int, out dist.Outbox) {
	if site < 0 || site >= c.k || c.deadSite[site] {
		return
	}
	c.deadSite[site] = true
	if c.collecting && !c.replied[site] {
		c.replied[site] = true
		c.replies++
		if c.replies == c.k {
			c.finishBlock(out)
		}
	}
}

// SiteDead reports whether the coordinator currently considers site's slot
// dead (declared by OnSiteDead, cleared by a takeover announcement or a
// rescind).
func (c *BlockCoord) SiteDead(site int) bool { return c.deadSite[site] }

// OnSiteAlive implements dist.CoordRecoverHandler: the detector rescinded
// a death verdict — the site was partitioned, not crashed, and is still
// beaconing. Stop excusing it from collections and run the rejoin resync
// so it learns the authoritative block identity; the collection it was
// excused from (if still open) stays excused, and whatever state it holds
// surrenders as a late reply when the next broadcast reaches it, so
// nothing is double-requested and nothing falls out of the estimate.
func (c *BlockCoord) OnSiteAlive(site int, out dist.Outbox) {
	if site < 0 || site >= c.k || !c.deadSite[site] {
		return
	}
	c.deadSite[site] = false
	c.OnSiteRejoin(site, out)
}

// OnSiteTakeover implements dist.CoordTakeoverHandler: the runtime spliced a
// replacement into site's slot. Only the dead mark is cleared here — all
// protocol traffic (acknowledgement, resync, state re-request) waits for the
// replacement's own KindTakeover announcement, whose arrival proves the
// site end is listening. This hook matters for coordinators that never get
// that announcement, e.g. a query attached after the snapshot was taken: the
// replacement has no child for it, so without this hook the slot would stay
// excused from that query's collections forever.
func (c *BlockCoord) OnSiteTakeover(site int, out dist.Outbox) {
	if site >= 0 && site < c.k {
		c.deadSite[site] = false
	}
}

// OnSiteRejoin implements dist.CoordRejoiner: a site whose link just healed
// may have missed block broadcasts or an in-flight state request, either of
// which stalls it (wrong thresholds) or the whole protocol (a collection
// waiting forever on its reply). Re-send the current block identity as a
// resync copy (low Item bit set, completed-block sequence in the rest; see
// BlockSite.OnMessage for why sequence equality is the one safe identity)
// and, if a collection is open and this site has not answered, re-request
// its state.
func (c *BlockCoord) OnSiteRejoin(site int, out dist.Outbox) {
	out.SendTo(site, dist.Msg{Kind: dist.KindNewBlock, Site: dist.CoordID,
		Item: 1 | uint64(c.blocks)<<1, A: c.r, B: c.fnj})
	if c.collecting && !c.replied[site] {
		out.SendTo(site, dist.Msg{Kind: dist.KindStateRequest, Site: dist.CoordID})
	}
}

// SetSnapshotHash implements SnapshotHashSetter: RestoreCoord stores the
// blob's integrity hash here so OnCoordTakeover can present it.
func (c *BlockCoord) SetSnapshotHash(h uint64) { c.snapHash = h }

// OnCoordTakeover implements dist.CoordTakeover: announce this standby
// coordinator to one site. Item carries the snapshot hash, A the new
// coordinator epoch, B our reply-count watermark for the slot. The site
// records the epoch and acknowledges with its lifetime reply books (see the
// KindCoordTakeover cases in both OnMessage methods); everything the
// snapshot missed — folds by the dead incarnation, block boundaries it
// closed, an open collection's outstanding requests — heals through that
// acknowledgement's fold and the rejoin resync it triggers. The runtime
// calls this once per site: AsyncSim for all k at the splice, the TCP
// standby as each site re-dials.
func (c *BlockCoord) OnCoordTakeover(site int, epoch int64, out dist.Outbox) {
	if site < 0 || site >= c.k {
		return
	}
	out.SendTo(site, dist.Msg{Kind: dist.KindCoordTakeover, Site: dist.CoordID,
		Item: c.snapHash, A: epoch, B: c.replySeq[site]})
}

// finishBlock closes block j: f(n_j+1) is now known exactly, a new exponent
// is chosen, and the new block is broadcast.
func (c *BlockCoord) finishBlock(out dist.Outbox) {
	c.fnj += c.fDelta
	c.that = 0
	c.collecting = false
	c.blocks++
	c.startBlock(blockExponent(c.fnj, c.k))
	out.Broadcast(dist.Msg{Kind: dist.KindNewBlock, Site: dist.CoordID, A: c.r, B: c.fnj})
}

// Estimate implements dist.CoordAlgo.
func (c *BlockCoord) Estimate() int64 { return c.fnj + c.inner.Drift() }

// Blocks returns the number of completed blocks.
func (c *BlockCoord) Blocks() int64 { return c.blocks }

// R returns the current block exponent.
func (c *BlockCoord) R() int64 { return c.r }

// epsThreshold returns the in-block send threshold ε·2^r, floored at 1 so a
// single ±1 update can always trigger (the r = 0 "|δ_i| = 1" condition and
// the r ≥ 1 "|δ_i| ≥ ε·2^r" condition coincide under this floor whenever
// ε·2^r ≤ 1, exactly as in §3.3).
func epsThreshold(eps float64, r int64) float64 {
	t := eps * math.Ldexp(1, int(r))
	if t < 1 {
		return 1
	}
	return t
}
