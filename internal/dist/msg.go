package dist

import (
	"encoding/binary"
	"math/bits"
)

// Kind tags the protocol role of a message.
type Kind uint8

// The message kinds of the tracking protocols. A Msg's payload fields are
// interpreted per kind; see the field comments on each constant.
const (
	// KindNewBlock is broadcast by the §3.1 partition coordinator at a
	// block boundary: A is the new exponent r, B is f(n_j).
	KindNewBlock Kind = iota + 1
	// KindDriftReport carries a site's in-block drift (§3.3/§3.4): A is
	// the drift value d_i; B disambiguates the A+/A− estimator copy for
	// the randomized tracker (+1/−1).
	KindDriftReport
	// KindFreqReport carries a per-counter delta (appendix H): Item is
	// the counter cell, A the delta (B tags the ± copy when sampled).
	KindFreqReport
	// KindFreqEnd re-establishes a heavy counter across a block boundary
	// (appendix H): Item is the cell, A its exact value.
	KindFreqEnd
	// KindCountReport carries a site's batched update count (§3.1): A is
	// the number of updates since the last report.
	KindCountReport
	// KindValueReport carries an exact aggregate value (appendix I): A is
	// f at the reporting site.
	KindValueReport
	// KindStateRequest is broadcast by the partition coordinator to
	// collect exact end-of-block state from every site.
	KindStateRequest
	// KindStateReply answers a state request: A is the site's pending
	// update count, B its net change in f since the block broadcast.
	KindStateReply
	// KindAttach announces a newly registered tracking query to every site
	// (multi-query engine, internal/query): the query id rides in the
	// message's routing tag. A site receiving it instantiates the query's
	// child algorithm and bootstraps the coordinator with its local
	// history. The message is idempotent: re-announcing an attached query
	// is a no-op, so rejoin resync can always re-send it.
	KindAttach
	// KindDetach retires a query at every site; its counterpart of
	// KindAttach. Messages for a detached query still in flight are
	// discarded by the demultiplexer on either side.
	KindDetach
	// KindTakeover splices a replacement process into a dead site's slot.
	// Site-to-coordinator it is the announcement: Site is the slot, Item the
	// snapshot's integrity hash, and A the snapshot's counted-replies-sent
	// watermark. Coordinator-to-site it is the acknowledgement: Item echoes
	// the hash and A carries the coordinator's counted-replies-received
	// watermark for the slot, which decides whether snapshot-era uncollected
	// state is merged or discarded (see track.BlockSite).
	KindTakeover
	// KindCoordTakeover splices a standby coordinator into the dead
	// coordinator's slot. Coordinator-to-site it is the announcement, sent
	// to each site as the standby reaches it: Item is the standby snapshot's
	// integrity hash, A the new coordinator epoch, B the standby's
	// counted-replies-received watermark for the destination slot.
	// Site-to-coordinator it is the acknowledgement carrying the site's
	// lifetime reply books — Item the total update count reported through
	// state replies, A the replies-sent count, B the total net change
	// reported — from which the standby folds exactly the content its
	// snapshot never saw (see track.BlockCoord).
	KindCoordTakeover
)

// Transport-internal kinds. Frames with these kinds never reach algorithms
// and are excluded from Stats; they share the Msg framing so that every
// frame on the wire is exactly MsgSize bytes.
const (
	kindHello      Kind = 0xF0 // site handshake; Site carries the id
	kindBarrier    Kind = 0xF1 // flush request; A carries a sequence number
	kindBarrierAck Kind = 0xF2 // flush acknowledgement; A echoes the sequence
	kindHeartbeat  Kind = 0xF3 // site liveness beacon; Site carries the id
)

// CoordID identifies the coordinator, both as a message source (Msg.Site
// on coordinator-originated messages) and as a delivery destination
// (TranscriptEntry.To).
const CoordID = -1

// Msg is one protocol message. Site is the sender's id (CoordID for the
// coordinator); Item addresses a counter cell for frequency tracking; A
// and B are kind-specific payloads.
type Msg struct {
	Kind Kind
	Site int32
	Item uint64
	A, B int64
}

// MsgSize is the exact wire size of one encoded Msg in bytes:
// kind (1) + site (4) + item (8) + a (8) + b (8).
const MsgSize = 29

// EncodeMsg serializes m into its fixed-size big-endian wire frame.
func EncodeMsg(m Msg) [MsgSize]byte {
	var b [MsgSize]byte
	b[0] = byte(m.Kind)
	binary.BigEndian.PutUint32(b[1:5], uint32(m.Site))
	binary.BigEndian.PutUint64(b[5:13], m.Item)
	binary.BigEndian.PutUint64(b[13:21], uint64(m.A))
	binary.BigEndian.PutUint64(b[21:29], uint64(m.B))
	return b
}

// DecodeMsg deserializes a wire frame produced by EncodeMsg.
func DecodeMsg(b [MsgSize]byte) Msg {
	return Msg{
		Kind: Kind(b[0]),
		Site: int32(binary.BigEndian.Uint32(b[1:5])),
		Item: binary.BigEndian.Uint64(b[5:13]),
		A:    int64(binary.BigEndian.Uint64(b[13:21])),
		B:    int64(binary.BigEndian.Uint64(b[21:29])),
	}
}

// compactBits prices m in the paper's O(log n + log f)-bit message model:
// one kind byte plus varint fields (zig-zag for the signed ones), in bits.
// It runs on every delivered message; the table-driven helpers keep it
// within the compiler's inlining budget, so it costs its caller no call.
func compactBits(m *Msg) int64 {
	n := 1 + svarintLen(int64(m.Site)) + uvarintLen(m.Item) +
		svarintLen(m.A) + svarintLen(m.B)
	return int64(n) * 8
}

// svarintLen is the encoded length of x after zig-zag mapping.
func svarintLen(x int64) int { return int(uvarintLens[bits.Len64(uint64(x<<1^x>>63))]) }

// uvarintLen is the encoded length of x in LEB128 7-bit groups:
// ⌈bitlen(x)/7⌉ with a floor of 1, looked up by the leading-zero-count
// intrinsic instead of divided by 7.
func uvarintLen(x uint64) int { return int(uvarintLens[bits.Len64(x)]) }

// uvarintLens[n] is the LEB128 length of a value of bit length n.
var uvarintLens = [65]uint8{
	1, 1, 1, 1, 1, 1, 1, 1, // 0–7
	2, 2, 2, 2, 2, 2, 2, // 8–14
	3, 3, 3, 3, 3, 3, 3, // 15–21
	4, 4, 4, 4, 4, 4, 4, // 22–28
	5, 5, 5, 5, 5, 5, 5, // 29–35
	6, 6, 6, 6, 6, 6, 6, // 36–42
	7, 7, 7, 7, 7, 7, 7, // 43–49
	8, 8, 8, 8, 8, 8, 8, // 50–56
	9, 9, 9, 9, 9, 9, 9, // 57–63
	10, // 64
}
