package track

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/rng"
)

// This file is the snapshot contract for crash-fault site replacement: a
// site algorithm serializes its complete state to one blob, and a freshly
// constructed algorithm restored from that blob is indistinguishable from
// the original — restore-then-drive is byte-identical to never having
// swapped processes (the property test in snapshot_test.go pins this).
//
// The wire format is a 4-byte magic, a varint-encoded payload, and a
// trailing FNV-1a hash of the payload. Floats travel as their IEEE bit
// patterns; maps are serialized in sorted key order so that snapshots of
// equal state are byte-equal (and their hashes comparable). The format is
// a checkpoint, not an archive: both ends are the same build, so there is
// no cross-version negotiation beyond the magic.

// snapMagic identifies a snapshot blob (and its format version).
var snapMagic = [4]byte{'V', 'S', 'N', '1'}

// Per-layer tags catch a blob restored into the wrong algorithm shape.
// This block is the registry: layers in other packages take their tag from
// here so no two layers collide.
const (
	snapTagBlock      byte = 'B' // BlockSite spine
	snapTagDet        byte = 'd' // deterministic in-block estimator
	snapTagRand       byte = 'r' // randomized in-block estimator
	SnapTagFreq       byte = 'F' // frequency in-block estimator (internal/freq)
	SnapTagQuery      byte = 'Q' // multi-query site (internal/query)
	snapTagBlockCoord byte = 'C' // BlockCoord spine
	snapTagDetCoord   byte = 'D' // deterministic in-block coordinator
	snapTagRandCoord  byte = 'R' // randomized in-block coordinator
	snapTagThreshold  byte = 'T' // threshold monitor wrapper
	SnapTagFreqCoord  byte = 'G' // frequency in-block coordinator (internal/freq)
	SnapTagQueryCoord byte = 'M' // multi-query coordinator (internal/query)
)

// SiteSnapshotter is implemented by site algorithms that support the
// snapshot contract. AppendSnapshot serializes the complete state onto b;
// RestoreSnapshot overwrites the receiver's state from r, consuming
// exactly what AppendSnapshot wrote (so snapshots compose: a multi-query
// site concatenates its children's).
type SiteSnapshotter interface {
	AppendSnapshot(b []byte) ([]byte, error)
	RestoreSnapshot(r *SnapReader) error
}

// InBlockSnapshotter is the in-block mirror of SiteSnapshotter, one layer
// down (as InBlockRejoiner mirrors dist.SiteRejoiner). Serialization at
// this layer cannot fail; decode errors surface through the reader.
type InBlockSnapshotter interface {
	AppendSnapshot(b []byte) []byte
	RestoreSnapshot(r *SnapReader)
}

// CoordSnapshotter is the coordinator-side snapshot contract, the mirror of
// SiteSnapshotter for crash-fault coordinator replacement: a standby
// restored from the blob is indistinguishable from the original, so
// restore-then-drive stays byte-identical to never having failed over. The
// layer tags differ from the site ones, so a site blob restored into a
// coordinator (or vice versa) is rejected, not misread.
type CoordSnapshotter interface {
	AppendSnapshot(b []byte) ([]byte, error)
	RestoreSnapshot(r *SnapReader) error
}

// SnapshotHashSetter receives the integrity hash of the blob an algorithm
// was restored from, so a replacement site can present it in its
// KindTakeover announcement (and a standby coordinator in its
// KindCoordTakeover announcements). RestoreSite and RestoreCoord call it
// when implemented.
type SnapshotHashSetter interface {
	SetSnapshotHash(h uint64)
}

// SnapshotSite serializes a site algorithm's complete state into one
// self-verifying blob. It errors when the algorithm does not support the
// snapshot contract.
func SnapshotSite(algo any) ([]byte, error) {
	s, ok := algo.(SiteSnapshotter)
	if !ok {
		return nil, fmt.Errorf("track: %T does not support snapshots", algo)
	}
	b := make([]byte, len(snapMagic), 256)
	copy(b, snapMagic[:])
	b, err := s.AppendSnapshot(b)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write(b[len(snapMagic):])
	return h.Sum(b), nil
}

// RestoreSite overwrites a freshly constructed site algorithm's state from
// a SnapshotSite blob, verifying the magic and the integrity hash, and
// hands the hash to the algorithm when it implements SnapshotHashSetter.
func RestoreSite(algo any, snap []byte) error {
	s, ok := algo.(SiteSnapshotter)
	if !ok {
		return fmt.Errorf("track: %T does not support snapshots", algo)
	}
	if len(snap) < len(snapMagic)+8 || string(snap[:len(snapMagic)]) != string(snapMagic[:]) {
		return fmt.Errorf("track: not a snapshot blob")
	}
	payload := snap[len(snapMagic) : len(snap)-8]
	h := fnv.New64a()
	h.Write(payload)
	sum := h.Sum64()
	if binary.BigEndian.Uint64(snap[len(snap)-8:]) != sum {
		return fmt.Errorf("track: snapshot integrity hash mismatch")
	}
	r := &SnapReader{b: payload}
	if err := s.RestoreSnapshot(r); err != nil {
		return err
	}
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("track: %d trailing bytes after snapshot", len(r.b))
	}
	if hs, ok := algo.(SnapshotHashSetter); ok {
		hs.SetSnapshotHash(sum)
	}
	return nil
}

// SnapshotCoord serializes a coordinator algorithm's complete state into
// one self-verifying blob, in the same wire format as SnapshotSite (magic,
// varint payload, trailing FNV-1a hash). It errors when the algorithm does
// not support the coordinator snapshot contract.
func SnapshotCoord(algo any) ([]byte, error) {
	if _, ok := algo.(CoordSnapshotter); !ok {
		return nil, fmt.Errorf("track: coordinator %T does not support snapshots", algo)
	}
	return SnapshotSite(algo)
}

// RestoreCoord overwrites a freshly constructed coordinator algorithm's
// state from a SnapshotCoord blob, verifying the magic and the integrity
// hash, and hands the hash to the algorithm when it implements
// SnapshotHashSetter (the standby presents it in KindCoordTakeover).
func RestoreCoord(algo any, snap []byte) error {
	if _, ok := algo.(CoordSnapshotter); !ok {
		return fmt.Errorf("track: coordinator %T does not support snapshots", algo)
	}
	return RestoreSite(algo, snap)
}

// SnapshotHash returns the integrity hash of a SnapshotSite blob (the
// value a replacement presents in KindTakeover), or 0 for a malformed one.
func SnapshotHash(snap []byte) uint64 {
	if len(snap) < len(snapMagic)+8 {
		return 0
	}
	return binary.BigEndian.Uint64(snap[len(snap)-8:])
}

// AppendSnapInt appends a zig-zag varint.
func AppendSnapInt(b []byte, x int64) []byte { return binary.AppendVarint(b, x) }

// AppendSnapUint appends a varint.
func AppendSnapUint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

// AppendSnapFloat appends a float64 as its IEEE bit pattern.
func AppendSnapFloat(b []byte, x float64) []byte {
	return binary.AppendUvarint(b, math.Float64bits(x))
}

// SnapReader decodes a snapshot payload with a sticky error: after the
// first malformed field every further read returns zero and Err is set, so
// restore code reads fields unconditionally and checks once.
type SnapReader struct {
	b   []byte
	err error
}

// NewSnapReader wraps a raw payload (tests and composition helpers; normal
// restores go through RestoreSite).
func NewSnapReader(b []byte) *SnapReader { return &SnapReader{b: b} }

// Err returns the first decode error, if any.
func (r *SnapReader) Err() error { return r.err }

// Len returns the number of unconsumed payload bytes.
func (r *SnapReader) Len() int { return len(r.b) }

// Fail records a decode error (the first one sticks): restore code calls it
// when a field is well-formed but not what the encoder could have written,
// such as a key list out of order, so only canonical blobs are accepted.
func (r *SnapReader) Fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("track: truncated or corrupt snapshot (%s)", what)
	}
}

// Tag consumes one layer tag byte and checks it.
func (r *SnapReader) Tag(want byte) {
	if r.err != nil {
		return
	}
	if len(r.b) == 0 || r.b[0] != want {
		r.Fail(fmt.Sprintf("expected tag %q", want))
		return
	}
	r.b = r.b[1:]
}

// Uint consumes a varint. Overlong encodings (a multi-byte varint ending in
// a zero byte) are rejected: the encoder never writes them, and accepting
// them would let two blobs decode to the same state.
func (r *SnapReader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.Fail("uvarint")
		return 0
	}
	r.b = r.b[n:]
	return x
}

// Int consumes a zig-zag varint (canonical, as Uint).
func (r *SnapReader) Int() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.Fail("varint")
		return 0
	}
	r.b = r.b[n:]
	return x
}

// Bool consumes a flag, which the encoders write as the varint 0 or 1;
// anything larger is non-canonical and fails the read.
func (r *SnapReader) Bool() bool {
	x := r.Uint()
	if x > 1 {
		r.Fail("flag")
	}
	return x == 1
}

// Float consumes a float64 bit pattern.
func (r *SnapReader) Float() float64 { return math.Float64frombits(r.Uint()) }

// Bytes consumes n raw payload bytes (the body of a length-prefixed
// sub-blob). The returned slice aliases the payload; callers consume it
// before the next read.
func (r *SnapReader) Bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.Fail("sub-blob")
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// AppendSnapshot implements SiteSnapshotter on the partition layer: the
// spine (exponent, pending count, net in-block change, block sequence,
// reply watermark) followed by the in-block estimator's state.
func (s *BlockSite) AppendSnapshot(b []byte) ([]byte, error) {
	in, ok := s.inner.(InBlockSnapshotter)
	if !ok {
		return nil, fmt.Errorf("track: in-block estimator %T does not support snapshots", s.inner)
	}
	if s.takingOver {
		// The held and deferred counters exist only relative to the
		// takeover announce this incarnation has in flight; a blob taken
		// now would silently drop them (their fate is undecided until the
		// coordinator's acknowledgement). Refuse, like the engine refuses
		// to snapshot a site mid-batch.
		return nil, fmt.Errorf("track: snapshot during an open takeover window")
	}
	b = append(b, snapTagBlock)
	b = AppendSnapInt(b, s.r)
	b = AppendSnapInt(b, s.ci)
	b = AppendSnapInt(b, s.fi)
	b = AppendSnapInt(b, s.seenBlocks)
	b = AppendSnapInt(b, s.repliesSent)
	b = AppendSnapInt(b, s.sentCi)
	b = AppendSnapInt(b, s.sentFi)
	b = AppendSnapInt(b, s.coordEpoch)
	return in.AppendSnapshot(b), nil
}

// RestoreSnapshot implements SiteSnapshotter.
func (s *BlockSite) RestoreSnapshot(r *SnapReader) error {
	in, ok := s.inner.(InBlockSnapshotter)
	if !ok {
		return fmt.Errorf("track: in-block estimator %T does not support snapshots", s.inner)
	}
	r.Tag(snapTagBlock)
	s.r = r.Int()
	s.batch = ceilPow2Half(s.r)
	s.ci = r.Int()
	if s.ci < 0 || s.ci >= s.batch {
		// Every call leaves 0 ≤ ci < batch (OnUpdate reports when ci
		// reaches the batch), so any other count is forged or corrupt.
		r.Fail("pending count outside [0, batch)")
	}
	s.fi = r.Int()
	s.seenBlocks = r.Int()
	s.repliesSent = r.Int()
	s.sentCi = r.Int()
	s.sentFi = r.Int()
	s.coordEpoch = r.Int()
	in.RestoreSnapshot(r)
	return r.Err()
}

// AppendSnapshot implements InBlockSnapshotter for the deterministic
// estimator.
func (s *detSite) AppendSnapshot(b []byte) []byte {
	b = append(b, snapTagDet)
	b = AppendSnapFloat(b, s.threshold)
	b = AppendSnapInt(b, s.di)
	b = AppendSnapInt(b, s.delta)
	return b
}

// RestoreSnapshot implements InBlockSnapshotter.
func (s *detSite) RestoreSnapshot(r *SnapReader) {
	r.Tag(snapTagDet)
	s.threshold = r.Float()
	s.di = r.Int()
	s.delta = r.Int()
}

// AppendSnapshot implements InBlockSnapshotter for the randomized
// estimator: the counters plus the generator state, so the restored site
// draws exactly the coin sequence the original would have.
func (s *randSite) AppendSnapshot(b []byte) []byte {
	b = append(b, snapTagRand)
	b = AppendSnapFloat(b, s.p)
	b = AppendSnapInt(b, s.d[0])
	b = AppendSnapInt(b, s.d[1])
	for _, w := range s.src.State() {
		b = AppendSnapUint(b, w)
	}
	return b
}

// RestoreSnapshot implements InBlockSnapshotter.
func (s *randSite) RestoreSnapshot(r *SnapReader) {
	r.Tag(snapTagRand)
	s.p = r.Float()
	s.coin = rng.NewCoin(s.p)
	s.d[0] = r.Int()
	s.d[1] = r.Int()
	var st [4]uint64
	for i := range st {
		st[i] = r.Uint()
	}
	if st == [4]uint64{} && r.Err() == nil {
		// SetState would swap in its guard constant; no encoder writes this.
		r.Fail("zero generator state")
	}
	s.src.SetState(st)
}

// AppendSnapshot implements CoordSnapshotter on the partition layer: the
// full spine — block identity, open-collection bookkeeping, the per-slot
// reply watermarks and fold totals, and the boundary diagnostics — followed
// by the in-block coordinator's state. An open collection survives the
// snapshot: the standby re-requests the replies still owed to it through
// OnSiteRejoin when the takeover handshake runs.
func (c *BlockCoord) AppendSnapshot(b []byte) ([]byte, error) {
	in, ok := c.inner.(InBlockSnapshotter)
	if !ok {
		return nil, fmt.Errorf("track: in-block coordinator %T does not support snapshots", c.inner)
	}
	b = append(b, snapTagBlockCoord)
	b = AppendSnapUint(b, uint64(c.k))
	b = AppendSnapInt(b, c.r)
	b = AppendSnapInt(b, c.fnj)
	b = AppendSnapInt(b, c.tj)
	b = AppendSnapInt(b, c.that)
	var collecting uint64
	if c.collecting {
		collecting = 1
	}
	b = AppendSnapUint(b, collecting)
	b = AppendSnapInt(b, int64(c.replies))
	b = AppendSnapInt(b, c.fDelta)
	for i := 0; i < c.k; i++ {
		var replied, dead uint64
		if c.replied[i] {
			replied = 1
		}
		if c.deadSite[i] {
			dead = 1
		}
		b = AppendSnapUint(b, replied)
		b = AppendSnapUint(b, dead)
		b = AppendSnapInt(b, c.replySeq[i])
		b = AppendSnapInt(b, c.foldedCi[i])
		b = AppendSnapInt(b, c.foldedFi[i])
	}
	b = AppendSnapInt(b, c.blocks)
	b = AppendSnapUint(b, uint64(len(c.blockStart)))
	for _, v := range c.blockStart {
		b = AppendSnapInt(b, v)
	}
	b = AppendSnapUint(b, uint64(len(c.rHistory)))
	for _, v := range c.rHistory {
		b = AppendSnapInt(b, v)
	}
	return in.AppendSnapshot(b), nil
}

// RestoreSnapshot implements CoordSnapshotter.
func (c *BlockCoord) RestoreSnapshot(r *SnapReader) error {
	in, ok := c.inner.(InBlockSnapshotter)
	if !ok {
		return fmt.Errorf("track: in-block coordinator %T does not support snapshots", c.inner)
	}
	r.Tag(snapTagBlockCoord)
	if k := r.Uint(); r.Err() == nil && k != uint64(c.k) {
		return fmt.Errorf("track: coordinator snapshot is for k=%d, restoring into k=%d", k, c.k)
	}
	c.r = r.Int()
	c.fnj = r.Int()
	c.tj = r.Int()
	c.that = r.Int()
	c.collecting = r.Bool()
	c.replies = int(r.Int())
	c.fDelta = r.Int()
	for i := 0; i < c.k; i++ {
		c.replied[i] = r.Bool()
		c.deadSite[i] = r.Bool()
		c.replySeq[i] = r.Int()
		c.foldedCi[i] = r.Int()
		c.foldedFi[i] = r.Int()
	}
	c.blocks = r.Int()
	c.blockStart = c.blockStart[:0]
	for n := r.Uint(); n > 0 && r.Err() == nil; n-- {
		c.blockStart = append(c.blockStart, r.Int())
	}
	c.rHistory = c.rHistory[:0]
	for n := r.Uint(); n > 0 && r.Err() == nil; n-- {
		c.rHistory = append(c.rHistory, r.Int())
	}
	in.RestoreSnapshot(r)
	return r.Err()
}

// AppendSnapshot implements InBlockSnapshotter for the deterministic
// coordinator.
func (c *detCoord) AppendSnapshot(b []byte) []byte {
	b = append(b, snapTagDetCoord)
	b = AppendSnapUint(b, uint64(len(c.dhat)))
	for _, v := range c.dhat {
		b = AppendSnapInt(b, v)
	}
	return AppendSnapInt(b, c.sum)
}

// RestoreSnapshot implements InBlockSnapshotter.
func (c *detCoord) RestoreSnapshot(r *SnapReader) {
	r.Tag(snapTagDetCoord)
	if n := r.Uint(); r.Err() == nil && n != uint64(len(c.dhat)) {
		r.Fail("detCoord site count")
		return
	}
	for i := range c.dhat {
		c.dhat[i] = r.Int()
	}
	c.sum = r.Int()
}

// AppendSnapshot implements InBlockSnapshotter for the randomized
// coordinator.
func (c *randCoord) AppendSnapshot(b []byte) []byte {
	b = append(b, snapTagRandCoord)
	b = AppendSnapFloat(b, c.p)
	b = AppendSnapUint(b, uint64(len(c.dplus)))
	for _, v := range c.dplus {
		b = AppendSnapFloat(b, v)
	}
	for _, v := range c.dmin {
		b = AppendSnapFloat(b, v)
	}
	return AppendSnapFloat(b, c.sum)
}

// RestoreSnapshot implements InBlockSnapshotter.
func (c *randCoord) RestoreSnapshot(r *SnapReader) {
	r.Tag(snapTagRandCoord)
	c.p = r.Float()
	c.invP = 1 / c.p
	if n := r.Uint(); r.Err() == nil && n != uint64(len(c.dplus)) {
		r.Fail("randCoord site count")
		return
	}
	for i := range c.dplus {
		c.dplus[i] = r.Float()
	}
	for i := range c.dmin {
		c.dmin[i] = r.Float()
	}
	c.sum = r.Float()
}

// AppendSnapshot implements CoordSnapshotter for the threshold monitor: the
// τ comparison itself is construction-constant, so the monitor contributes
// only its layer tag ahead of the tracker's own blob.
func (m *ThresholdMonitor) AppendSnapshot(b []byte) ([]byte, error) {
	return m.BlockCoord.AppendSnapshot(append(b, snapTagThreshold))
}

// RestoreSnapshot implements CoordSnapshotter.
func (m *ThresholdMonitor) RestoreSnapshot(r *SnapReader) error {
	r.Tag(snapTagThreshold)
	return m.BlockCoord.RestoreSnapshot(r)
}
