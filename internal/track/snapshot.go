package track

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/itemtab"
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
var snapMagic = [4]byte{'V', 'S', 'N', '2'}

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

// Snapshotter is implemented by every layer that supports the snapshot
// contract, site and coordinator alike. Snap runs one pass over the
// layer's complete state in the codec's direction: encoding appends it,
// decoding overwrites the receiver from what an encoding pass wrote,
// consuming exactly that (so layers compose: a spine codes its in-block
// estimator after its own fields, a multi-query site its children). For a
// coordinator, a standby restored from the blob is indistinguishable from
// the original, so restore-then-drive stays byte-identical to never having
// failed over. Site and coordinator layer tags differ, so a site blob
// restored into a coordinator (or vice versa) is rejected, not misread.
type Snapshotter interface {
	Snap(c *Codec) error
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
	s, ok := algo.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("track: %T does not support snapshots", algo)
	}
	c := &Codec{b: append(make([]byte, 0, 256), snapMagic[:]...)}
	if err := s.Snap(c); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write(c.b[len(snapMagic):])
	return h.Sum(c.b), nil
}

// RestoreSite overwrites a freshly constructed site algorithm's state from
// a SnapshotSite blob, verifying the magic and the integrity hash, and
// hands the hash to the algorithm when it implements SnapshotHashSetter.
func RestoreSite(algo any, snap []byte) error {
	s, ok := algo.(Snapshotter)
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
	if err := Decode(payload, s.Snap); err != nil {
		return err
	}
	if hs, ok := algo.(SnapshotHashSetter); ok {
		hs.SetSnapshotHash(sum)
	}
	return nil
}

// SnapshotCoord serializes a coordinator algorithm's complete state into
// one self-verifying blob, in the same wire format as SnapshotSite (magic,
// varint payload, trailing FNV-1a hash).
func SnapshotCoord(algo any) ([]byte, error) { return SnapshotSite(algo) }

// RestoreCoord overwrites a freshly constructed coordinator algorithm's
// state from a SnapshotCoord blob, verifying the magic and the integrity
// hash, and hands the hash to the algorithm when it implements
// SnapshotHashSetter (the standby presents it in KindCoordTakeover).
func RestoreCoord(algo any, snap []byte) error { return RestoreSite(algo, snap) }

// SnapshotHash returns the integrity hash of a SnapshotSite blob (the
// value a replacement presents in KindTakeover), or 0 for a malformed one.
func SnapshotHash(snap []byte) uint64 {
	if len(snap) < len(snapMagic)+8 {
		return 0
	}
	return binary.BigEndian.Uint64(snap[len(snap)-8:])
}

// Decode runs snap in the decoding direction over a bare payload (no magic,
// no hash), which it must consume exactly.
func Decode(payload []byte, snap func(*Codec) error) error {
	c := &Codec{b: payload, dec: true}
	err := snap(c)
	if err == nil {
		err = c.err
	}
	if err == nil && len(c.b) != 0 {
		err = fmt.Errorf("track: %d trailing bytes after snapshot", len(c.b))
	}
	return err
}

// Codec is one snapshot pass in either direction. Each layer's Snap names
// its fields once, in wire order: c.Int(&s.ci) appends s.ci when encoding
// and reads it back into s.ci when decoding. Integers travel as varints
// (zig-zag for signed ones), floats as the varint of their IEEE bit
// pattern, flags as the varint 0 or 1.
//
// Decoding keeps a sticky error: after the first malformed field every
// further read yields zero and Err is set, so Snap reads fields
// unconditionally and the caller checks once. Only canonical blobs decode:
// an overlong varint or a flag above 1 fails the read, since accepting
// them would let two blobs decode to the same state.
type Codec struct {
	b   []byte // encoding: the blob so far; decoding: the unread payload
	dec bool
	err error
}

// Decoding reports the direction. Derived fields and the checks that only
// a decoded blob needs go in one if c.Decoding() block per layer.
func (c *Codec) Decoding() bool { return c.dec }

// Err returns the first decode error, if any.
func (c *Codec) Err() error { return c.err }

// Fail records a decode error (the first one sticks): Snap calls it when a
// field is well-formed but not what the encoder could have written, such
// as a key list out of order, so only canonical blobs are accepted.
func (c *Codec) Fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("track: truncated or corrupt snapshot (%s)", what)
	}
}

// Tag codes one layer tag byte.
func (c *Codec) Tag(t byte) {
	if !c.dec {
		c.b = append(c.b, t)
		return
	}
	if c.err != nil {
		return
	}
	if len(c.b) == 0 || c.b[0] != t {
		c.Fail(fmt.Sprintf("expected tag %q", t))
		return
	}
	c.b = c.b[1:]
}

// uint reads a canonical varint, or returns 0 once decoding has failed.
func (c *Codec) uint() uint64 {
	if c.err != nil {
		return 0
	}
	x, n := binary.Uvarint(c.b)
	if n <= 0 || (n > 1 && c.b[n-1] == 0) {
		c.Fail("varint")
		return 0
	}
	c.b = c.b[n:]
	return x
}

// int reads a canonical zig-zag varint.
func (c *Codec) int() int64 {
	x := c.uint()
	return int64(x>>1) ^ -int64(x&1)
}

// Uint codes an unsigned integer.
func (c *Codec) Uint(p *uint64) {
	if c.dec {
		*p = c.uint()
	} else {
		c.b = binary.AppendUvarint(c.b, *p)
	}
}

// Int codes a signed integer.
func (c *Codec) Int(p *int64) {
	if c.dec {
		*p = c.int()
	} else {
		c.b = binary.AppendVarint(c.b, *p)
	}
}

// Float codes a float64.
func (c *Codec) Float(p *float64) {
	if c.dec {
		*p = math.Float64frombits(c.uint())
	} else {
		c.b = binary.AppendUvarint(c.b, math.Float64bits(*p))
	}
}

// Bool codes a flag.
func (c *Codec) Bool(p *bool) {
	var x uint64
	if *p {
		x = 1
	}
	c.Uint(&x)
	if x > 1 {
		c.Fail("flag")
	}
	*p = x == 1
}

// Fixed codes a value the decoding side already knows, such as a site
// count or a section's position: it is written when encoding and must read
// back equal when decoding.
func (c *Codec) Fixed(n int, what string) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, uint64(n))
	} else if x := c.uint(); c.err == nil && x != uint64(n) {
		c.Fail(fmt.Sprintf("%s %d, want %d", what, x, n))
	}
}

// Sub codes a length-prefixed section holding one layer's snapshot, which
// decoding must consume exactly. A nil f skips the section when decoding.
// Errors from the section are returned, not made sticky, so the caller can
// say which section failed.
func (c *Codec) Sub(f func(*Codec) error) error {
	if !c.dec {
		sub := &Codec{}
		if err := f(sub); err != nil {
			return err
		}
		c.b = binary.AppendUvarint(c.b, uint64(len(sub.b)))
		c.b = append(c.b, sub.b...)
		return nil
	}
	n := c.uint()
	if uint64(len(c.b)) < n {
		c.Fail("section length")
	}
	if c.err != nil {
		return nil
	}
	body := c.b[:n:n]
	c.b = c.b[n:]
	if f == nil {
		return nil
	}
	return Decode(body, f)
}

// SnapKeys codes a keyed list as its length, then each key followed by
// what val codes for it. Encoding writes keys, which must be strictly
// increasing; decoding hands val each key read and accepts only strictly
// increasing ones: a repeated key would overwrite its first entry, and the
// blob would not re-encode identically.
func SnapKeys(c *Codec, keys []uint64, val func(c *Codec, k uint64)) {
	n := uint64(len(keys))
	c.Uint(&n)
	for i, prev := uint64(0), uint64(0); i < n && c.err == nil; i++ {
		var k uint64
		if !c.dec {
			k = keys[i]
		}
		c.Uint(&k)
		if i > 0 && k <= prev {
			c.Fail("table keys not strictly increasing")
		}
		prev = k
		val(c, k)
	}
}

// SnapTable codes an item table through SnapKeys in increasing key order,
// so equal tables give equal blobs. Decoding replaces the table's contents.
func SnapTable[V any](c *Codec, t *itemtab.Table[V], val func(c *Codec, v *V)) {
	var keys []uint64
	if c.dec {
		t.Clear()
	} else {
		keys = t.SortedKeys(nil)
	}
	var v V // one copy for the whole walk: &v escapes into val
	SnapKeys(c, keys, func(c *Codec, k uint64) {
		if c.dec {
			val(c, t.Upsert(k))
			return
		}
		v, _ = t.Get(k)
		val(c, &v)
	})
}

// Snap implements Snapshotter on the partition layer: the spine
// (exponent, pending count, net in-block change, block sequence, reply
// watermark) followed by the in-block estimator's state. Decoding starts
// the decoded block on the freshly built estimator before its own fields
// decode, so every scale of the block (batch, threshold, sampling
// probability, cell limit) is derived, never read.
func (s *BlockSite) Snap(c *Codec) error {
	in, ok := s.inner.(Snapshotter)
	if !ok {
		return fmt.Errorf("track: in-block estimator %T does not support snapshots", s.inner)
	}
	if s.takingOver && !c.Decoding() {
		// The held and deferred counters exist only relative to the
		// takeover announce this incarnation has in flight; a blob taken
		// now would silently drop them (their fate is undecided until the
		// coordinator's acknowledgement). Refuse, like the engine refuses
		// to snapshot a site mid-batch.
		return fmt.Errorf("track: snapshot during an open takeover window")
	}
	c.Tag(snapTagBlock)
	c.Int(&s.r)
	c.Int(&s.ci)
	c.Int(&s.fi)
	c.Int(&s.seenBlocks)
	c.Int(&s.repliesSent)
	c.Int(&s.sentCi)
	c.Int(&s.sentFi)
	c.Int(&s.coordEpoch)
	if c.Decoding() {
		// A site adopts only exponents the coordinator picks, so no scale
		// is ever computed from a forged one.
		if !siteExponentOK(s.r) {
			c.Fail("block exponent out of range")
			return c.Err()
		}
		s.startBlock(s.r, nil)
		if s.ci < 0 || s.ci >= s.batch {
			// Every call leaves 0 ≤ ci < batch (OnUpdate reports when ci
			// reaches the batch), so any other count is forged or corrupt.
			c.Fail("pending count outside [0, batch)")
		}
	}
	return in.Snap(c)
}

// Snap implements Snapshotter for the deterministic estimator.
func (s *detSite) Snap(c *Codec) error {
	c.Tag(snapTagDet)
	s.drift.Snap(c)
	return c.Err()
}

// Snap codes the drift condition's counters, d_i and δ_i; the threshold
// is the block's, set by Reset.
func (d *Drift) Snap(c *Codec) {
	c.Int(&d.d)
	c.Int(&d.delta)
}

// Snap implements Snapshotter for the randomized estimator: the counters
// plus the generator state, so the restored site draws exactly the coin
// sequence the original would have. The block's coin is Reset's.
func (s *randSite) Snap(c *Codec) error {
	c.Tag(snapTagRand)
	c.Int(&s.d[0])
	c.Int(&s.d[1])
	st := s.src.State()
	for i := range st {
		c.Uint(&st[i])
	}
	if c.Decoding() {
		if st == [4]uint64{} {
			// SetState would swap in its guard constant; no encoder writes this.
			c.Fail("zero generator state")
		}
		s.src.SetState(st)
	}
	return c.Err()
}

// Snap implements Snapshotter on the coordinator's partition layer: the
// spine — block identity, open-collection bookkeeping, the per-slot reply
// watermarks and fold totals — followed by the in-block coordinator's
// state. Decoding starts the decoded block on the in-block coordinator
// before its own fields decode, as BlockSite.Snap does, and recounts the
// replies from their flags. An open collection survives the
// snapshot: the standby re-requests the replies still owed to it through
// OnSiteRejoin when the takeover handshake runs.
func (c *BlockCoord) Snap(cd *Codec) error {
	in, ok := c.inner.(Snapshotter)
	if !ok {
		return fmt.Errorf("track: in-block coordinator %T does not support snapshots", c.inner)
	}
	cd.Tag(snapTagBlockCoord)
	cd.Fixed(c.k, "coordinator site count")
	cd.Int(&c.r)
	cd.Int(&c.fnj)
	cd.Int(&c.that)
	cd.Bool(&c.collecting)
	cd.Int(&c.fDelta)
	for i := 0; i < c.k; i++ {
		cd.Bool(&c.replied[i])
		cd.Bool(&c.deadSite[i])
		cd.Int(&c.replySeq[i])
		cd.Int(&c.foldedCi[i])
		cd.Int(&c.foldedFi[i])
	}
	cd.Int(&c.blocks)
	if cd.Decoding() {
		if c.r < 0 || c.r > blockExponent(math.MaxInt64, c.k) {
			cd.Fail("block exponent out of range")
			return cd.Err()
		}
		c.startBlock(c.r)
		// Every path that sets a replied flag counts the reply, and the
		// k-th reply closes the block, so an open collection holds fewer
		// than k replies, one per set flag. All k set would never close
		// the collection: every later reply reads as a duplicate.
		c.replies = 0
		for _, ok := range c.replied {
			if ok {
				c.replies++
			}
		}
		if c.collecting && c.replies >= c.k {
			cd.Fail("open collection reply count")
		}
	}
	return in.Snap(cd)
}

// Snap implements Snapshotter for the deterministic coordinator.
func (c *detCoord) Snap(cd *Codec) error {
	cd.Tag(snapTagDetCoord)
	c.dhat.Snap(cd)
	return cd.Err()
}

// Snap codes the books, sized for this coordinator's sites: the site
// count, then each site's latest value. Decoding sums them.
func (b *Reports) Snap(c *Codec) {
	c.Fixed(len(b.last), "reporting site count")
	for i := range b.last {
		c.Int(&b.last[i])
	}
	if c.Decoding() {
		b.sum = 0
		for _, v := range b.last {
			b.sum += v
		}
	}
}

// Snap implements Snapshotter for the randomized coordinator.
func (c *randCoord) Snap(cd *Codec) error {
	cd.Tag(snapTagRandCoord)
	cd.Fixed(len(c.dplus), "randCoord site count")
	for i := range c.dplus {
		cd.Float(&c.dplus[i])
	}
	for i := range c.dmin {
		cd.Float(&c.dmin[i])
	}
	cd.Float(&c.sum)
	return cd.Err()
}

// Snap implements Snapshotter for the threshold monitor: the τ comparison
// itself is construction-constant, so the monitor contributes only its
// layer tag ahead of the tracker's own blob.
func (m *ThresholdMonitor) Snap(c *Codec) error {
	c.Tag(snapTagThreshold)
	return m.BlockCoord.Snap(c)
}
