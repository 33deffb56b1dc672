package track

import (
	"bytes"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/stream"
)

// runReference is the historical per-update Run loop, kept verbatim as the
// oracle for the batched harness: identical Results here mean the batched
// ingest path changed dispatch cost only, not a single observable value.
func runReference(name string, st stream.Stream, coord dist.CoordAlgo, sites []dist.SiteAlgo, eps float64) Result {
	sim := dist.NewSim(coord, sites)
	exact := core.NewTracker(0)
	res := Result{Name: name, K: len(sites), Eps: eps}
	bc, hasBlocks := coord.(*BlockCoord)
	lastBlocks := int64(0)
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		sim.Step(u)
		exact.Update(u.Delta)
		res.Steps++
		f := exact.F()
		est := sim.Estimate()
		diff := absI64(f - est)
		af := absI64(f)
		rel := float64(diff)
		if af > 0 {
			rel = float64(diff) / float64(af)
		}
		if rel > res.MaxRelErr {
			res.MaxRelErr = rel
		}
		if float64(diff) > eps*float64(af) {
			res.Violations++
		}
		if hasBlocks && bc.Blocks() != lastBlocks {
			lastBlocks = bc.Blocks()
			res.BlockV = append(res.BlockV, exact.V())
			res.BlockMsgs = append(res.BlockMsgs, sim.Stats().Total())
		}
	}
	res.V = exact.V()
	res.Stats = sim.Stats()
	res.FinalF = exact.F()
	res.FinalEst = sim.Estimate()
	if hasBlocks {
		res.Blocks = bc.Blocks()
	}
	return res
}

// TestRunMatchesReference drives every tracker over non-monotone and
// monotone random streams and requires the batched Run to reproduce the
// reference Result — steps, violations, max relative error, stats, block
// boundaries — exactly.
func TestRunMatchesReference(t *testing.T) {
	const n = 40_000
	monotoneOnly := map[string]bool{"cmy": true, "hyz": true}
	for name, build := range Builders() {
		for _, k := range []int{1, 5} {
			var mk func() stream.Stream
			if monotoneOnly[name] {
				mk = func() stream.Stream {
					return stream.NewAssign(stream.Monotone(n), stream.NewRoundRobin(k))
				}
			} else {
				mk = func() stream.Stream {
					return stream.NewAssign(stream.RandomWalk(n, 77), stream.NewRoundRobin(k))
				}
			}
			coord, sites := build(k, 0.1, 13)
			want := runReference(name, mk(), coord, sites, 0.1)
			coord, sites = build(k, 0.1, 13)
			got := Run(name, mk(), coord, sites, 0.1)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s k=%d: batched Run diverges from reference:\n got %+v\nwant %+v", name, k, got, want)
			}
		}
	}
}

// TestBlockSiteRestoreRejectsPendingCount pins the pending-count bound a
// restore enforces: no call leaves ci at or past the ⌈2^{r−1}⌉ report batch,
// or below zero, so a hash-valid blob that says otherwise is forged or
// corrupt and must be rejected.
func TestBlockSiteRestoreRejectsPendingCount(t *testing.T) {
	for _, r := range []int64{0, 3} {
		batch := ceilPow2Half(r)
		for _, ci := range []int64{0, batch - 1, batch, batch + 4, -1} {
			_, sites := NewDeterministic(2, 0.1)
			s := sites[1].(*BlockSite)
			s.r, s.batch, s.ci = r, batch, ci
			blob, err := SnapshotSite(s)
			if err != nil {
				t.Fatalf("r=%d ci=%d: snapshot: %v", r, ci, err)
			}
			_, fresh := NewDeterministic(2, 0.1)
			err = RestoreSite(fresh[1], blob)
			if ok := ci >= 0 && ci < batch; (err == nil) != ok {
				t.Errorf("r=%d ci=%d: RestoreSite error %v, want accepted=%v", r, ci, err, ok)
			}
		}
	}
}

// TestBlockCoordRestoreRejectsReplyCount pins the open-collection bound a
// coordinator restore enforces: every path that sets a replied flag counts
// the reply, and the k-th reply closes the block, so an open collection
// holds one reply per set flag and fewer than k of them. A blob that says
// otherwise never closes its collection — every later reply reads as a
// duplicate — and must be rejected. A closed collection keeps its last
// flags and count, so those are accepted as they stand.
func TestBlockCoordRestoreRejectsReplyCount(t *testing.T) {
	const k = 3
	for _, tc := range []struct {
		collecting bool
		flags      [k]bool
		replies    int
		ok         bool
	}{
		{true, [k]bool{}, 0, true},
		{true, [k]bool{false, true, false}, 1, true},
		{true, [k]bool{true, false, true}, 2, true},
		{true, [k]bool{true, true, true}, 1, false},
		{true, [k]bool{true, true, true}, 3, false},
		{true, [k]bool{false, true, false}, 0, false},
		{true, [k]bool{true, false, false}, 2, false},
		{true, [k]bool{}, -1, false},
		{false, [k]bool{true, true, true}, 3, true},
		{false, [k]bool{}, 0, true},
	} {
		coord, _ := NewDeterministic(k, 0.1)
		c := coord.(*BlockCoord)
		c.collecting, c.replies = tc.collecting, tc.replies
		copy(c.replied, tc.flags[:])
		blob, err := SnapshotCoord(c)
		if err != nil {
			t.Fatalf("%+v: snapshot: %v", tc, err)
		}
		fresh, _ := NewDeterministic(k, 0.1)
		if err := RestoreCoord(fresh, blob); (err == nil) != tc.ok {
			t.Errorf("collecting=%v flags=%v replies=%d: RestoreCoord error %v, want accepted=%v",
				tc.collecting, tc.flags, tc.replies, err, tc.ok)
		}
	}
}

// FuzzRestoreBlockSite feeds arbitrary payloads, framed with the magic and
// a fresh integrity trailer so they reach the decoders, to the restore of
// det, rand and threshold BlockSites. The decoder must never panic, any
// blob it accepts must re-encode byte for byte, and the restored site must
// then take a same-site run through OnUpdateBatch, consuming at least one
// update per call, without panicking. Seeds are real snapshots taken just
// before and just after block boundaries.
func FuzzRestoreBlockSite(f *testing.F) {
	const k, target = 3, 1
	builders := []struct {
		name  string
		build func() (dist.CoordAlgo, []dist.SiteAlgo)
	}{
		{"det", func() (dist.CoordAlgo, []dist.SiteAlgo) { return NewDeterministic(k, 0.1) }},
		{"rand", func() (dist.CoordAlgo, []dist.SiteAlgo) { return NewRandomized(k, 0.1, 3) }},
		{"threshold", func() (dist.CoordAlgo, []dist.SiteAlgo) { return NewThresholdMonitor(k, 0.1, 300) }},
	}
	ups := stream.Collect(stream.NewAssign(stream.NearlyMonotone(4_000, 1, 41), stream.NewSkewed(k, 1.5, 4)))
	for _, b := range builders {
		coord, sites := b.build()
		sim := dist.NewSim(coord, sites)
		blocks := coord.(interface{ Blocks() int64 }).Blocks
		last := blocks()
		// Every eighth boundary seeds the snapshot before the closing
		// update, whose pending count is about to report, and the one
		// after it.
		for _, u := range ups {
			before, err := SnapshotSite(sites[target])
			if err != nil {
				f.Fatal(err)
			}
			sim.Step(u)
			if blocks() == last {
				continue
			}
			last = blocks()
			if last%8 != 0 {
				continue
			}
			after, err := SnapshotSite(sites[target])
			if err != nil {
				f.Fatal(err)
			}
			f.Add(before[len(snapMagic) : len(before)-8])
			f.Add(after[len(snapMagic) : len(after)-8])
		}
	}
	run := make([]stream.Update, 64)
	for i := range run {
		run[i] = stream.Update{Site: target, Delta: []int64{1, 1, -1, 5, 0}[i%5]}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		h := fnv.New64a()
		h.Write(payload)
		blob := h.Sum(append(bytes.Clone(snapMagic[:]), payload...))
		for _, b := range builders {
			_, sites := b.build()
			site := sites[target].(*BlockSite)
			if RestoreSite(site, blob) != nil {
				continue
			}
			again, err := SnapshotSite(site)
			if err != nil {
				t.Fatalf("%s: accepted blob does not re-snapshot: %v", b.name, err)
			}
			if !bytes.Equal(again, blob) {
				t.Fatalf("%s: accepted blob re-encodes differently:\n got %x\nwant %x", b.name, again, blob)
			}
			for us := run; len(us) > 0; {
				c := site.OnUpdateBatch(us, muteOutbox{})
				if c < 1 || c > len(us) {
					t.Fatalf("%s: OnUpdateBatch consumed %d of %d updates", b.name, c, len(us))
				}
				us = us[c:]
			}
		}
	})
}

// FuzzRestoreCoord is FuzzRestoreBlockSite's coordinator twin: arbitrary
// payloads, framed with the magic and a fresh integrity trailer, go to
// RestoreCoord on det, rand and threshold coordinators. The decoder must
// never panic, any blob it accepts must re-encode byte for byte, and the
// restored coordinator must then take 64 OnMessage calls — reports,
// collection replies and takeover traffic from every site — without
// panicking. Seeds are real snapshots taken just before and just after
// block boundaries, plus rand blobs whose p is 0, +Inf or NaN: restore
// re-derives 1/p from the decoded p, so those must not break delivery.
func FuzzRestoreCoord(f *testing.F) {
	const k = 3
	builders := []struct {
		name  string
		build func() (dist.CoordAlgo, []dist.SiteAlgo)
	}{
		{"det", func() (dist.CoordAlgo, []dist.SiteAlgo) { return NewDeterministic(k, 0.1) }},
		{"rand", func() (dist.CoordAlgo, []dist.SiteAlgo) { return NewRandomized(k, 0.1, 3) }},
		{"threshold", func() (dist.CoordAlgo, []dist.SiteAlgo) { return NewThresholdMonitor(k, 0.1, 300) }},
	}
	seed := func(coord dist.CoordAlgo) {
		blob, err := SnapshotCoord(coord)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob[len(snapMagic) : len(blob)-8])
	}
	ups := stream.Collect(stream.NewAssign(stream.NearlyMonotone(4_000, 1, 41), stream.NewSkewed(k, 1.5, 4)))
	for _, b := range builders {
		coord, sites := b.build()
		sim := dist.NewSim(coord, sites)
		blocks := coord.(interface{ Blocks() int64 }).Blocks
		last := blocks()
		for _, u := range ups {
			before, err := SnapshotCoord(coord)
			if err != nil {
				f.Fatal(err)
			}
			sim.Step(u)
			if blocks() == last {
				continue
			}
			last = blocks()
			if last%8 != 0 {
				continue
			}
			f.Add(before[len(snapMagic) : len(before)-8])
			seed(coord)
		}
		if b.name == "rand" {
			for _, p := range []float64{0, math.Inf(1), math.NaN()} {
				coord.(*BlockCoord).inner.(*randCoord).p = p
				seed(coord)
			}
		}
		if b.name == "det" {
			// A boundary value near 2^63: the next block's exponent
			// must still be computed in finite time.
			coord.(*BlockCoord).fnj = math.MaxInt64
			seed(coord)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		h := fnv.New64a()
		h.Write(payload)
		blob := h.Sum(append(bytes.Clone(snapMagic[:]), payload...))
		for _, b := range builders {
			coord, _ := b.build()
			if RestoreCoord(coord, blob) != nil {
				continue
			}
			again, err := SnapshotCoord(coord)
			if err != nil {
				t.Fatalf("%s: accepted blob does not re-snapshot: %v", b.name, err)
			}
			if !bytes.Equal(again, blob) {
				t.Fatalf("%s: accepted blob re-encodes differently:\n got %x\nwant %x", b.name, again, blob)
			}
			stamp := uint64(coord.(interface{ Blocks() int64 }).Blocks())
			for i := 0; i < 64; i++ {
				site := int32(i % k)
				var m dist.Msg
				switch i / k % 6 {
				case 0:
					m = dist.Msg{Kind: dist.KindDriftReport, Site: site, Item: stamp, A: int64(i), B: []int64{1, -1, 2, -2}[i%4]}
				case 1:
					m = dist.Msg{Kind: dist.KindCountReport, Site: site, A: int64(1 + i)}
				case 2:
					m = dist.Msg{Kind: dist.KindStateReply, Site: site, A: int64(i), B: int64(i%5 - 2)}
				case 3:
					m = dist.Msg{Kind: dist.KindTakeover, Site: site}
				case 4:
					m = dist.Msg{Kind: dist.KindCoordTakeover, Site: site, Item: uint64(i), A: int64(i), B: 1}
				default:
					m = dist.Msg{Kind: dist.KindValueReport, Site: site, A: int64(i)}
				}
				coord.OnMessage(m, muteOutbox{})
			}
			coord.Estimate()
		}
	})
}
