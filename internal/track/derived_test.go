package track

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
)

// A snapshot carries independent state only: every value that derives from
// (ε, k, r) or from other stored fields is recomputed on restore. Each test
// here forges one such stored copy in-package, snapshots the object,
// restores the blob into a fresh one and drives it: the forged copy must
// not reach the restored object's behaviour.

// restoreSiteInto snapshots site and restores the blob into fresh.
func restoreSiteInto(t *testing.T, site, fresh dist.SiteAlgo) {
	t.Helper()
	blob, err := SnapshotSite(site)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := RestoreSite(fresh, blob); err != nil {
		t.Fatalf("restore: %v", err)
	}
}

// restoreCoordInto snapshots coord and restores the blob into fresh.
func restoreCoordInto(t *testing.T, coord, fresh dist.CoordAlgo) {
	t.Helper()
	blob, err := SnapshotCoord(coord)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := RestoreCoord(fresh, blob); err != nil {
		t.Fatalf("restore: %v", err)
	}
}

// TestBlockSiteRestoreDerivesThreshold: a det site whose stored drift
// threshold is NaN or +Inf never reports drift if restore adopts it, so
// the guarantee |f − f̂| ≤ ε|f| breaks for the rest of its block. Restore
// derives the threshold from (ε, r), so the guarantee holds at every step.
func TestBlockSiteRestoreDerivesThreshold(t *testing.T) {
	const k, eps, target = 4, 0.1, 0
	ups := stream.Collect(stream.NewAssign(stream.Monotone(6_000), stream.NewSingle(k)))
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		coord, sites := NewDeterministic(k, eps)
		sim := dist.NewSim(coord, sites)
		// Cut just after the first block boundary past update 3,000, so
		// the restored site runs a whole block.
		var f int64
		cut := 0
		for blocks := int64(0); cut < 3_000 || coord.(*BlockCoord).Blocks() == blocks; cut++ {
			blocks = coord.(*BlockCoord).Blocks()
			sim.Step(ups[cut])
			f += ups[cut].Delta
		}
		sites[target].(*BlockSite).inner.(*detSite).drift.threshold = bad
		_, fresh := NewDeterministic(k, eps)
		restoreSiteInto(t, sites[target], fresh[target])
		sim.ReplaceSite(target, fresh[target])
		for i, u := range ups[cut:] {
			sim.Step(u)
			f += u.Delta
			if est := sim.Estimate(); float64(absI64(f-est)) > eps*float64(absI64(f)) {
				t.Errorf("threshold %v: %d updates after restore, f = %d, f̂ = %d", bad, i+1, f, est)
				break
			}
		}
	}
}

// TestBlockCoordRestoreDerivesReportsSum: the det coordinator's running
// sum of its sites' drift reports is the exact sum of the entries, so a
// blob whose sum is off by 10^6 must restore to f(n_j) + Σ entries.
func TestBlockCoordRestoreDerivesReportsSum(t *testing.T) {
	const k, eps = 4, 0.1
	ups := stream.Collect(stream.NewAssign(stream.RandomWalk(7_000, 3), stream.NewRoundRobin(k)))
	coord, sites := NewDeterministic(k, eps)
	sim := dist.NewSim(coord, sites)
	for _, u := range ups[:5_000] {
		sim.Step(u)
	}
	coord.(*BlockCoord).inner.(*detCoord).dhat.sum += 1_000_000
	fresh, _ := NewDeterministic(k, eps)
	restoreCoordInto(t, coord, fresh)
	sim.ReplaceCoord(fresh)
	c := fresh.(*BlockCoord)
	for i := 0; i <= len(ups)-5_000; i++ {
		if i > 0 {
			sim.Step(ups[5_000+i-1])
		}
		var sum int64
		for _, v := range c.inner.(*detCoord).dhat.last {
			sum += v
		}
		if got, want := c.Estimate(), c.fnj+sum; got != want {
			t.Fatalf("%d updates after restore: estimate %d, want f(n_j) + Σ entries = %d", i, got, want)
		}
	}
}

// TestBlockCoordRestoreDerivesSampleProb: a rand coordinator restored from
// a blob whose sampling probability p is NaN must estimate exactly like
// its twin restored from the honest blob: p derives from (ε, k, r).
func TestBlockCoordRestoreDerivesSampleProb(t *testing.T) {
	const k, eps, cut = 4, 0.1, 9_000
	ups := stream.Collect(stream.NewAssign(stream.BiasedWalk(12_000, 0.3, 5), stream.NewRoundRobin(k)))
	drive := func(forge func(*randCoord)) []int64 {
		coord, sites := NewRandomized(k, eps, 9)
		sim := dist.NewSim(coord, sites)
		for _, u := range ups[:cut] {
			sim.Step(u)
		}
		if forge != nil {
			forge(coord.(*BlockCoord).inner.(*randCoord))
		}
		fresh, _ := NewRandomized(k, eps, 9)
		restoreCoordInto(t, coord, fresh)
		sim.ReplaceCoord(fresh)
		var ests []int64
		for _, u := range ups[cut:] {
			sim.Step(u)
			ests = append(ests, sim.Estimate())
		}
		return ests
	}
	want := drive(nil)
	got := drive(func(c *randCoord) { c.p = math.NaN() })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("estimates diverge %d updates after restore: %d, honest twin %d", i+1, got[i], want[i])
		}
	}
}

// TestBlockSiteRestoreRejectsExponent: no honest run gives a site a block
// exponent below 0 or above blockExponent(MaxInt64, 1) = 61, the largest
// for any k (a site does not know k), so a blob that says otherwise is
// forged and no scale is computed from it.
func TestBlockSiteRestoreRejectsExponent(t *testing.T) {
	top := blockExponent(math.MaxInt64, 1)
	if top != 61 {
		t.Fatalf("blockExponent(MaxInt64, 1) = %d, want 61", top)
	}
	for _, r := range []int64{-1, 0, top, top + 1, 5000} {
		_, sites := NewDeterministic(2, 0.1)
		s := sites[1].(*BlockSite)
		s.r, s.batch = r, ceilPow2Half(r)
		blob, err := SnapshotSite(s)
		if err != nil {
			t.Fatalf("r=%d: snapshot: %v", r, err)
		}
		_, fresh := NewDeterministic(2, 0.1)
		err = RestoreSite(fresh[1], blob)
		if ok := r >= 0 && r <= top; (err == nil) != ok {
			t.Errorf("r=%d: RestoreSite error %v, want accepted=%v", r, err, ok)
		}
	}
}

// TestBlockCoordRestoreRejectsExponent: a coordinator's exponent is
// blockExponent of some int64 boundary value, so it lies in [0,
// blockExponent(MaxInt64, k)]; a blob outside that range is rejected.
func TestBlockCoordRestoreRejectsExponent(t *testing.T) {
	const k = 3
	top := blockExponent(math.MaxInt64, k)
	for _, r := range []int64{-1, 0, top, top + 1, 5000} {
		coord, _ := NewDeterministic(k, 0.1)
		coord.(*BlockCoord).r = r
		blob, err := SnapshotCoord(coord)
		if err != nil {
			t.Fatalf("r=%d: snapshot: %v", r, err)
		}
		fresh, _ := NewDeterministic(k, 0.1)
		err = RestoreCoord(fresh, blob)
		if ok := r >= 0 && r <= top; (err == nil) != ok {
			t.Errorf("r=%d: RestoreCoord error %v, want accepted=%v", r, err, ok)
		}
	}
}
