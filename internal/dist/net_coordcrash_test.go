package dist_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/stream"
	"repro/internal/track"
)

// TestNetStandbyTakeoverSpliceOnce is the looped regression test for the
// standby flake varmon's -kill-coord smoke used to trip (~4 runs in 5 at
// hb=10ms): with the detector armed on the standby before the sites
// re-dial, a site whose coordinator-takeover handshake races the first
// collection answers the state request twice, and its pre-adoption drift
// report — an absolute drift against the OLD block base — could land
// after finishBlock had already reset the coordinator's mirror,
// permanently inflating the estimate. Drift reports now carry the
// sender's block sequence and the coordinator drops stale ones (see
// stampOutbox in internal/track); the event trace asserts the splice
// itself still happens exactly once per site.
func TestNetStandbyTakeoverSpliceOnce(t *testing.T) {
	const k, n = 4, 12_000
	const eps = 0.1
	const hb = 10 * time.Millisecond
	iters := 6
	if testing.Short() {
		iters = 2
	}

	for it := 0; it < iters; it++ {
		coordAlgo, siteAlgos := track.NewDeterministic(k, eps)
		cl, err := dist.NewNetCluster(coordAlgo, siteAlgos, dist.NetConfig{
			DialTimeout: 2 * time.Second, Heartbeat: hb, HeartbeatMiss: 3})
		if err != nil {
			t.Fatal(err)
		}
		var evMu sync.Mutex
		splices := make(map[int32]int) // site -> coord_takeover announces seen
		cl.SetEventSink(func(e dist.Event) {
			if e.Kind == dist.EvCoordTakeover {
				evMu.Lock()
				splices[e.Site]++
				evMu.Unlock()
			}
		})
		r := &netRun{t: t, cl: cl, k: k, eps: eps, ups: stream.Collect(stream.NewAssign(
			stream.BiasedWalk(n, 0.3, uint64(100+it)), stream.NewRoundRobin(k)))}
		r.to(n / 4)
		// Checkpoint here — then keep streaming before the kill. The
		// restored standby is therefore STALE relative to the sites'
		// books, exactly like varmon's periodic -snapshot-dir checkpoints:
		// the takeover handshake has to resync blocks the coordinator
		// never saw, which is the window the pre-fix drift reports raced.
		r.settle()
		snap := r.coordSnapshot(coordAlgo)
		r.to(n / 3)
		r.settle()
		cl.CrashCoord()
		r.to(2 * n / 3)

		// The standby comes up exactly the way varmon's smoke does: the
		// detector armed BEFORE any site re-dials — so slots can be
		// declared dead and rejoin mid-handshake — and the backlogs
		// replayed only after every site is back.
		if _, _, err := cl.CoordTakeover(r.standby(snap)); err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		r.to(n)
		if err := cl.Settle(); err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}

		if got := cl.Stats().CoordTakeovers; got != 1 {
			t.Fatalf("iter %d: coordinator takeovers = %d, want 1", it, got)
		}
		evMu.Lock()
		for i := 0; i < k; i++ {
			if got := splices[int32(i)]; got != 1 {
				t.Errorf("iter %d: coord_takeover announces to site %d = %d, want exactly 1", it, i, got)
			}
		}
		evMu.Unlock()
		est := cl.Estimate()
		diff := absDiff64(r.f, est)
		bound := eps * float64(absDiff64(r.f, 0))
		if float64(diff) > bound+1e-9 {
			t.Fatalf("iter %d: estimate %d vs exact %d: |err|=%d exceeds ε·f=%.1f after standby takeover",
				it, est, r.f, diff, bound)
		}
		cl.Close()
	}
}

// TestNetTakeoverNoDoubleCount pins Stats.Takeovers against re-dial
// inflation: a replacement whose first connection dies before it ever
// beacons is the same logical takeover when it re-dials, so the counter
// must not move again — but a slot seen alive in between counts anew.
func TestNetTakeoverNoDoubleCount(t *testing.T) {
	const hb = 10 * time.Millisecond
	coordAlgo, siteAlgos := track.NewDeterministic(1, 0.5)
	coord, err := dist.ListenCoordinator("127.0.0.1:0", 1, coordAlgo)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.SetFailureDetection(hb, 3)

	waitDead := func(what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !coord.SiteDead(0) {
			if time.Now().After(deadline) {
				t.Fatalf("detector never declared the slot dead (%s)", what)
			}
			time.Sleep(hb)
		}
	}

	// Original site: beacons, then dies.
	s, err := dist.DialNetSiteRetry(coord.Addr(), 0, siteAlgos[0], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s.StartHeartbeats(hb)
	time.Sleep(3 * hb) // let at least one beacon land
	s.Close()
	waitDead("original")

	// First replacement: takes over but dies before ever beaconing.
	r1, err := dist.DialNetSiteRetry(coord.Addr(), 0, siteAlgos[0], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := coord.Stats().Takeovers; got != 1 {
		t.Fatalf("takeovers after first replacement = %d, want 1", got)
	}
	r1.Close()
	waitDead("silent replacement")

	// Second dial of the same logical takeover: must not count again.
	r2, err := dist.DialNetSiteRetry(coord.Addr(), 0, siteAlgos[0], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := coord.Stats().Takeovers; got != 1 {
		t.Fatalf("takeovers after re-dial = %d, want 1 (re-dial double-counted)", got)
	}

	// Once the slot beacons again, a later takeover is a new one.
	before := coord.Stats().HeartbeatsRecv
	r2.StartHeartbeats(hb)
	deadline := time.Now().Add(5 * time.Second)
	for coord.Stats().HeartbeatsRecv == before {
		if time.Now().After(deadline) {
			t.Fatalf("replacement heartbeats never arrived")
		}
		time.Sleep(hb)
	}
	r2.Close()
	waitDead("beaconing replacement")
	r3, err := dist.DialNetSiteRetry(coord.Addr(), 0, siteAlgos[0], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if got := coord.Stats().Takeovers; got != 2 {
		t.Fatalf("takeovers after second logical takeover = %d, want 2", got)
	}
}
