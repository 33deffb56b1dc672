package dist_test

import (
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/stream"
	"repro/internal/track"
)

// TestNetCrashTakeover is the kill-and-takeover story on real TCP: kill a
// site mid-stream, let the heartbeat detector declare it dead, keep the
// coordinator serving (degraded, not wedged), then dial a replacement
// restored from a pre-kill snapshot into the dead slot, replay the killed
// site's buffered updates, and require the final estimate to meet the
// tracker's ε bound.
func TestNetCrashTakeover(t *testing.T) {
	const k, n = 3, 9_000
	const eps = 0.1
	const hb = 10 * time.Millisecond
	const victim = 1

	coordAlgo, siteAlgos := track.NewDeterministic(k, eps)
	bc := coordAlgo.(*track.BlockCoord)
	coord, err := dist.ListenCoordinator("127.0.0.1:0", k, coordAlgo)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.SetFailureDetection(hb, 3)
	// blocks reads the block count under the coordinator lock: serve
	// goroutines fold replies into bc concurrently.
	blocks := func() (got int64) {
		coord.Inject(func(dist.Outbox) { got = bc.Blocks() })
		return got
	}

	sites := make([]*dist.NetSite, k)
	for i := 0; i < k; i++ {
		s, err := dist.DialNetSiteRetry(coord.Addr(), i, siteAlgos[i], 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.StartHeartbeats(hb)
		sites[i] = s
	}

	ups := stream.Collect(stream.NewAssign(
		stream.BiasedWalk(n, 0.3, 41), stream.NewRoundRobin(k)))
	var f int64

	// Phase 1: all sites live.
	var snap []byte
	for _, u := range ups[:n/3] {
		f += u.Delta
		sites[u.Site].Update(u)
	}
	// Quiesce the victim's connection, then checkpoint it under its lock.
	if err := sites[victim].Barrier(); err != nil {
		t.Fatal(err)
	}
	sites[victim].Inject(func(dist.Outbox) {
		snap, err = track.SnapshotSite(siteAlgos[victim])
	})
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	// Kill: the process disappears; its queued updates survive locally.
	sites[victim].Close()
	deadline := time.Now().Add(5 * time.Second)
	for !coord.SiteDead(victim) {
		if time.Now().After(deadline) {
			t.Fatalf("detector never declared site %d dead", victim)
		}
		time.Sleep(hb)
	}

	// Phase 2: degraded. Live sites keep streaming; the victim's share is
	// buffered (the durable local queue a real deployment would hold).
	var backlog []stream.Update
	for _, u := range ups[n/3 : 2*n/3] {
		f += u.Delta
		if u.Site == victim {
			backlog = append(backlog, u)
			continue
		}
		sites[u.Site].Update(u)
	}
	blocksDegraded := blocks()
	for i := 0; i < k; i++ {
		if i == victim {
			continue
		}
		if err := sites[i].Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	if blocks() == 0 || blocksDegraded == 0 {
		t.Fatalf("no blocks completed while degraded: protocol wedged")
	}

	// Takeover: restore the checkpoint into a fresh algorithm, re-dial the
	// dead slot, announce, replay the backlog.
	_, fresh := track.NewDeterministic(k, eps)
	if err := track.RestoreSite(fresh[victim], snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	repl, err := dist.DialNetSiteRetry(coord.Addr(), victim, fresh[victim], 2*time.Second)
	if err != nil {
		t.Fatalf("takeover dial: %v", err)
	}
	defer repl.Close()
	repl.StartHeartbeats(hb)
	repl.Inject(func(out dist.Outbox) {
		fresh[victim].(dist.SiteTakeover).OnTakeover(out)
	})
	for _, u := range backlog {
		repl.Update(u)
	}
	sites[victim] = repl
	if coord.SiteDead(victim) {
		t.Fatalf("slot %d still dead after takeover dial", victim)
	}

	// Phase 3: fully healed.
	for _, u := range ups[2*n/3:] {
		f += u.Delta
		sites[u.Site].Update(u)
	}

	// Quiesce: barrier rounds until the coordinator's stats settle (each
	// round flushes request/reply pairs still in flight).
	prev := dist.Stats{}
	for round := 0; round < 20; round++ {
		for i := 0; i < k; i++ {
			if err := sites[i].Barrier(); err != nil {
				t.Fatal(err)
			}
		}
		st := coord.Stats()
		if st.WithoutLiveness() == prev.WithoutLiveness() {
			break
		}
		prev = st
	}

	stats := coord.Stats()
	if stats.Takeovers != 1 {
		t.Fatalf("takeovers = %d, want 1: %+v", stats.Takeovers, stats)
	}
	if stats.HeartbeatsRecv == 0 {
		t.Fatalf("no heartbeats received: %+v", stats)
	}
	if err := coord.Err(); err != nil {
		t.Fatalf("transport error poisoned a tolerated fault: %v", err)
	}
	est := coord.Estimate()
	diff := absDiff64(f, est)
	bound := eps * float64(absDiff64(f, 0))
	if float64(diff) > bound+1e-9 {
		t.Fatalf("estimate %d vs exact %d: |err|=%d exceeds ε·f=%.1f", est, f, diff, bound)
	}
}
