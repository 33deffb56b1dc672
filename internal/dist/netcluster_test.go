package dist_test

import (
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/stream"
	"repro/internal/track"
)

// netRun drives one NetCluster over a deterministic tracker's stream,
// keeping the exact value alongside.
type netRun struct {
	t   *testing.T
	cl  *dist.NetCluster
	ups []stream.Update
	k   int
	eps float64
	at  int   // index of the next update
	f   int64 // exact value of ups[:at]
}

// to steps the stream up to update index end.
func (r *netRun) to(end int) {
	for ; r.at < end; r.at++ {
		r.f += r.ups[r.at].Delta
		r.cl.Step(r.ups[r.at])
	}
}

func (r *netRun) settle() {
	r.t.Helper()
	if err := r.cl.Settle(); err != nil {
		r.t.Fatalf("settle: %v", err)
	}
}

// siteReplacement snapshots site i at a consistent point and restores the
// blob into a freshly built algorithm for its slot.
func (r *netRun) siteReplacement(i int) dist.SiteAlgo {
	r.t.Helper()
	var snap []byte
	var err error
	if werr := r.cl.WithSite(i, func(a dist.SiteAlgo) { snap, err = track.SnapshotSite(a) }); werr != nil || err != nil {
		r.t.Fatalf("snapshot site %d: %v %v", i, werr, err)
	}
	_, fresh := track.NewDeterministic(r.k, r.eps)
	if err := track.RestoreSite(fresh[i], snap); err != nil {
		r.t.Fatalf("restore site %d: %v", i, err)
	}
	return fresh[i]
}

// coordSnapshot checkpoints the serving coordinator under its lock.
func (r *netRun) coordSnapshot(algo dist.CoordAlgo) []byte {
	r.t.Helper()
	var snap []byte
	var err error
	r.cl.Inject(func(dist.Outbox) { snap, err = track.SnapshotCoord(algo) })
	if err != nil {
		r.t.Fatalf("snapshot coordinator: %v", err)
	}
	return snap
}

// standby restores snap into a fresh coordinator.
func (r *netRun) standby(snap []byte) dist.CoordAlgo {
	r.t.Helper()
	fresh, _ := track.NewDeterministic(r.k, r.eps)
	if err := track.RestoreCoord(fresh, snap); err != nil {
		r.t.Fatalf("restore coordinator: %v", err)
	}
	return fresh
}

// waitFor polls cond until it holds, failing after five seconds.
func (r *netRun) waitFor(what string, cond func() bool) {
	r.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			r.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNetCluster runs the live-TCP deployment's fault machinery case by
// case. Each case drives a third of the stream, injects its faults, and
// asserts what the backlog, the verdict gate and the heals did; the rest
// of the stream then runs, Flush completes whatever the plan still owes,
// and the takeover counters and the tracker's ε bound must hold.
func TestNetCluster(t *testing.T) {
	const k, n, eps = 3, 9_000, 0.1
	const victim = 1
	cases := []struct {
		name            string
		siteTk, coordTk int64
		plan            func(r *netRun, coord dist.CoordAlgo)
	}{{
		name: "site crash then verdict-gated takeover", siteTk: 1,
		plan: func(r *netRun, _ dist.CoordAlgo) {
			replayed := -1
			r.cl.OnTakeover = func(_, count int) { replayed = count }
			r.to(n / 3)
			repl := r.siteReplacement(victim)
			r.cl.CrashSite(victim, repl)
			// No detector reaches a verdict within a few updates of the
			// kill, so the takeover waits and the slot's share is held.
			r.to(n/3 + 3*k)
			if !r.cl.Crashed(victim) || r.cl.BacklogLen(victim) != 3 {
				r.t.Fatalf("crashed=%v backlog=%d right after the kill, want true and 3",
					r.cl.Crashed(victim), r.cl.BacklogLen(victim))
			}
			r.waitFor("the dead verdict", func() bool { return r.cl.Suspected(victim) })
			held := r.cl.BacklogLen(victim)
			r.to(r.at + 1)
			if r.cl.Crashed(victim) || r.cl.BacklogLen(victim) != 0 || replayed != held {
				r.t.Fatalf("after the first step past the verdict: crashed=%v backlog=%d replayed=%d, want false, 0, %d",
					r.cl.Crashed(victim), r.cl.BacklogLen(victim), replayed, held)
			}
		},
	}, {
		name: "coordinator crash then heal", coordTk: 1,
		plan: func(r *netRun, coord dist.CoordAlgo) {
			r.to(n / 3)
			r.settle()
			snap := r.coordSnapshot(coord)
			r.cl.CrashCoord()
			r.to(2 * n / 3)
			held := 0
			for i := 0; i < k; i++ {
				held += r.cl.BacklogLen(i)
			}
			if !r.cl.CoordCrashed() || held != n/3 {
				r.t.Fatalf("coordinator crashed=%v, %d updates held, want true and %d", r.cl.CoordCrashed(), held, n/3)
			}
			redialed, replayed, err := r.cl.CoordTakeover(r.standby(snap))
			if err != nil || redialed != k || replayed != held {
				r.t.Fatalf("heal: %d re-dialed, %d replayed, err %v; want %d, %d, nil", redialed, replayed, err, k, held)
			}
		},
	}, {
		name: "site crash inside a coordinator outage", siteTk: 1, coordTk: 1,
		plan: func(r *netRun, coord dist.CoordAlgo) {
			r.to(n / 3)
			r.settle()
			snap := r.coordSnapshot(coord)
			r.cl.CrashCoord()
			r.to(n / 2)
			// The victim's connection died with the coordinator: its
			// snapshot comes straight from the algorithm.
			repl := r.siteReplacement(victim)
			r.cl.CrashSite(victim, repl)
			r.to(2 * n / 3)
			redialed, _, err := r.cl.CoordTakeover(r.standby(snap))
			if err != nil || redialed != k-1 {
				r.t.Fatalf("heal: %d re-dialed, err %v; want %d, nil", redialed, err, k-1)
			}
			if !r.cl.Crashed(victim) || r.cl.BacklogLen(victim) == 0 {
				r.t.Fatalf("the victim's slot came back with the coordinator: crashed=%v backlog=%d",
					r.cl.Crashed(victim), r.cl.BacklogLen(victim))
			}
		},
	}, {
		name: "settle at a fixed point",
		plan: func(r *netRun, _ dist.CoordAlgo) {
			r.to(n) // no barrier on the way
			r.settle()
			before := r.cl.Stats().WithoutLiveness()
			r.settle()
			if after := r.cl.Stats().WithoutLiveness(); after != before {
				r.t.Fatalf("a settled network moved: %+v -> %+v", before, after)
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord, sites := track.NewDeterministic(k, eps)
			cl, err := dist.NewNetCluster(coord, sites, dist.NetConfig{
				DialTimeout: 2 * time.Second, Heartbeat: 10 * time.Millisecond, HeartbeatMiss: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			r := &netRun{t: t, cl: cl, k: k, eps: eps, ups: stream.Collect(stream.NewAssign(
				stream.BiasedWalk(n, 0.3, 41), stream.NewRoundRobin(k)))}
			tc.plan(r, coord)
			r.to(n)
			if err := cl.Flush(); err != nil {
				t.Fatal(err)
			}
			st := cl.Stats()
			if st.Takeovers != tc.siteTk || st.CoordTakeovers != tc.coordTk {
				t.Fatalf("takeovers=%d coordinator takeovers=%d, want %d and %d",
					st.Takeovers, st.CoordTakeovers, tc.siteTk, tc.coordTk)
			}
			est := cl.Estimate()
			if diff := absDiff64(r.f, est); float64(diff) > eps*float64(absDiff64(r.f, 0))+1e-9 {
				t.Fatalf("estimate %d vs exact %d: |err|=%d exceeds ε·f", est, r.f, diff)
			}
		})
	}
}
